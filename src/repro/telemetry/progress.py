"""The ``--progress`` heartbeat: events/sec + ETA on stderr.

Long ``analyze`` and ``fleet ingest`` runs used to be silent for
minutes.  :class:`ProgressReporter` fixes that without touching the hot
loop's complexity: :meth:`update` is O(1) and only consults the wall
clock every :attr:`check_every` events, and heartbeats flush on a
wall-clock cadence (default one per second), never per-record.

The reporter degrades to a complete no-op when the target stream is not
a TTY — piping stderr to a file must not fill it with carriage returns —
unless forced (the CLI's ``--progress=force``).  Output goes to stderr
only; report bytes on stdout are identical with and without it.
"""

from __future__ import annotations

import time
from typing import IO, Iterable, Iterator, Optional, TypeVar

T = TypeVar("T")


def _stream_is_tty(stream: Optional[IO[str]]) -> bool:
    if stream is None:
        return False
    isatty = getattr(stream, "isatty", None)
    if isatty is None:
        return False
    try:
        return bool(isatty())
    except (ValueError, OSError):
        return False


class ProgressReporter:
    """Rate-limited progress heartbeat for long record-streaming runs.

    ``mode`` is one of ``"auto"`` (active only when *stream* is a TTY),
    ``"force"`` (active regardless — CI logs, tests), or ``"off"``.
    When *total* is known a percentage and ETA are shown; otherwise just
    the running count and rate.
    """

    def __init__(
        self,
        total: Optional[int] = None,
        *,
        stream: Optional[IO[str]] = None,
        label: str = "analyze",
        interval_s: float = 1.0,
        mode: str = "auto",
        check_every: int = 8192,
    ) -> None:
        if mode not in ("auto", "force", "off"):
            raise ValueError(f"progress mode must be auto/force/off, not {mode!r}")
        if stream is None:
            import sys

            stream = sys.stderr
        self.total = total
        self.stream = stream
        self.label = label
        self.interval_s = interval_s
        self.check_every = max(1, check_every)
        self.active = mode == "force" or (mode == "auto" and _stream_is_tty(stream))
        self.count = 0
        self.heartbeats = 0
        self._since_check = 0
        self._start = time.monotonic()
        self._next_due = self._start + interval_s

    def update(self, n: int = 1) -> None:
        """Account *n* more records; emits at most once per interval."""
        self.count += n
        if not self.active:
            return
        self._since_check += n
        if self._since_check < self.check_every:
            return
        self._since_check = 0
        now = time.monotonic()
        if now >= self._next_due:
            self._next_due = now + self.interval_s
            self._emit(now)

    def _emit(self, now: float, final: bool = False) -> None:
        elapsed = max(now - self._start, 1e-9)
        rate = self.count / elapsed
        parts = [f"{self.label}: {self.count:,} records", f"{rate:,.0f}/s"]
        if self.total:
            pct = min(100.0, 100.0 * self.count / self.total)
            parts.append(f"{pct:5.1f}%")
            if not final and rate > 0 and self.count < self.total:
                eta = (self.total - self.count) / rate
                parts.append(f"ETA {eta:,.0f}s")
        if final:
            parts.append(f"in {elapsed:,.1f}s")
        line = "  ".join(parts)
        end = "\n" if final else ""
        try:
            self.stream.write(f"\r{line:<60}{end}")
            self.stream.flush()
        except (ValueError, OSError):
            self.active = False
            return
        self.heartbeats += 1

    def finish(self) -> None:
        """Emit the final summary line (only if the reporter is active)."""
        if not self.active:
            return
        self._emit(time.monotonic(), final=True)

    def wrap(self, iterable: Iterable[T]) -> Iterator[T]:
        """Yield from *iterable*, counting each item; finishes at the end."""
        try:
            for item in iterable:
                self.update()
                yield item
        finally:
            self.finish()
