"""``repro top`` — the refreshing hottest-functions terminal view.

A ``top(1)``-shaped operator view over a running live analysis: a header
of the stream vitals (events/sec, lag, windows, busy%) and a table of
the hottest functions, redrawn in place each rolling window.  The sort
keys are :data:`repro.analysis.summary.FUNCTION_SORTS`, the vocabulary
``repro db query --sort`` also reads, so ``repro top --sort pct-net``
and ``repro db query --sort pct-net`` mean the same thing.

Rendering is plain ANSI (home + clear-to-end per frame, no curses), and
``--once`` / non-TTY output degrades to printing a single frame, which
is what the CI smoke job pins.
"""

from __future__ import annotations

import sys
from typing import IO, List, Optional

from repro.analysis.summary import FUNCTION_SORTS, sort_rows
from repro.live.analyzer import LiveWindow

DEFAULT_TOP_LIMIT = 15

_CLEAR_HOME = "\x1b[H"
_CLEAR_BELOW = "\x1b[J"


def render_top(
    window: LiveWindow,
    *,
    sort: str = "net",
    limit: int = DEFAULT_TOP_LIMIT,
    scope: str = "cumulative",
    label: str = "",
) -> str:
    """One frame of the top view as plain text (no ANSI).

    ``scope`` picks which summary the table ranks: ``"cumulative"``
    (run so far) or ``"window"`` (just the last rolling window).
    """
    if scope not in ("cumulative", "window"):
        raise ValueError(f"unknown scope {scope!r}; pick cumulative or window")
    summary = window.cumulative if scope == "cumulative" else window.window
    lines: List[str] = []
    title = "repro top" + (f" — {label}" if label else "")
    lines.append(
        f"{title}  |  up {window.host_elapsed_s:7.1f}s  "
        f"window #{window.seq}  sort={sort}  scope={scope}"
    )
    lines.append(
        f"events {window.cumulative.event_count:>10}  "
        f"rate {window.events_per_sec:>12,.0f}/s  "
        f"busy {100.0 * window.cumulative.busy_fraction:6.2f}%  "
        f"sim {window.cumulative.wall_us / 1_000_000:9.3f}s"
    )
    lines.append("-" * 78)
    lines.append(
        f"{'Elapsed':>10} {'Net':>10} {'# calls':>9} "
        f"{'% real':>8} {'% net':>7}   name"
    )
    for stats in sort_rows(summary, sort)[:limit]:
        lines.append(
            f"{stats.elapsed_us:>10} {stats.net_us:>10} {stats.calls:>9} "
            f"{summary.pct_real(stats):>7.2f}% {summary.pct_net(stats):>6.2f}%   "
            f"{stats.name}"
        )
    return "\n".join(lines)


class TopView:
    """Redraw the top frame in place as windows close.

    Feed it :class:`LiveWindow` objects (it is shaped to be a
    ``LiveAnalyzer(on_window=view.update)`` hook).  On a TTY each update
    homes the cursor and overdraws; elsewhere (``--once``, pipes, CI)
    nothing is drawn until :meth:`final`, which prints the last frame
    once.
    """

    def __init__(
        self,
        *,
        sort: str = "net",
        limit: int = DEFAULT_TOP_LIMIT,
        scope: str = "cumulative",
        label: str = "",
        out: Optional[IO[str]] = None,
        once: bool = False,
    ) -> None:
        if sort not in FUNCTION_SORTS:
            raise ValueError(
                f"unknown sort {sort!r}; pick one of {'/'.join(FUNCTION_SORTS)}"
            )
        self.sort = sort
        self.limit = limit
        self.scope = scope
        self.label = label
        self.once = once
        self.out = out if out is not None else sys.stdout
        self.frames = 0
        self.latest: Optional[LiveWindow] = None
        self._interactive = (not once) and bool(
            getattr(self.out, "isatty", lambda: False)()
        )

    def update(self, window: LiveWindow) -> None:
        """Take one closed window; redraw if interactive."""
        self.latest = window
        if not self._interactive:
            return
        frame = render_top(
            window,
            sort=self.sort,
            limit=self.limit,
            scope=self.scope,
            label=self.label,
        )
        self.out.write(_CLEAR_HOME + frame + "\n" + _CLEAR_BELOW)
        self.out.flush()
        self.frames += 1

    def final(self) -> Optional[str]:
        """End of stream: print the last frame once in ``--once``/pipe
        mode (interactive mode already drew it).  Returns the frame."""
        if self.latest is None:
            return None
        frame = render_top(
            self.latest,
            sort=self.sort,
            limit=self.limit,
            scope=self.scope,
            label=self.label,
        )
        if not self._interactive:
            self.out.write(frame + "\n")
            self.out.flush()
            self.frames += 1
        return frame
