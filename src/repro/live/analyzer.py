"""The live consumer: wire batches -> rolling summaries -> gauges.

:class:`LiveAnalyzer` is the analysis side of the live pipe.  It drives
:func:`repro.profiler.upload.iter_capture_columns` over a (usually
non-seekable, open-ended) capture stream and folds every batch into one
:class:`~repro.analysis.summary.SummaryAccumulator` — the same fold
``repro analyze`` runs over a capture file, which is what makes the
drained final summary byte-identical to the batch report by
construction.

On top of the fold it publishes the live observables:

* **rolling summaries** — every ``window_s`` (host monotonic clock) a
  :class:`LiveWindow` pairs the cumulative
  :meth:`~repro.analysis.summary.SummaryAccumulator.peek` with the
  windowed :meth:`~repro.analysis.summary.ProfileSummary.delta` since
  the previous window;
* **telemetry gauges** through the telemetry registry — events/sec
  (cumulative and per-window), consumer lag (milliseconds from batch
  arrival to fold completion), bytes buffered and totals;
* an optional Chrome trace
  (:class:`~repro.analysis.chrome_trace.ChromeTraceWriter`, the recorder
  on the fold that also writes ``repro trace export``, here with counter
  samples per window) and jsonl heartbeat
  (:class:`~repro.telemetry.heartbeat.HeartbeatFlusher`), each flushed
  per batch;
* a Prometheus ``/metrics`` endpoint, by handing :meth:`render_metrics`
  to :class:`repro.fleet.serve.MetricsHTTPServer`.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Optional, Union

from repro.analysis.summary import ProfileSummary, SummaryAccumulator
from repro.instrument.namefile import NameTable
from repro.profiler.ram import DEFAULT_CHUNK_RECORDS
from repro.profiler.upload import (
    RECORD_BYTES,
    STOCK_WIDTH_BITS,
    RecordColumns,
    iter_capture_columns,
)
from repro.telemetry import TELEMETRY
from repro.telemetry.heartbeat import HeartbeatFlusher
from repro.telemetry.export import to_prometheus

if TYPE_CHECKING:
    from repro.analysis.chrome_trace import ChromeTraceWriter

#: Default seconds of host time per rolling window.
DEFAULT_WINDOW_S = 1.0


@dataclasses.dataclass(frozen=True)
class LiveWindow:
    """One closed rolling window of the live stream.

    ``cumulative`` is the run-so-far snapshot at window close;
    ``window`` the delta summary of just this window (exact for the
    monotone counters, see :meth:`ProfileSummary.delta`).  Rates are
    measured on the host monotonic clock — the capture's simulated
    microseconds tell a different, slower story by design.
    """

    seq: int
    host_elapsed_s: float
    duration_s: float
    events: int
    events_per_sec: float
    cumulative: ProfileSummary
    window: ProfileSummary


class LiveAnalyzer:
    """Fold an MPF2 wire stream incrementally; publish live observables.

    Drive it either with :meth:`consume` (pull: hand it the stream, get
    the drained summary back, folded at the counter width the stream's
    header declares) or by pushing batches of a stock 24-bit counter
    through :meth:`feed` and calling :meth:`finish` at end of stream.
    ``on_window`` fires with each closed :class:`LiveWindow` — the hook
    ``repro top`` hangs its refresh on.  A ``trace`` writer records the
    fold and is closed with it by :meth:`finish`.
    """

    def __init__(
        self,
        names: NameTable,
        *,
        window_s: float = DEFAULT_WINDOW_S,
        clock: Callable[[], float] = time.monotonic,
        on_window: Optional[Callable[[LiveWindow], None]] = None,
        trace: Optional[ChromeTraceWriter] = None,
        heartbeat: Optional[HeartbeatFlusher] = None,
    ) -> None:
        if window_s <= 0:
            raise ValueError(f"window must be positive, got {window_s}")
        self.names = names
        self.window_s = window_s
        self.on_window = on_window
        self.trace = trace
        self._fold_at(STOCK_WIDTH_BITS)
        self.heartbeat = heartbeat
        self.records_total = 0
        self.bytes_total = 0
        self.batches = 0
        self.windows: int = 0
        self.latest_window: Optional[LiveWindow] = None
        self._clock = clock
        self._started = clock()
        self._window_started = self._started
        self._window_base: Optional[ProfileSummary] = None
        self._finished: Optional[ProfileSummary] = None

    # -- feeding ---------------------------------------------------------------

    def _fold_at(self, width_bits: int) -> None:
        """Start the fold over for a counter *width_bits* wide."""
        self.accumulator = SummaryAccumulator(self.names, width_bits=width_bits)
        self.accumulator.recorder = self.trace

    def feed(self, columns: RecordColumns, *, arrival: Optional[float] = None) -> None:
        """Fold one wire batch in and publish the per-batch gauges.

        ``arrival`` is the monotonic instant the batch's bytes finished
        arriving (defaults to now); the published ``live.lag_ms`` gauge
        is the time from that instant to fold completion — how far the
        consumer runs behind the wire.
        """
        if arrival is None:
            arrival = self._clock()
        n = len(columns)
        self.accumulator.feed_columns(columns)
        if self.trace is not None:
            self.trace.end_batch()
        self.records_total += n
        self.bytes_total += n * RECORD_BYTES
        self.batches += 1
        done = self._clock()
        if TELEMETRY.enabled:
            lag_ms = (done - arrival) * 1_000.0
            elapsed = done - self._started
            TELEMETRY.count("live.records", n)
            TELEMETRY.set_gauge("live.records.total", self.records_total)
            TELEMETRY.set_gauge("live.bytes.total", self.bytes_total)
            TELEMETRY.set_gauge("live.bytes.buffered", n * RECORD_BYTES)
            TELEMETRY.set_gauge("live.lag_ms", lag_ms)
            TELEMETRY.max_gauge("live.lag_ms.peak", lag_ms)
            if elapsed > 0:
                TELEMETRY.set_gauge(
                    "live.events_per_sec", self.records_total / elapsed
                )
        self.maybe_rotate(now=done)
        if self.heartbeat is not None:
            self.heartbeat.maybe_flush()

    # -- windows ---------------------------------------------------------------

    def maybe_rotate(self, *, now: Optional[float] = None) -> Optional[LiveWindow]:
        """Close the current window if ``window_s`` host seconds passed."""
        if now is None:
            now = self._clock()
        if now - self._window_started < self.window_s:
            return None
        return self.rotate(now=now)

    def rotate(self, *, now: Optional[float] = None) -> LiveWindow:
        """Close the current rolling window unconditionally."""
        if now is None:
            now = self._clock()
        cumulative = self.accumulator.peek()
        base = self._window_base
        windowed = cumulative.delta(base) if base is not None else cumulative
        duration = max(now - self._window_started, 1e-9)
        window = LiveWindow(
            seq=self.windows,
            host_elapsed_s=now - self._started,
            duration_s=duration,
            events=windowed.event_count,
            events_per_sec=windowed.event_count / duration,
            cumulative=cumulative,
            window=windowed,
        )
        self.windows += 1
        self.latest_window = window
        self._window_base = cumulative
        self._window_started = now
        if TELEMETRY.enabled:
            TELEMETRY.set_gauge("live.window.events_per_sec", window.events_per_sec)
            TELEMETRY.set_gauge(
                "live.window.busy_pct", 100.0 * windowed.busy_fraction
            )
            TELEMETRY.set_gauge("live.windows", self.windows)
        if self.trace is not None:
            self.trace.window(window)
        if self.on_window is not None:
            self.on_window(window)
        return window

    # -- draining --------------------------------------------------------------

    def finish(self) -> ProfileSummary:
        """Seal the accumulator; the drained summary (byte-identical to
        batch analysis of the same records).  Idempotent."""
        if self._finished is None:
            if self.records_total and (
                self._window_base is None
                or self._window_base.event_count != self.records_total
            ):
                self.rotate()
            self._finished = self.accumulator.summary()
            if self.trace is not None:
                self.trace.close(self.accumulator)
            if self.heartbeat is not None:
                self.heartbeat.flush()
        return self._finished

    def consume(
        self,
        source: Union[str, Path, BinaryIO],
        *,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
    ) -> ProfileSummary:
        """Drain *source* (a path, pipe or socket file) to completion.

        Each ``read()`` off the wire becomes one :meth:`feed`; the
        arrival timestamp for the lag gauge is taken the moment the
        batch is decoded off the stream.  The fold runs at the counter
        width the stream's header declares, read as the stream starts.
        """
        clock = self._clock
        batches = iter_capture_columns(
            source,
            chunk_records=chunk_records,
            on_meta=lambda meta: self._fold_at(meta.counter_width_bits),
        )
        for columns in batches:
            self.feed(columns, arrival=clock())
        return self.finish()

    # -- scrape ----------------------------------------------------------------

    def render_metrics(self) -> str:
        """Prometheus text of the telemetry registry (the ``/metrics``
        render callable for :class:`repro.fleet.serve.MetricsHTTPServer`)."""
        return to_prometheus(TELEMETRY)
