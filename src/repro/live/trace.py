"""Incremental Chrome-trace track of the live wire stream.

The batch ``repro trace export`` renders a whole reconstructed capture
into one Perfetto document after the fact.  :class:`LiveTraceWriter` is
its streaming sibling: it appends ``trace_event`` JSON *while the stream
flows*, so the trace file can be loaded (Chrome and Perfetto tolerate an
unterminated event array) before the capture finishes.

The writer records the live analyzer's fold
(:class:`~repro.analysis.summary.FoldRecorder`): every call the fold
closes becomes one ``ph="X"`` complete event on its reconstructed
process's track, the moment it closes.  A call that spans several wire
chunks, or sleeps across a ``swtch`` while other processes run, still
renders as one slice, and the slices are the non-synthetic call slices
the batch exporter draws from the same records.  Calls still open when
the stream ends are closed administratively when the analyzer drains
(counted as truncated in the trailer).  Each closed rolling window adds
counter samples (events/sec, busy%) on a gauge track.

A ``max_slices`` cap bounds the file for long sessions; once reached,
only the counter track keeps appending and the drop is recorded in the
trailer metadata event written by :meth:`close`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.analysis.summary import FoldRecorder
from repro.telemetry.export import chrome_complete_event, chrome_counter_event

#: Default cap on emitted call slices (the counter track is unbounded).
DEFAULT_MAX_SLICES = 100_000


class LiveTraceWriter(FoldRecorder):
    """Append a Chrome ``trace_event`` array as the live fold closes calls.

    Hand it to :class:`~repro.live.analyzer.LiveAnalyzer` as ``trace``:
    the analyzer attaches it to its fold and reports each batch and
    window to it.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        max_slices: int = DEFAULT_MAX_SLICES,
        label: str = "",
    ) -> None:
        self.path = Path(path)
        self.max_slices = max_slices
        self.records = 0
        self.slices = 0
        self.dropped = 0
        self.truncated = 0
        self.closed = False
        #: Reconstructed process label -> its thread track.
        self._tids: dict[str, int] = {}
        self._file = self.path.open("w")
        self._file.write("[\n")
        self._first = True
        self._emit(
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": f"repro live{': ' + label if label else ''}"},
            }
        )

    def _emit(self, event: dict) -> None:
        prefix = " " if self._first else ",\n "
        self._first = False
        self._file.write(prefix + json.dumps(event, sort_keys=True))

    def close_frame(self, stack, frame: list, exit_us: int, truncated: bool) -> None:
        """Append the slice of a call the fold just closed."""
        if self.slices >= self.max_slices:
            self.dropped += 1
            return
        tid = self._tids.get(stack.proc)
        if tid is None:
            tid = self._tids[stack.proc] = len(self._tids) + 1
            self._emit(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": stack.proc},
                }
            )
        enter_us = frame[4]
        self._emit(
            chrome_complete_event(
                frame[0],
                enter_us,
                exit_us - enter_us,
                tid=tid,
                cat="live",
                args={"truncated": True} if truncated else None,
            )
        )
        self.slices += 1
        if truncated:
            self.truncated += 1

    def end_batch(self, records: int) -> None:
        """One wire batch is folded: count its records and flush the
        slices it closed, so the file loads mid-stream."""
        self.records += records
        self._file.flush()

    def window(self, window: "LiveWindow") -> None:  # noqa: F821 - duck-typed
        """Append the counter samples of one closed rolling window."""
        if self.closed:
            return
        cumulative = window.cumulative
        self._emit(
            chrome_counter_event(
                "live.events_per_sec",
                cumulative.wall_us,
                {"events_per_sec": round(window.events_per_sec, 3)},
            )
        )
        self._emit(
            chrome_counter_event(
                "live.busy_pct",
                cumulative.wall_us,
                {"busy": round(100.0 * window.window.busy_fraction, 3)},
            )
        )
        self._file.flush()

    def close(self) -> None:
        """Terminate the array (a valid, loadable document).  Idempotent."""
        if self.closed:
            return
        self._emit(
            {
                "name": "live_trace_end",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {
                    "records": self.records,
                    "slices": self.slices,
                    "dropped_slices": self.dropped,
                    "truncated": self.truncated,
                },
            }
        )
        self._file.write("\n]\n")
        self._file.close()
        self.closed = True

    def __enter__(self) -> "LiveTraceWriter":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()
