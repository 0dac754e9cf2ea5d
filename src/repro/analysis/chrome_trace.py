"""A capture as Chrome ``trace_event`` JSON, written as the fold runs.

The paper's Figure 4 code-path trace in a form Perfetto and
``chrome://tracing`` open directly.  :class:`ChromeTraceWriter` is a
recorder on the summary fold
(:class:`~repro.analysis.summary.FoldRecorder`): it writes one
``ph="X"`` complete event the moment the fold closes a call, so a trace
of any length costs the fold's memory, not a call tree.  It is the one
Chrome-trace writer: ``repro trace export`` folds a capture file
through it, and ``repro live analyze --trace-out`` folds a wire stream
through it, flushing per batch.

The tracks:

* every reconstructed process (the ``swtch()`` split) ``P<i>`` is pid
  ``i + 1``, named when it first appears;
* interrupt frames — any frame named in *interrupt_names*, by default
  :data:`~repro.analysis.columnar.INTERRUPT_FRAMES` — and every call
  they make go on the ``interrupts`` track, pid 0;
* an inline mark is an instant event on the track of the innermost open
  frame; a mark fired with no frame open goes on the ``user mode``
  track, pid ``len(procs) + 1``, which is known only at the end, so
  these marks are the only events the writer holds;
* ``swtch`` frames render as the ``idle`` category.

Timestamps are the capture's reconstructed absolute microseconds, so
simulated time reads directly off the Perfetto ruler.

The container is a bare JSON array (Chrome's JSON Array Format), which
Chrome and Perfetto load even while it is being written or after its
writer died.  Its last element is one ``trace_end`` metadata event whose
args carry the capture's accounting and the writer's counts.
``tests/oracles.py`` keeps a call-tree walk as the reference this writer
is held to.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional, TextIO

from repro.analysis.columnar import INTERRUPT_FRAMES
from repro.analysis.summary import RECORDER_SLOT, FoldRecorder, SummaryAccumulator

#: pid of the interrupt track; the fold's process ``P<i>`` is pid ``i + 1``.
INTERRUPT_PID = 0

#: The slice cap of ``repro live analyze --trace-out`` (``trace export``
#: has none).
LIVE_MAX_SLICES = 100_000


def _metadata(name: str, pid: int, args: dict) -> dict:
    return {"name": name, "ph": "M", "pid": pid, "tid": 0, "args": args}


class ChromeTraceWriter(FoldRecorder):
    """Write the fold's reconstruction to *out* as Chrome trace events.

    Attach it as the fold's recorder before the first event; seal the
    fold at the end of the stream and hand it to :meth:`close`, which
    writes what only the end knows and terminates the array.  Each open
    frame carries its interrupt-track flag in the recorder slot.

    ``max_slices`` caps the call slices and marks written (a long live
    run's file stays bounded); past it they are counted as dropped
    in the trailer.  :meth:`end_batch` and :meth:`window` serve the live
    analyzer: a flush per wire batch, and counter samples per closed
    rolling window.
    """

    def __init__(
        self,
        out: TextIO,
        *,
        interrupt_names: Iterable[str] = INTERRUPT_FRAMES,
        label: str = "",
        max_slices: Optional[int] = None,
    ) -> None:
        self.out = out
        self.interrupt_names = frozenset(interrupt_names)
        self.label = label
        self.max_slices = max_slices
        #: Events written, the trailer excepted.
        self.events = 0
        self.slices = 0
        self.dropped = 0
        self.truncated = 0
        self.closed = False
        #: Process label -> pid, for the processes named so far.
        self._pids: dict[str, int] = {}
        #: ``(time_us, name)`` of the marks fired with no frame open.
        self._orphan_marks: list[tuple[int, str]] = []
        self._separator = "["
        self._emit(_metadata("process_name", INTERRUPT_PID, {"name": "interrupts"}))

    def _emit(self, event: dict) -> None:
        self.out.write(self._separator + json.dumps(event))
        self._separator = ",\n"
        self.events += 1

    def _pid(self, proc: str) -> int:
        """The pid of process *proc*, naming its track on first sight."""
        pid = self._pids.get(proc)
        if pid is None:
            # The fold labels its processes P0, P1, ... in order of creation.
            pid = self._pids[proc] = int(proc[1:]) + 1
            self._emit(_metadata("process_name", pid, {"name": proc}))
            self._emit(_metadata("process_sort_index", pid, {"sort_index": pid}))
        return pid

    def _room(self) -> bool:
        """Count one more slice, or a dropped one once ``max_slices`` are in."""
        if self.max_slices is not None and self.slices >= self.max_slices:
            self.dropped += 1
            return False
        self.slices += 1
        return True

    def _slice(
        self,
        stack,
        name: str,
        enter_us: int,
        exit_us: int,
        is_swtch: bool,
        on_interrupts: bool,
        args: dict,
    ) -> None:
        if on_interrupts:
            pid, category = INTERRUPT_PID, "interrupt"
        else:
            pid, category = self._pid(stack.proc), "idle" if is_swtch else "kernel"
        self._emit(
            {
                "name": name,
                "cat": category,
                "ph": "X",
                "ts": enter_us,
                "dur": max(0, exit_us - enter_us),
                "pid": pid,
                "tid": 1,
                "args": args,
            }
        )

    def _instant(self, name: str, time_us: int, pid: int, args: dict) -> None:
        self._emit(
            {
                "name": name,
                "cat": "inline",
                "ph": "i",
                "ts": time_us,
                "pid": pid,
                "tid": 1,
                "s": "t",
                "args": args,
            }
        )

    # -- the fold's hooks -------------------------------------------------------

    def open_frame(self, stack, frame: list) -> None:
        frames = stack.frames
        frame.append(
            frame[0] in self.interrupt_names
            or (len(frames) > 1 and frames[-2][RECORDER_SLOT])
        )

    def close_frame(self, stack, frame: list, exit_us: int, truncated: bool) -> None:
        if not self._room():
            return
        args = {"proc": stack.proc, "self_us": frame[1], "depth": len(stack.frames)}
        if truncated:
            args["truncated"] = True
            self.truncated += 1
        self._slice(
            stack, frame[0], frame[4], exit_us, frame[3], frame[RECORDER_SLOT], args
        )

    def synthetic_frame(self, stack, name: str, exit_us: int, is_swtch: bool) -> None:
        if not self._room():
            return
        frames = stack.frames
        args = {
            "proc": stack.proc,
            "self_us": 0,
            # An unmatched swtch exit stands outside the call nesting.
            "depth": 0 if is_swtch else len(frames),
            "synthetic": True,
        }
        on_interrupts = name in self.interrupt_names or (
            bool(frames) and frames[-1][RECORDER_SLOT]
        )
        self._slice(
            stack, name, stack.block_start_us, exit_us, is_swtch, on_interrupts, args
        )

    def mark(self, stack, time_us: int, name: str) -> None:
        if not self._room():
            return
        frames = stack.frames
        if not frames:
            self._orphan_marks.append((time_us, name))
            return
        pid = INTERRUPT_PID if frames[-1][RECORDER_SLOT] else self._pid(stack.proc)
        self._instant(name, time_us, pid, {"proc": stack.proc})

    # -- live use -------------------------------------------------------------

    def end_batch(self) -> None:
        """One wire batch is folded: flush the events it closed, so the
        file loads mid-stream."""
        self.out.flush()

    def window(self, window: "LiveWindow") -> None:  # noqa: F821 - duck-typed
        """Write the counter samples of one closed rolling window."""
        if self.closed:
            return
        ts = window.cumulative.wall_us
        rates = {"events_per_sec": round(window.events_per_sec, 3)}
        busy = {"busy": round(100.0 * window.window.busy_fraction, 3)}
        for name, values in (("live.events_per_sec", rates), ("live.busy_pct", busy)):
            self._emit(
                {"name": name, "ph": "C", "ts": ts, "pid": 1, "tid": 0, "args": values}
            )
        self.out.flush()

    # -- the end ----------------------------------------------------------------

    def close(self, fold: SummaryAccumulator) -> int:
        """Write the tracks only the end of the stream completes, the
        trailer, and the array's close; returns the events written before
        the trailer.

        *fold* is the fold this writer recorded, sealed at the end of the
        stream (after an error mid-stream it may be left open: the
        trailer then carries the accounting so far).  Idempotent.
        """
        if self.closed:
            return self.events
        procs = fold.procs
        for proc in procs:
            self._pid(proc)
        sort_index = {"sort_index": len(procs) + 2}
        self._emit(_metadata("process_sort_index", INTERRUPT_PID, sort_index))
        if self._orphan_marks:
            user_pid = len(procs) + 1
            self._emit(_metadata("process_name", user_pid, {"name": "user mode"}))
            for time_us, name in self._orphan_marks:
                self._instant(name, time_us, user_pid, {})
        summary = fold.peek()
        trailer = _metadata(
            "trace_end",
            1,
            {
                "tool": "repro-trace",
                "label": self.label,
                "wall_us": summary.wall_us,
                "idle_us": summary.idle_us,
                "event_count": fold.event_count,
                "context_switches": fold.context_switches,
                "procs": list(procs),
                "interrupt_frames": sorted(self.interrupt_names),
                "records": fold.event_count,
                "slices": self.slices,
                "dropped_slices": self.dropped,
                "truncated": self.truncated,
            },
        )
        self.out.write(self._separator + json.dumps(trailer) + "\n]\n")
        self.out.flush()
        self.closed = True
        return self.events
