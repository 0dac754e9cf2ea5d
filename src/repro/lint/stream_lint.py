"""Pass 3 — verify raw capture streams against their name tables.

Runs entirely on data: no workload executes.  Two layers of checking:

* **raw-record checks**, straight off the 5-byte records — 24-bit timer
  regressions (a modular inter-record delta of half the counter range
  or more means the counter went *backwards*, i.e. the latch or the
  battery-backed RAM corrupted), tags absent from the name file, and a
  capture that exactly fills the trace RAM (the overflow-LED case: the
  tail of the run is missing);

* **reconstruction checks**, replaying the entry/exit stream through a
  per-process shadow-stack state machine exactly the way the kernel's
  own ``kstack`` works — an exit that does not match the innermost open
  frame is the capture-side signature of the ``kstack_desync`` counter
  the kernel keeps at run time (the kernel counts it; this makes it a
  diagnostic), interrupt frames nested deeper than the machine has
  priority levels, and frames still open when the window closed.

The reconstruction layer runs the summary fold
(:class:`repro.analysis.summary.SummaryAccumulator`), the analysis every
report uses: its anomaly log is precisely the defect list this pass
wants, so the verifier and the real analysis can never disagree about
what a malformed stream contains.  A recorder on the fold collects the
frames it closed administratively; the interrupt nesting check walks the
raw tags.  Neither holds a list per event.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis.columnar import (
    CODE_ENTRY,
    CODE_EXIT,
    INTERRUPT_FRAMES,
    build_decode_map,
)
from repro.analysis.summary import RECORDER_SLOT, FoldRecorder, SummaryAccumulator
from repro.instrument.namefile import NameTable
from repro.lint.diagnostics import LintReport
from repro.profiler.capture import Capture
from repro.profiler.ram import DEFAULT_DEPTH, RecordColumns
from repro.profiler.upload import CaptureDefect

#: Interrupt nesting can never exceed the number of distinct priority
#: levels: each nested interrupt must arrive at a strictly higher ipl.
MAX_INTERRUPT_NESTING = 7

#: Map of reconstruction-anomaly kinds to diagnostic codes.
_ANOMALY_CODES = {
    "unknown-tag": "P203",
    "missed-exit": "P205",
    "unmatched-exit": "P205",
    "unmatched-swtch-exit": "P207",
}

#: Map of salvage-decoder defect kinds (:class:`CaptureDefect.kind`) to
#: file-level diagnostic codes.  Stable API, like the codes themselves.
DEFECT_CODES = {
    "bad-magic": "P213",
    "truncated-header": "P209",
    "bad-header-field": "P209",
    "crc-mismatch": "P210",
    "partial-record": "P211",
    "count-mismatch": "P212",
    "missing-trailer": "P801",
}


def lint_capture_defects(
    defects: Iterable[CaptureDefect],
    source: str = "<capture>",
    report: Optional[LintReport] = None,
) -> LintReport:
    """Map the salvaging decoder's :class:`CaptureDefect` list to
    file-level diagnostics (the P208–P213 block)."""
    report = report if report is not None else LintReport()
    for defect in defects:
        code = DEFECT_CODES.get(defect.kind)
        if code is None:  # pragma: no cover - future defect kinds
            continue
        message = defect.message
        if defect.offset is not None:
            message = f"{message} (byte offset {defect.offset})"
        report.add(code, message, source=source)
    return report


def lint_records(
    records: RecordColumns,
    names: NameTable,
    source: str = "<capture>",
    width_bits: int = 24,
    ram_depth: Optional[int] = DEFAULT_DEPTH,
    report: Optional[LintReport] = None,
) -> LintReport:
    """Verify one raw record stream against *names*."""
    report = report if report is not None else LintReport()

    # -- raw-record layer ---------------------------------------------------
    times = records.times
    mask = (1 << width_bits) - 1
    regression_floor = 1 << (width_bits - 1)
    previous: Optional[int] = None
    over_width = False
    for index, time in enumerate(times):
        if time > mask:
            over_width = True
            report.add(
                "P202",
                f"record time {time} exceeds the {width_bits}-bit "
                "counter",
                source=source,
                index=index,
            )
        elif previous is not None:
            delta = (time - previous) & mask
            if delta >= regression_floor:
                report.add(
                    "P202",
                    f"timer regressed by {mask + 1 - delta} us between "
                    f"records {index - 1} and {index} (counter snapshots "
                    f"{previous} -> {time}); latched time is "
                    "corrupt or records were reordered",
                    source=source,
                    index=index,
                )
        previous = time

    if ram_depth is not None and len(records) >= ram_depth:
        report.add(
            "P204",
            f"capture holds {len(records)} records, the full depth of a "
            f"{ram_depth}-word trace RAM: the overflow LED was almost "
            "certainly lit and the tail of the run is missing",
            source=source,
        )

    # -- reconstruction layer ------------------------------------------------
    if over_width:
        # The fold (rightly) refuses counter snapshots wider than the
        # hardware; the P202s above already say everything reconstruction
        # could.
        return report
    fold = SummaryAccumulator(names, width_bits=width_bits)
    truncated = _TruncatedFrames()
    fold.recorder = truncated
    fold.feed_columns(records).close()
    for anomaly in fold.anomalies:
        code = _ANOMALY_CODES.get(anomaly.kind)
        if code is None:  # pragma: no cover - future anomaly kinds
            continue
        report.add(
            code,
            f"{anomaly.detail} (t={anomaly.time_us} us)",
            source=source,
            index=anomaly.index,
        )

    _lint_open_frames(truncated.names(), source, report)
    _lint_interrupt_nesting(records, names, width_bits, source, report)
    return report


class _TruncatedFrames(FoldRecorder):
    """The calls the fold closed administratively (a missed exit, or the
    end of the capture), in the call forest's preorder.

    Each open frame carries its preorder key in the recorder slot:
    ``(tree root, open sequence)``.  A tree's calls all belong to one
    process and open in preorder, while trees of different processes
    interleave in time, so sorting calls by key walks the forest the way
    :meth:`repro.analysis.callstack.CallTreeAnalysis.nodes` does.
    """

    def __init__(self) -> None:
        self._opened = 0
        self._closed: list[tuple[tuple[int, int], str]] = []

    def open_frame(self, stack, frame: list) -> None:
        frame.append((stack.root, self._opened))
        self._opened += 1

    def close_frame(self, stack, frame: list, exit_us: int, truncated: bool) -> None:
        if truncated:
            self._closed.append((frame[RECORDER_SLOT], frame[0]))

    def names(self) -> list[str]:
        return [name for _, name in sorted(self._closed)]


def _lint_open_frames(open_frames: list[str], source: str, report: LintReport) -> None:
    """Frames never closed by a captured exit: window truncation."""
    if open_frames:
        shown = ", ".join(open_frames[:6])
        more = f" (+{len(open_frames) - 6} more)" if len(open_frames) > 6 else ""
        report.add(
            "P201",
            f"{len(open_frames)} frame(s) still open at end of capture: "
            f"{shown}{more}; per-function times for these calls are "
            "truncated at the window edge",
            source=source,
        )


def _lint_interrupt_nesting(
    records: RecordColumns,
    names: NameTable,
    width_bits: int,
    source: str,
    report: LintReport,
) -> None:
    """Interrupt frames nested deeper than the machine has priority
    levels, counted over the raw tags with the counter unwrapped inline."""
    decode = build_decode_map(names)
    mask = (1 << width_bits) - 1
    times = records.times
    previous = times[0] if times else 0
    time_us = depth = 0
    for index, (raw, tag) in enumerate(zip(times, records.tags)):
        time_us += (raw - previous) & mask
        previous = raw
        code, name, _, _ = decode[tag]
        if name not in INTERRUPT_FRAMES:
            continue
        if code == CODE_ENTRY:
            depth += 1
            if depth > MAX_INTERRUPT_NESTING:
                report.add(
                    "P206",
                    f"{name} nested {depth} deep at t="
                    f"{time_us} us but the machine has only "
                    f"{MAX_INTERRUPT_NESTING} interrupt priority levels; "
                    "each nested interrupt needs a strictly higher ipl",
                    source=source,
                    index=index,
                )
        elif code == CODE_EXIT:
            depth = max(0, depth - 1)


def verify_capture(
    capture: Capture,
    source: str = "<capture>",
    ram_depth: Optional[int] = None,
    report: Optional[LintReport] = None,
) -> LintReport:
    """Verify a loaded :class:`Capture` (records + names in one object)."""
    return lint_records(
        capture.records,
        capture.names,
        source=source or capture.label,
        width_bits=capture.counter_width_bits,
        ram_depth=ram_depth,
        report=report,
    )
