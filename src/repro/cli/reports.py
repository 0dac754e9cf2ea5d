"""The reports ``capture`` and ``analyze`` print, and their footers.

The summary and gprof reports are the columnar fold
(:func:`repro.analysis.summary.fold_columns`): it adds up caller->callee
arcs, the summary is their per-function merge and gprof is assembled
from them (:func:`repro.analysis.gprof.gprof_from_fold`), so one fold
with no recorder serves both.  A call-tree report (trace, folded, flame,
timeline) builds the tree from the whole capture; the tree is a
recording of the same fold, so a summary or gprof printed beside it is
read off the tree's fold.  Each report's module is imported only when
that report is printed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.analysis.summary import fold_capture

if TYPE_CHECKING:
    from repro.analysis.summary import Anomaly, SummaryAccumulator
    from repro.profiler.capture import Capture

REPORTS = ("summary", "trace", "gprof", "folded", "flame", "timeline")
#: Reports that walk the call tree; summary and gprof come from the fold.
TREE_REPORTS = frozenset(("trace", "folded", "flame", "timeline"))


def desync_footer(desyncs: int) -> str:
    """The kstack-desync line appended to every summary report.

    Zero is the healthy reading; anything else means the capture's
    entry/exit stream disagreed with the kernel's shadow stack and the
    per-function times above it are suspect.
    """
    note = "" if desyncs == 0 else "  <- per-function times are suspect"
    return f"kstack desyncs = {desyncs}{note}"


def _desync_count(anomalies: Sequence[Anomaly]) -> int:
    """The capture-side kstack-desync signature: exits that missed or
    mismatched a frame (no live kernel to ask on the analyze path)."""
    return sum(
        1
        for anomaly in anomalies
        if anomaly.kind in ("missed-exit", "unmatched-exit")
    )


def fold_capture_for(
    capture: Capture, reports: Sequence[str]
) -> Optional[SummaryAccumulator]:
    """Fold an in-memory *capture* once for the summary and gprof
    *reports*, or ``None`` when a call-tree report folds it instead."""
    return fold_capture(capture) if TREE_REPORTS.isdisjoint(reports) else None


def print_reports(
    reports: Sequence[str],
    summary_limit: int,
    out: Callable,
    *,
    fold: Optional[SummaryAccumulator],
    capture: Optional[Capture],
    desyncs: Optional[int] = None,
) -> None:
    """Print *reports* in order.  With a call-tree report the tree is
    built once from *capture*, and its fold serves the summary and gprof;
    otherwise they come from *fold*."""
    analysis = None
    if not TREE_REPORTS.isdisjoint(reports):
        from repro.analysis.callstack import analyze_capture

        analysis = analyze_capture(capture)
        fold = analysis.fold
    for report in reports:
        if report == "summary":
            out(fold.summary().format(limit=summary_limit))
            if desyncs is None:
                desyncs = _desync_count(fold.anomalies)
            out(desync_footer(desyncs))
        elif report == "trace":
            from repro.analysis.trace import format_trace

            out(format_trace(analysis))
        elif report == "gprof":
            from repro.analysis.gprof import gprof_from_fold

            out(gprof_from_fold(fold).format(limit=summary_limit))
        elif report == "folded":
            from repro.analysis.folded import to_folded

            out(to_folded(analysis))
        elif report == "flame":
            from repro.analysis.folded import flame_ascii

            out(flame_ascii(analysis))
        elif report == "timeline":
            from repro.analysis.timeline import render_timeline

            out(render_timeline(analysis))
        out("")


def defect_footer(capture: Capture, source: str, out: Callable) -> None:
    """The salvage footer below every ``--salvage`` report."""
    if capture.defects:
        out(f"salvage: {len(capture.defects)} defect(s) tolerated in {source}:")
        for defect in capture.defects:
            out(f"  [{defect.kind}] {defect.message}")
    else:
        out(f"salvage: no defects found in {source}")
