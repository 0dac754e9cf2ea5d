"""One-call assembly of the full profiling report.

Glues the two per-capture reports (summary + code-path trace) behind a
single entry point, mirroring how the original analysis program printed
"two different analyses" from one uploaded capture.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.callstack import CallTreeAnalysis, analyze_capture
from repro.analysis.summary import ProfileSummary, fold_capture, summarize_capture
from repro.analysis.trace import format_trace
from repro.profiler.capture import Capture


def full_report(
    capture: Capture,
    summary_limit: Optional[int] = 20,
    trace_start_us: int = 0,
    trace_end_us: Optional[int] = None,
    include_trace: bool = True,
) -> str:
    """Render the complete report for *capture*.

    ``summary_limit`` truncates the function table (the paper's figures
    show only the head); set it to ``None`` for every function.  The trace
    window defaults to the entire capture — for long captures pass a
    window, code-path traces are meant to be read around points of
    interest.
    """
    fold = fold_capture(capture)
    parts = []
    if capture.label:
        parts.append(f"=== Profile: {capture.label} ===")
    if capture.overflowed:
        parts.append(
            "note: the Profiler RAM overflowed during this run; the capture"
            " covers only the interval up to the overflow LED"
        )
    if capture.defects:
        parts.append(
            f"note: this capture was salvaged; {len(capture.defects)} "
            "defect(s) were tolerated:"
        )
        for defect in capture.defects:
            parts.append(f"  [{defect.kind}] {defect.message}")
    parts.append(fold.summary().format(limit=summary_limit))
    if include_trace:
        parts.append("")
        parts.append("Code path trace:")
        parts.append(
            format_trace(
                analyze_capture(capture), start_us=trace_start_us, end_us=trace_end_us
            )
        )
    if fold.anomalies:
        parts.append("")
        parts.append(f"({len(fold.anomalies)} reconstruction anomalies)")
    return "\n".join(parts)


def analyze_and_summarize(
    capture: Capture,
) -> tuple[CallTreeAnalysis, ProfileSummary]:
    """Convenience: the two analysis products most callers want."""
    return analyze_capture(capture), summarize_capture(capture)
