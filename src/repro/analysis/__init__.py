"""Analysis software: decode the backtrace and relate it to the source.

The Profiler's raw data is "a list of event tags and times".  This package
turns that list into the paper's two reports and the future-work extras:

* :mod:`repro.analysis.events` — tag decode and reconstruction of absolute
  time from the wrapping 24-bit counter;
* :mod:`repro.analysis.summary` — the reconstruction fold (entry/exit
  matching, context-switch splitting at ``!``-tagged functions,
  idle/active CPU separation) and the per-function statistics report
  (Figure 3 / Figure 5 layout);
* :mod:`repro.analysis.callstack` — the call tree, a recording of that
  fold;
* :mod:`repro.analysis.trace` — the timestamped nested code-path trace
  (Figure 4 layout);
* :mod:`repro.analysis.gprof` — the exact caller/callee report, another
  recording of the fold;
* :mod:`repro.analysis.histogram`, :mod:`repro.analysis.graph` — the
  "future work" analyses: per-function time histograms, call graphs and
  subsystem groupings;
* :mod:`repro.analysis.reports` — one-call assembly of the full report.
"""

from repro.analysis.events import DecodedEvent, EventKind, decode_capture
from repro.analysis.callstack import (
    Anomaly,
    CallNode,
    CallTreeAnalysis,
    analyze_capture,
    build_call_tree,
)
from repro.analysis.summary import (
    FunctionStats,
    ProfileSummary,
    SummaryAccumulator,
    fold_capture,
    fold_columns,
    summarize,
    summarize_capture,
    summarize_columns,
)
from repro.analysis.trace import format_trace, trace_lines
from repro.analysis.histogram import FunctionHistogram, histogram_for
from repro.analysis.graph import call_graph, subsystem_rollup
from repro.analysis.compare import (
    FunctionDelta,
    ProfileComparison,
    WorkloadMismatchWarning,
    compare_summaries,
    json_safe,
)
from repro.analysis.folded import flame_ascii, hot_stacks, to_folded
from repro.analysis.gprof import GprofReport, gprof_report
from repro.analysis.reports import full_report
from repro.analysis.timeline import render_timeline, utilization_by_proc

__all__ = [
    "Anomaly",
    "CallNode",
    "CallTreeAnalysis",
    "DecodedEvent",
    "EventKind",
    "SummaryAccumulator",
    "fold_capture",
    "fold_columns",
    "summarize_capture",
    "summarize_columns",
    "FunctionHistogram",
    "FunctionStats",
    "ProfileSummary",
    "analyze_capture",
    "build_call_tree",
    "call_graph",
    "decode_capture",
    "format_trace",
    "FunctionDelta",
    "GprofReport",
    "ProfileComparison",
    "WorkloadMismatchWarning",
    "compare_summaries",
    "json_safe",
    "flame_ascii",
    "full_report",
    "gprof_report",
    "hot_stacks",
    "to_folded",
    "render_timeline",
    "utilization_by_proc",
    "histogram_for",
    "subsystem_rollup",
    "summarize",
    "trace_lines",
]
