"""Analysis software: decode the backtrace and relate it to the source.

The Profiler's raw data is "a list of event tags and times".  This package
turns that list into the paper's two reports and the future-work extras:

* :mod:`repro.analysis.events` — tag decode and reconstruction of absolute
  time from the wrapping 24-bit counter;
* :mod:`repro.analysis.summary` — the reconstruction fold (entry/exit
  matching, context-switch splitting at ``!``-tagged functions,
  idle/active CPU separation, caller->callee arcs) and the per-function
  statistics report (Figure 3 / Figure 5 layout);
* :mod:`repro.analysis.callstack` — the call tree, a recording of that
  fold;
* :mod:`repro.analysis.trace` — the timestamped nested code-path trace
  (Figure 4 layout);
* :mod:`repro.analysis.gprof` — the exact caller/callee report,
  assembled from the fold's arcs;
* :mod:`repro.analysis.histogram`, :mod:`repro.analysis.graph` — the
  "future work" analyses: per-function time histograms, call graphs and
  subsystem groupings;
* :mod:`repro.analysis.reports` — one-call assembly of the full report.
"""
