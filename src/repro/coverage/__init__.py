"""Profile coverage: static reachability × runtime tag observation.

The profiler reports on code that *ran*; this package reports on the
instrumented code that *didn't*.  Three legs:

* :mod:`repro.coverage.callgraph` — a static call graph of the
  instrumented kernel (pure AST, no execution), rooted at the
  syscall/interrupt/scheduler entry points and the workload harness,
  giving the set of statically **reachable** instrumented functions;
* :mod:`repro.coverage.corpus` — folds a directory of MPF capture files
  (the fleet planner's corpus, read by the fleet's corpus walker) into
  **observed** tag hit sets, grouped per workload by MPF2 label;
* :mod:`repro.coverage.report` — crosses the two into the coverage
  report: per-workload coverage %, reachable-but-never-observed blind
  spots with suggested workloads, statically-unreachable (dead)
  instrumentation, and the P6xx diagnostic family;
* :mod:`repro.coverage.hunt` — the closed loop: a seeded, deterministic
  coverage-guided driver that perturbs workload parameters greedily to
  maximize new-tag coverage over the corpus baseline.
"""

from repro.coverage.callgraph import (
    CallGraph,
    CallGraphNode,
    ROOT_CATEGORIES,
    build_call_graph,
)
from repro.coverage.corpus import (
    CaptureCoverage,
    CorpusCoverage,
    scan_corpus,
)
from repro.coverage.hunt import (
    HuntResult,
    HuntStep,
    default_candidate_runner,
    hunt_coverage,
    render_hunt_json,
    render_hunt_text,
)
from repro.coverage.report import (
    BlindSpot,
    CoverageReport,
    WorkloadRow,
    build_coverage_report,
    coverage_diagnostics,
    coverage_report_for,
    render_blindspots_text,
    render_coverage_json,
    render_coverage_text,
)

__all__ = [
    "BlindSpot",
    "CallGraph",
    "CallGraphNode",
    "CaptureCoverage",
    "CorpusCoverage",
    "CoverageReport",
    "HuntResult",
    "HuntStep",
    "ROOT_CATEGORIES",
    "WorkloadRow",
    "build_call_graph",
    "build_coverage_report",
    "coverage_diagnostics",
    "coverage_report_for",
    "default_candidate_runner",
    "hunt_coverage",
    "render_blindspots_text",
    "render_coverage_json",
    "render_coverage_text",
    "render_hunt_json",
    "render_hunt_text",
    "scan_corpus",
]
