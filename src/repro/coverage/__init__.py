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
