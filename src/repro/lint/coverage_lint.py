"""Pass 7 — profile coverage over a capture corpus (the P6xx family).

The lint-side face of :mod:`repro.coverage`: given a corpus directory
(``repro lint --coverage-corpus DIR --names F``), extract the static
call graph, scan the corpus into observed-tag sets, and report the
cross as diagnostics — dead instrumentation (P601), blind spots
(P602), redundant workloads (P603), namefile/source disagreement
(P604) and unusable captures (P605).

The heavy machinery imports lazily inside :func:`lint_coverage_corpus`,
so ``repro lint``'s fast paths (name files, stream checks) never pay for
it.
"""

from __future__ import annotations

from typing import Optional

from repro.lint.diagnostics import LintReport


def lint_coverage_corpus(
    root,
    names,
    report: Optional[LintReport] = None,
    jobs: int = 1,
) -> LintReport:
    """Run the coverage cross over *root* and fold in the P6xx findings."""
    from repro.coverage.callgraph import build_call_graph
    from repro.coverage.corpus import scan_corpus
    from repro.coverage.report import build_coverage_report, coverage_diagnostics
    from repro.fleet.ingest import FleetError

    report = report if report is not None else LintReport()
    try:
        corpus = scan_corpus(root, names, jobs=jobs)
    except FleetError as exc:
        report.add("P506", str(exc), source=str(root))
        return report
    graph = build_call_graph()
    coverage = build_coverage_report(corpus, names, graph=graph)
    return coverage_diagnostics(coverage, lint_report=report, graph=graph)
