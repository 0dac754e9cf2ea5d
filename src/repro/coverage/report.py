"""The coverage cross: static reachability × corpus observation.

Every instrumented function (the name-file universe, minus the
``dummy`` idle tag) is classified **exactly once**:

* ``covered`` — statically reachable and observed in the corpus;
* ``blind spot`` — reachable but never observed (**P602**), with a
  suggested workload from the call-graph neighborhood of tags the
  corpus *did* observe;
* ``unreachable`` — instrumented, but no static path from any
  syscall/interrupt/scheduler/harness root reaches it: dead
  instrumentation (**P601**);
* ``unmapped`` — present in the name file but absent from the call
  graph entirely, i.e. the name file and the source tree disagree
  (**P604**).

On top of the per-function classification the report carries
per-workload rows (coverage %, unique-tag contribution — a workload
whose tags are all observed elsewhere gets **P603**) and the corpus
scan faults (**P605**).  Both renderers — compiler-ish text and a
stable JSON schema — print capture *basenames* and the corpus
directory's name only, so reports are byte-identical across checkouts
and, because scanning is plan-ordered, across file order and
``--jobs``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Optional

from repro.coverage.callgraph import CallGraph, build_call_graph
from repro.coverage.corpus import CorpusCoverage
from repro.instrument.namefile import DUMMY_NAME, NameTable
from repro.lint.diagnostics import LintReport
from repro.telemetry import TELEMETRY as _TELEMETRY

#: How far the suggestion heuristic looks around a blind spot.
NEIGHBOR_HOPS = 2


@dataclasses.dataclass(frozen=True)
class BlindSpot:
    """A reachable instrumented function the corpus never observed."""

    name: str
    subsystem: str
    #: Best workload to perturb toward this function ("" when no
    #: workload's observations touch its neighborhood).
    suggested_workload: str
    #: Observed tags within NEIGHBOR_HOPS of this function that the
    #: suggested workload already hits.
    shared_neighbors: int


@dataclasses.dataclass(frozen=True)
class WorkloadRow:
    """One workload group's contribution to corpus coverage."""

    name: str
    captures: int
    observed: int
    coverage_percent: float
    #: Tags only this workload observed (empty -> P603).
    unique_tags: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class CoverageReport:
    """The full cross, ready for rendering or diagnostics."""

    corpus_name: str
    instrumented: int
    covered: tuple[str, ...]
    blind_spots: tuple[BlindSpot, ...]
    unreachable: tuple[tuple[str, str], ...]  # (name, subsystem)
    unmapped: tuple[str, ...]
    workloads: tuple[WorkloadRow, ...]
    failed: tuple[tuple[str, str], ...]  # (capture basename, error)
    total_captures: int

    @property
    def reachable(self) -> int:
        return len(self.covered) + len(self.blind_spots)

    @property
    def coverage_percent(self) -> float:
        if not self.reachable:
            return 100.0
        return 100.0 * len(self.covered) / self.reachable


def _suggest(
    graph: CallGraph, name: str, by_workload: dict[str, frozenset[str]]
) -> tuple[str, int]:
    """(workload, shared neighbor count) most likely to reach *name*."""
    neighborhood = graph.tag_neighborhood(name, hops=NEIGHBOR_HOPS)
    best = ("", 0)
    for workload in sorted(by_workload):
        shared = len(neighborhood & by_workload[workload])
        if shared > best[1]:
            best = (workload, shared)
    return best


def build_coverage_report(
    corpus: CorpusCoverage,
    names: NameTable,
    graph: Optional[CallGraph] = None,
) -> CoverageReport:
    """Cross a scanned corpus with the static call graph."""
    with _TELEMETRY.span("coverage.callgraph"):
        if graph is None:
            graph = build_call_graph()
    with _TELEMETRY.span("coverage.cross"):
        universe = sorted(
            {entry.name for entry in names if entry.name != DUMMY_NAME}
        )
        reachable_tags = graph.reachable_tags()
        observed = corpus.observed_union()
        by_workload = corpus.by_workload()

        covered: list[str] = []
        blind: list[BlindSpot] = []
        unreachable: list[tuple[str, str]] = []
        unmapped: list[str] = []
        for name in universe:
            if name not in graph.by_tag:
                unmapped.append(name)
            elif name not in reachable_tags:
                unreachable.append((name, graph.subsystem(name)))
            elif name in observed:
                covered.append(name)
            else:
                workload, shared = _suggest(graph, name, by_workload)
                blind.append(BlindSpot(
                    name=name,
                    subsystem=graph.subsystem(name),
                    suggested_workload=workload,
                    shared_neighbors=shared,
                ))

        rows: list[WorkloadRow] = []
        reachable_count = len(covered) + len(blind)
        for workload in sorted(by_workload):
            tags = by_workload[workload]
            others: set[str] = set()
            for other, other_tags in by_workload.items():
                if other != workload:
                    others |= other_tags
            unique = tuple(sorted(tags - others))
            rows.append(WorkloadRow(
                name=workload,
                captures=sum(
                    1 for c in corpus.captures
                    if c.ok and c.workload == workload
                ),
                observed=len(tags),
                coverage_percent=(
                    100.0 * len(tags & reachable_tags) / reachable_count
                    if reachable_count else 100.0
                ),
                unique_tags=unique,
            ))

        return CoverageReport(
            corpus_name=Path(corpus.root).name,
            instrumented=len(universe),
            covered=tuple(covered),
            blind_spots=tuple(blind),
            unreachable=tuple(unreachable),
            unmapped=tuple(unmapped),
            workloads=tuple(rows),
            failed=tuple(
                (Path(c.path).name, c.error) for c in corpus.failed
            ),
            total_captures=len(corpus.captures),
        )


# -- diagnostics --------------------------------------------------------------


def coverage_diagnostics(
    report: CoverageReport,
    lint_report: Optional[LintReport] = None,
    graph: Optional[CallGraph] = None,
) -> LintReport:
    """The P6xx family over a built coverage report.

    P601/P602 point at the function's definition site when the call
    graph is supplied; the corpus-level findings (P603/P605) cite the
    corpus and capture instead.
    """
    lint_report = lint_report if lint_report is not None else LintReport()
    corpus_source = f"<corpus:{report.corpus_name}>"

    def _site(name: str) -> tuple[str, Optional[int]]:
        if graph is not None and name in graph.by_tag:
            node = graph.nodes[graph.by_tag[name]]
            return node.source, node.line
        return corpus_source, None

    for name, subsystem in report.unreachable:
        source, line = _site(name)
        lint_report.add(
            "P601",
            f"{name} ({subsystem}) is instrumented but no static path from "
            "any syscall/interrupt/scheduler/harness root reaches it",
            source=source,
            line=line,
        )
    for spot in report.blind_spots:
        source, line = _site(spot.name)
        suggestion = (
            f"; try the {spot.suggested_workload!r} workload "
            f"({spot.shared_neighbors} observed tag(s) nearby)"
            if spot.suggested_workload
            else ""
        )
        lint_report.add(
            "P602",
            f"{spot.name} ({spot.subsystem}) is statically reachable but "
            f"never observed in the corpus{suggestion}",
            source=source,
            line=line,
        )
    for row in report.workloads:
        if not row.unique_tags and len(report.workloads) > 1:
            lint_report.add(
                "P603",
                f"workload {row.name!r} ({row.captures} capture(s)) observes "
                f"{row.observed} tag(s), all covered by other workloads",
                source=corpus_source,
            )
    for name in report.unmapped:
        lint_report.add(
            "P604",
            f"name-file tag {name!r} does not appear in the kernel call "
            "graph: the name file and source tree disagree",
            source=corpus_source,
        )
    for basename, error in report.failed:
        lint_report.add(
            "P605",
            f"capture unusable for coverage accounting: {error}",
            source=basename,
        )
    return lint_report


# -- renderers ---------------------------------------------------------------


def _group_by_subsystem(names: list[tuple[str, str]]) -> dict[str, list[str]]:
    groups: dict[str, list[str]] = {}
    for name, subsystem in names:
        groups.setdefault(subsystem, []).append(name)
    return {key: sorted(groups[key]) for key in sorted(groups)}


def render_coverage_text(report: CoverageReport) -> str:
    """The ``repro coverage report`` text form."""
    lines = [
        f"profile coverage over corpus '{report.corpus_name}' "
        f"({report.total_captures} capture(s))",
        f"  instrumented functions: {report.instrumented}",
        f"  statically reachable:   {report.reachable}",
        f"  observed in corpus:     {len(report.covered)} "
        f"({report.coverage_percent:.1f}% of reachable)",
        "",
        "per-workload coverage:",
    ]
    if report.workloads:
        for row in report.workloads:
            lines.append(
                f"  {row.name:<14} {row.captures:>3} capture(s)  "
                f"{row.observed:>3} tag(s)  {row.coverage_percent:>5.1f}%  "
                f"{len(row.unique_tags):>3} unique"
            )
    else:
        lines.append("  (none: no capture in the corpus decoded)")
    lines.append("")
    lines.append(
        f"reachable but never observed (P602): {len(report.blind_spots)}"
    )
    spots = _group_by_subsystem(
        [(s.name, s.subsystem) for s in report.blind_spots]
    )
    for subsystem, names in spots.items():
        lines.append(f"  {subsystem}: {', '.join(names)}")
    lines.append("")
    lines.append(
        f"unreachable instrumentation (P601): {len(report.unreachable)}"
    )
    for subsystem, names in _group_by_subsystem(
        list(report.unreachable)
    ).items():
        lines.append(f"  {subsystem}: {', '.join(names)}")
    if report.unmapped:
        lines.append("")
        lines.append(
            f"name-file tags absent from the call graph (P604): "
            f"{', '.join(report.unmapped)}"
        )
    if report.failed:
        lines.append("")
        lines.append(f"failed captures (P605): {len(report.failed)}")
        for basename, error in report.failed:
            lines.append(f"  {basename}: {error}")
    return "\n".join(lines)


def render_blindspots_text(report: CoverageReport) -> str:
    """The ``repro coverage blindspots`` walkthrough."""
    lines = [
        f"blind spots: {len(report.blind_spots)} reachable instrumented "
        f"function(s) never observed in corpus '{report.corpus_name}'",
    ]
    by_subsystem: dict[str, list[BlindSpot]] = {}
    for spot in report.blind_spots:
        by_subsystem.setdefault(spot.subsystem, []).append(spot)
    for subsystem in sorted(by_subsystem):
        spots = sorted(by_subsystem[subsystem], key=lambda s: s.name)
        lines.append(f"  {subsystem} ({len(spots)}):")
        for spot in spots:
            if spot.suggested_workload:
                hint = (
                    f"try {spot.suggested_workload} "
                    f"({spot.shared_neighbors} observed tag(s) nearby)"
                )
            else:
                hint = "no covered tags nearby: needs a new workload"
            lines.append(f"    {spot.name:<18} {hint}")
    if not report.blind_spots:
        lines.append("  (none: every reachable instrumented function "
                     "was observed)")
    return "\n".join(lines)


def render_coverage_json(report: CoverageReport) -> str:
    """The stable JSON form (schema documented in the README)."""
    document = {
        "version": 1,
        "tool": "profcov",
        "corpus": report.corpus_name,
        "counts": {
            "instrumented": report.instrumented,
            "reachable": report.reachable,
            "covered": len(report.covered),
            "blind_spots": len(report.blind_spots),
            "unreachable": len(report.unreachable),
            "unmapped": len(report.unmapped),
            "captures": report.total_captures,
            "failed_captures": len(report.failed),
        },
        "coverage_percent": round(report.coverage_percent, 1),
        "workloads": [
            {
                "name": row.name,
                "captures": row.captures,
                "observed": row.observed,
                "coverage_percent": round(row.coverage_percent, 1),
                "unique_tags": list(row.unique_tags),
            }
            for row in report.workloads
        ],
        "covered": list(report.covered),
        "blind_spots": [
            {
                "name": spot.name,
                "subsystem": spot.subsystem,
                "suggested_workload": spot.suggested_workload or None,
                "shared_neighbors": spot.shared_neighbors,
            }
            for spot in report.blind_spots
        ],
        "unreachable": [
            {"name": name, "subsystem": subsystem}
            for name, subsystem in report.unreachable
        ],
        "unmapped": list(report.unmapped),
        "failed": [
            {"capture": basename, "error": error}
            for basename, error in report.failed
        ],
    }
    return json.dumps(document, indent=2)
