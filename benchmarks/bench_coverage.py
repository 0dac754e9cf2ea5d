"""COVERAGE — the static cross and the hunt's closed loop, measured.

ROADMAP item 2's "which code never ran?" question, as numbers:

* extracting the static call graph of the whole instrumented kernel is
  an AST pass, so it must stay interactive (well under a second) — the
  coverage report pays it once per invocation;
* the full cross over the seed corpus (two golden v2 captures) lands on
  the known accounting: 135 instrumented, 128 reachable, 98 covered
  (76.6%), 30 blind spots, 7 dead functions;
* one fixed-seed hunt round strictly increases coverage over the seed
  corpus — the before/after pair quoted in EXPERIMENTS.md.
"""

from __future__ import annotations

import pathlib
import shutil

from paperbench import once

from repro.coverage.callgraph import build_call_graph
from repro.coverage.corpus import scan_corpus
from repro.coverage.hunt import hunt_coverage
from repro.coverage.report import build_coverage_report
from repro.instrument.namefile import NameTable

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"
SEED_CAPTURES = ("figure3_network_v2.mpf", "figure5_forkexec_v2.mpf")

#: Ceiling for the whole-kernel AST extraction; the pass takes ~100 ms
#: on a laptop, so 5 s only trips on a real complexity regression.
GRAPH_BUDGET_S = 5.0


def _seed_corpus(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    for name in SEED_CAPTURES:
        shutil.copy(GOLDEN / name, root / name)
    return root


def test_call_graph_extraction_is_interactive(benchmark, comparison):
    graph = once(benchmark, build_call_graph)
    elapsed = benchmark.stats.stats.mean
    comparison.row("graph extraction", f"< {GRAPH_BUDGET_S:.0f} s",
                   f"{elapsed * 1000:.0f} ms")
    comparison.row("graph nodes", "-", len(graph.nodes))
    comparison.row("instrumented tags", 135, len(graph.by_tag))
    assert elapsed < GRAPH_BUDGET_S
    assert len(graph.by_tag) == 135
    assert len(graph.reachable_tags()) == 128


def test_seed_corpus_cross_accounting(benchmark, comparison, tmp_path):
    names = NameTable.read(GOLDEN / "case_study.tags")
    root = _seed_corpus(tmp_path)
    graph = build_call_graph()

    def cross():
        return build_coverage_report(
            scan_corpus(root, names), names, graph=graph
        )

    report = once(benchmark, cross)
    comparison.row("covered functions", 98, len(report.covered))
    comparison.row("coverage of reachable", "76.6%",
                   f"{report.coverage_percent:.1f}%")
    comparison.row("blind spots (P602)", 30, len(report.blind_spots))
    comparison.row("dead instrumentation (P601)", 7, len(report.unreachable))
    assert len(report.covered) == 98
    assert len(report.blind_spots) == 30
    assert len(report.unreachable) == 7
    assert not report.unmapped


def test_one_hunt_round_grows_coverage(benchmark, comparison, tmp_path):
    names = NameTable.read(GOLDEN / "case_study.tags")
    root = _seed_corpus(tmp_path)
    baseline = scan_corpus(root, names).observed_union()

    def hunt():
        return hunt_coverage(baseline, seed=1, rounds=1, candidates=2)

    result = once(benchmark, hunt)
    comparison.row("baseline coverage", "-", len(result.baseline))
    comparison.row("after one round", "> baseline", len(result.covered))
    comparison.row("tags gained", ">= 1", len(result.gained))
    comparison.row("winning run", "-",
                   result.steps[0].label if result.steps else "(none)")
    assert result.improved
    assert len(result.covered) > len(result.baseline)
