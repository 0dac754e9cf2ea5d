"""``repro coverage``: static reachability of the instrumented kernel
crossed with the tags a capture corpus observed."""

from __future__ import annotations

import argparse
from typing import Callable

from repro.__main__ import add_telemetry_flags, positive_int, stderr
from repro.instrument.namefile import NameTable


def _coverage_report(args: argparse.Namespace):
    """Shared scan+cross for the coverage report/blindspots commands:
    ``(report, graph)``."""
    from repro.coverage.callgraph import build_call_graph
    from repro.coverage.corpus import scan_corpus
    from repro.coverage.report import build_coverage_report

    names = NameTable.read(*args.names)
    corpus = scan_corpus(args.root, names, jobs=args.jobs)
    graph = build_call_graph()
    return build_coverage_report(corpus, names, graph=graph), graph


def cmd_coverage_report(args: argparse.Namespace, out: Callable) -> int:
    """``repro coverage report DIR``: the full coverage cross.

    Exit codes: 0 — accounting complete (blind spots and dead
    instrumentation are warnings); 1 — error-severity findings (P604
    namefile/source disagreement, P605 unusable captures); 2 — the
    corpus root is unusable.
    """
    from repro.coverage.report import (
        coverage_diagnostics,
        render_coverage_json,
        render_coverage_text,
    )

    report, graph = _coverage_report(args)
    out(render_coverage_json(report) if args.json
        else render_coverage_text(report))
    return coverage_diagnostics(report, graph=graph).exit_code


def cmd_coverage_blindspots(args: argparse.Namespace, out: Callable) -> int:
    """``repro coverage blindspots DIR``: uncovered-but-reachable, with hints."""
    from repro.coverage.report import (
        coverage_diagnostics,
        render_blindspots_text,
        render_coverage_json,
    )

    report, graph = _coverage_report(args)
    out(render_coverage_json(report) if args.json
        else render_blindspots_text(report))
    return coverage_diagnostics(report, graph=graph).exit_code


def cmd_coverage_hunt(args: argparse.Namespace, out: Callable) -> int:
    """``repro coverage hunt DIR``: coverage-guided workload search.

    Seeds the greedy driver with the corpus's observed-tag union and
    perturbs workload parameters toward new tags.  Deterministic for a
    fixed ``--seed``.  Exit codes: 0 — coverage increased (or the
    corpus already observes every reachable tag); 1 — no candidate
    found a new tag; 2 — the corpus root is unusable.
    """
    from repro.coverage.callgraph import build_call_graph
    from repro.coverage.corpus import scan_corpus
    from repro.coverage.hunt import hunt_coverage, render_hunt_json, render_hunt_text

    names = NameTable.read(*args.names)
    baseline = scan_corpus(args.root, names, jobs=args.jobs).observed_union()
    result = hunt_coverage(
        baseline,
        seed=args.seed,
        rounds=args.rounds,
        candidates=args.candidates,
        log=stderr if args.verbose else None,
    )
    out(render_hunt_json(result) if args.json else render_hunt_text(result))
    if result.improved:
        return 0
    reachable = build_call_graph().reachable_tags()
    return 0 if reachable <= baseline else 1


def arguments(coverage: argparse.ArgumentParser) -> None:
    coverage.description = (
        "Cross the static call graph of the instrumented "
        "kernel (syscall/interrupt/scheduler/harness roots) with the "
        "observed-tag sets of a capture corpus: coverage percentages per "
        "workload, blind spots with suggested workloads, dead "
        "instrumentation, and a coverage-guided workload hunter."
    )
    coverage_sub = coverage.add_subparsers(dest="coverage_command", required=True)

    def _coverage_common(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument("root", help="directory of capture files")
        sub_parser.add_argument(
            "--names", action="append", required=True,
            help="name/tag file(s) to decode with (repeatable, concatenated)",
        )
        sub_parser.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes for the corpus scan (default 1; the "
            "report is byte-identical for every worker count)",
        )
        sub_parser.add_argument(
            "--json", action="store_true",
            help="emit the JSON report (stable schema) instead of text",
        )

    coverage_report = coverage_sub.add_parser(
        "report",
        help="the full coverage cross over a capture corpus",
        description="Classify every instrumented function exactly once — "
        "covered, blind spot (reachable but never observed), or dead "
        "(statically unreachable) — and break coverage down per "
        "workload.  Exit codes: 0 accounting complete, 1 error-severity "
        "findings (P604/P605), 2 unusable corpus root.",
    )
    _coverage_common(coverage_report)
    add_telemetry_flags(coverage_report)
    coverage_report.set_defaults(func=cmd_coverage_report)

    coverage_blind = coverage_sub.add_parser(
        "blindspots",
        help="reachable-but-never-observed functions, with workload hints",
        description="The blind-spot walkthrough: every reachable "
        "instrumented function the corpus never observed, grouped by "
        "subsystem, each with the workload whose observed tags sit "
        "closest in the call graph.  Exit codes as for 'report'.",
    )
    _coverage_common(coverage_blind)
    coverage_blind.set_defaults(func=cmd_coverage_blindspots)

    coverage_hunt = coverage_sub.add_parser(
        "hunt",
        help="coverage-guided workload search over the registry",
        description="Seeded greedy driver: each round draws candidate "
        "workload configurations (fresh samples plus perturbations of "
        "the best so far), runs each on a fresh simulated system, and "
        "keeps the one observing the most tags beyond the corpus "
        "baseline.  Deterministic for a fixed --seed.  Exit codes: "
        "0 coverage increased (or already full), 1 no improvement, "
        "2 unusable corpus root.",
    )
    _coverage_common(coverage_hunt)
    coverage_hunt.add_argument(
        "--seed", type=int, default=0,
        help="PRNG seed for the candidate draws (default 0)",
    )
    coverage_hunt.add_argument(
        "--rounds", type=positive_int, default=2,
        help="greedy rounds (default 2)",
    )
    coverage_hunt.add_argument(
        "--candidates", type=positive_int, default=4,
        help="candidate configurations per round (default 4)",
    )
    coverage_hunt.add_argument(
        "--verbose", action="store_true",
        help="log every candidate evaluation to stderr",
    )
    add_telemetry_flags(coverage_hunt)
    coverage_hunt.set_defaults(func=cmd_coverage_hunt)
