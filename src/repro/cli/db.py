"""``repro db``: the profile corpus database — ingest captures, query
per-function rows, diff two pools of runs, check integrity."""

from __future__ import annotations

import argparse
from typing import Callable

from repro.__main__ import add_telemetry_flags, non_negative_int
from repro.analysis.summary import FUNCTION_SORTS
from repro.instrument.namefile import NameTable


def cmd_db_ingest(args: argparse.Namespace, out: Callable) -> int:
    """``repro db ingest PATH...``: decode captures into the corpus db.

    Exit codes: 0 — every capture ingested (or already present);
    1 — at least one capture failed (the rest still landed); 2 — no
    captures found or the database is unusable.
    """
    from repro.db.ingest import ingest_paths
    from repro.db.query import run_count
    from repro.db.schema import connect

    names = NameTable.read(*args.names)
    conn = connect(args.db)
    try:
        results = ingest_paths(
            conn,
            args.paths,
            names,
            salvage=args.salvage,
            workload=args.workload,
        )
        for result in results:
            if result.status == "failed":
                out(f"failed    {result.path}: {result.error}")
            elif result.status == "duplicate":
                out(f"duplicate {result.path} ({result.fingerprint[:12]})")
            else:
                out(
                    f"{result.status:<9} {result.path} "
                    f"({result.fingerprint[:12]}) {result.workload}: "
                    f"{result.functions} function(s), "
                    f"{result.records} event(s)"
                )
        added = sum(r.status in ("added", "salvaged") for r in results)
        duplicates = sum(r.status == "duplicate" for r in results)
        failed = sum(r.status == "failed" for r in results)
        out(
            f"db ingest: {added} added, {duplicates} duplicate(s), "
            f"{failed} failed; {run_count(conn)} run(s) in {args.db}"
        )
        return 1 if failed else 0
    finally:
        conn.close()


def cmd_db_runs(args: argparse.Namespace, out: Callable) -> int:
    """``repro db runs``: the run catalog (the thing diff selectors name)."""
    from repro.db.query import list_runs
    from repro.db.render import render_runs_json, render_runs_text
    from repro.db.schema import connect

    conn = connect(args.db, read_only=True)
    try:
        runs = list_runs(conn, workload=args.workload, label=args.label)
    finally:
        conn.close()
    out(render_runs_json(runs) if args.json else render_runs_text(runs))
    return 0


def cmd_db_query(args: argparse.Namespace, out: Callable) -> int:
    """``repro db query``: filter/sort per-function rows across the corpus."""
    from repro.db.query import query_functions
    from repro.db.render import render_query_json, render_query_text
    from repro.db.schema import connect

    conn = connect(args.db, read_only=True)
    try:
        rows = query_functions(
            conn,
            workload=args.workload,
            label=args.label,
            function=args.function,
            min_pct_net=args.min_pct_net,
            sort=args.sort,
            limit=args.limit,
        )
    finally:
        conn.close()
    out(render_query_json(rows) if args.json else render_query_text(rows))
    return 0


def cmd_db_diff(args: argparse.Namespace, out: Callable) -> int:
    """``repro db diff BASELINE CANDIDATE``: the regression gate.

    Exit codes: 0 — no movement beyond noise; 1 — meaningful but benign
    movement; 2 — a confirmed regression (or unusable selectors/db).
    """
    import warnings as _warnings

    from repro.db.diff import DiffThresholds, diff_runs
    from repro.db.render import render_diff_json, render_diff_text
    from repro.db.schema import connect

    baseline = args.baseline
    if args.baseline_label:
        if args.candidate is not None:
            raise ValueError(
                "db diff: give either BASELINE CANDIDATE positionally "
                "or --baseline-label, not both"
            )
        baseline, candidate = f"label:{args.baseline_label}", args.baseline
    else:
        candidate = args.candidate
    if baseline is None or candidate is None:
        raise ValueError("db diff: need a baseline and a candidate selector")
    thresholds = DiffThresholds(
        sigma=args.sigma,
        min_rel=args.min_rel,
        singleton_rel=args.singleton_rel,
        min_abs_us=args.min_abs_us,
    )
    conn = connect(args.db, read_only=True)
    try:
        with _warnings.catch_warnings():
            # The mismatch is reported in the rendering itself.
            _warnings.simplefilter("ignore")
            report = diff_runs(conn, baseline, candidate, thresholds=thresholds)
    finally:
        conn.close()
    if args.json:
        out(render_diff_json(report, limit=args.limit))
    else:
        out(render_diff_text(report, limit=10 if args.limit is None else args.limit))
    return report.exit_code


def cmd_db_check(args: argparse.Namespace, out: Callable) -> int:
    """``repro db check``: the P7xx integrity pass over one database."""
    from repro.lint.db_lint import lint_profile_db
    from repro.lint.runner import render_json, render_text

    report = lint_profile_db(args.db)
    out(render_json(report) if args.json else render_text(report))
    return report.exit_code


def arguments(db: argparse.ArgumentParser) -> None:
    db.description = (
        "A sqlite-backed corpus of run summaries: ingest "
        "captures (idempotently, keyed by content fingerprint), slice "
        "per-function rows with composable filters, and diff two pools "
        "of runs with a statistical regression gate."
    )
    db_sub = db.add_subparsers(dest="db_command", required=True)

    def _db_common(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--db", required=True, metavar="FILE",
            help="the corpus database file (created on first ingest)",
        )

    db_ingest = db_sub.add_parser(
        "ingest",
        help="decode capture files/directories into the corpus",
        description="Decode each capture on the columnar fast path and "
        "persist its per-function summary as one run, keyed by the "
        "SHA-256 of the file bytes — re-ingesting the same corpus "
        "changes nothing.  Exit codes: 0 all ingested or already "
        "present, 1 some captures failed, 2 nothing found.",
    )
    db_ingest.add_argument(
        "paths", nargs="+",
        help="capture files and/or directories (swept for *.mpf)",
    )
    _db_common(db_ingest)
    db_ingest.add_argument(
        "--names", action="append", required=True,
        help="name/tag file(s) to decode with (repeatable, concatenated)",
    )
    db_ingest.add_argument(
        "--workload", default=None, metavar="TAG",
        help="override the workload tag parsed from each capture label",
    )
    db_ingest.add_argument(
        "--salvage", action="store_true",
        help="route damaged captures through the salvaging decoder "
        "instead of failing them",
    )
    add_telemetry_flags(db_ingest)
    db_ingest.set_defaults(func=cmd_db_ingest)

    db_runs = db_sub.add_parser(
        "runs",
        help="list ingested runs (fingerprints, labels, workloads)",
    )
    _db_common(db_runs)
    db_runs.add_argument("--workload", default=None, help="filter by workload tag")
    db_runs.add_argument("--label", default=None, help="filter by capture label")
    db_runs.add_argument(
        "--json", action="store_true",
        help="emit the JSON catalog (stable schema) instead of text",
    )
    db_runs.set_defaults(func=cmd_db_runs)

    db_query = db_sub.add_parser(
        "query",
        help="filter/sort per-function rows across the corpus",
        description="Per-function rows joined with their run, filtered "
        "by workload/label, a shell glob on the function name and a "
        "%net floor, sorted by any numeric column.  Output order is a "
        "pure function of the database contents.",
    )
    _db_common(db_query)
    db_query.add_argument("--workload", default=None, help="filter by workload tag")
    db_query.add_argument("--label", default=None, help="filter by capture label")
    db_query.add_argument(
        "--function", default=None, metavar="GLOB",
        help="shell glob on the function name (vm_*, *intr*)",
    )
    db_query.add_argument(
        "--min-pct-net", type=float, default=None, metavar="PCT",
        help="drop rows below this %%net floor",
    )
    db_query.add_argument(
        "--sort", choices=sorted(FUNCTION_SORTS), default="net",
        help="sort column (default net)",
    )
    db_query.add_argument(
        "--limit", type=non_negative_int, default=None, metavar="N",
        help="print at most N rows",
    )
    db_query.add_argument(
        "--json", action="store_true",
        help="emit the JSON rows (stable schema) instead of text",
    )
    add_telemetry_flags(db_query)
    db_query.set_defaults(func=cmd_db_query)

    db_diff = db_sub.add_parser(
        "diff",
        help="diff two pools of runs with a statistical regression gate",
        description="Each selector (a fingerprint prefix, a label, a "
        "workload tag, or label:/workload:/run: explicitly) resolves to "
        "a pool of runs; repeated runs pool into a noise estimate and a "
        "function must move beyond --sigma standard errors AND the "
        "relative floor to count.  Exit codes: 0 no movement beyond "
        "noise, 1 benign movement, 2 confirmed regression.",
    )
    db_diff.add_argument(
        "baseline", nargs="?", default=None,
        help="baseline selector (or the candidate when --baseline-label "
        "is given)",
    )
    db_diff.add_argument(
        "candidate", nargs="?", default=None, help="candidate selector"
    )
    _db_common(db_diff)
    db_diff.add_argument(
        "--baseline-label", default=None, metavar="LABEL",
        help="sugar: use label:LABEL as the baseline and the single "
        "positional as the candidate",
    )
    db_diff.add_argument(
        "--sigma", type=float, default=3.0,
        help="standard errors a pooled change must clear (default 3.0)",
    )
    db_diff.add_argument(
        "--min-rel", type=float, default=0.05,
        help="relative-change floor alongside the z-test (default 0.05)",
    )
    db_diff.add_argument(
        "--singleton-rel", type=float, default=0.20,
        help="relative threshold when either side is a single run "
        "(default 0.20)",
    )
    db_diff.add_argument(
        "--min-abs-us", type=int, default=25,
        help="absolute net-time floor in microseconds (default 25)",
    )
    db_diff.add_argument(
        "--limit", type=non_negative_int, default=None, metavar="N",
        help="rows in the delta table (text default 10; JSON default all)",
    )
    db_diff.add_argument(
        "--json", action="store_true",
        help="emit the JSON report (stable schema) instead of text",
    )
    add_telemetry_flags(db_diff)
    db_diff.set_defaults(func=cmd_db_diff)

    db_check = db_sub.add_parser(
        "check",
        help="P7xx integrity pass: schema drift, orphan rows, label "
        "collisions",
    )
    _db_common(db_check)
    db_check.add_argument(
        "--json", action="store_true",
        help="emit the JSON report (stable schema) instead of text",
    )
    db_check.set_defaults(func=cmd_db_check)
