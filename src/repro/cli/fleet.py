"""``repro fleet``: ingest a directory of captures as one corpus, once
(``ingest``) or as a watched inbox (``serve``)."""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.__main__ import (
    add_telemetry_flags,
    make_progress,
    non_negative_int,
    stderr,
)
from repro.instrument.namefile import NameTable


def cmd_fleet_ingest(args: argparse.Namespace, out: Callable) -> int:
    """``repro fleet ingest DIR``: one-shot parallel corpus ingestion.

    Exit codes: 0 — every capture ingested; 1 — at least one capture
    failed (the rest still merged); 2 — the root is unusable or the
    plan is empty.  Everything on stdout is deterministic — worker
    counts, rates and timing go to stderr — so two runs with different
    ``--jobs`` diff clean, which is exactly what the CI smoke job does.
    """
    import contextlib
    import json

    from repro.atomicio import open_atomic
    from repro.fleet.ingest import (
        FleetError,
        format_fleet_summary,
        ingest_fleet,
        plan_fleet,
    )
    from repro.lint.diagnostics import LintReport
    from repro.lint.fleet_lint import lint_fleet_plan, lint_fleet_result
    from repro.lint.runner import render_text

    names = NameTable.read(*args.names)
    try:
        plan = plan_fleet(args.root)
    except FleetError as exc:
        report = LintReport()
        report.add("P506", str(exc), source=str(args.root))
        out(render_text(report))
        return 2
    plan_report = lint_fleet_plan(plan)
    for diagnostic in plan_report:
        out(diagnostic.format())
    if not len(plan):
        return 2
    # Opened before the ingest, so a manifest path that cannot be written
    # fails before any work; the file appears when the block ends.
    target = open_atomic(args.manifest) if args.manifest else contextlib.nullcontext()
    with target as manifest:
        progress = make_progress(args, len(plan), label="fleet")
        try:
            result = ingest_fleet(
                plan,
                names,
                jobs=args.jobs,
                salvage=args.salvage,
                progress=progress.update,
            )
        finally:
            progress.finish()
        result_report = lint_fleet_result(result)
        for diagnostic in result_report:
            out(diagnostic.format())
        out(format_fleet_summary(result, limit=args.summary_limit))
        if manifest is not None:
            manifest.write(json.dumps(result.manifest(timings=args.timings), indent=1))
            manifest.write("\n")
    if args.manifest:
        # Stderr, like every operational line: stdout stays a pure
        # function of the corpus so --jobs runs diff byte-clean.
        print(f"manifest written to {args.manifest}", file=sys.stderr)
    rate = (
        f", {len(plan) / result.elapsed_s:.1f} captures/s"
        if result.elapsed_s > 0
        else ""
    )
    print(
        f"fleet ingest: {result.jobs} worker(s), "
        f"{result.elapsed_s:.2f}s{rate}",
        file=sys.stderr,
    )
    return 1 if result.failed else 0


def cmd_fleet_serve(args: argparse.Namespace, out: Callable) -> int:
    """``repro fleet serve DIR``: watch an inbox, publish /metrics.

    Runs until SIGINT/SIGTERM (or ``--max-polls``); on the way out the
    in-flight capture drains, the final merged summary prints to
    stdout, and the exit code is 0.
    """
    from repro.fleet.serve import FleetServer

    server = FleetServer(
        args.root,
        NameTable.read(*args.names),
        jobs=args.jobs,
        salvage=args.salvage,
        port=args.port,
        poll_s=args.poll,
        max_polls=args.max_polls,
        log=stderr,
    )
    code = server.run()
    out(server.final_summary(limit=args.summary_limit))
    return code


def arguments(fleet: argparse.ArgumentParser) -> None:
    fleet.description = (
        "Fleet-scale ingestion: decode and summarise every "
        "capture under a directory on a multiprocessing worker pool, "
        "merge the results deterministically, and record each "
        "capture's metrics in the telemetry registry."
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    def _fleet_common(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument("root", help="directory of capture files")
        sub_parser.add_argument(
            "--names", action="append", required=True,
            help="name/tag file(s) to decode with (repeatable, concatenated)",
        )
        sub_parser.add_argument(
            "--jobs", type=int, default=None, metavar="N",
            help="worker processes (default: the machine's CPU count)",
        )
        sub_parser.add_argument(
            "--salvage", action="store_true",
            help="route damaged captures through the salvaging decoder "
            "instead of failing them",
        )
        sub_parser.add_argument("--summary-limit", type=non_negative_int, default=12)

    fleet_ingest = fleet_sub.add_parser(
        "ingest",
        help="one-shot: ingest every capture under DIR and print the "
        "merged summary",
        description="Plan the corpus (path-sorted, header-probed through "
        "the (path, mtime, size) cache), decode each capture on the "
        "columnar path across --jobs workers, and fold the per-capture "
        "summaries in plan order — the merged report is byte-identical "
        "for every worker count.  Exit codes: 0 all ingested, 1 some "
        "captures failed, 2 unusable root or empty plan.",
    )
    _fleet_common(fleet_ingest)
    fleet_ingest.add_argument(
        "--manifest", default=None, metavar="FILE",
        help="write the per-capture JSON manifest here",
    )
    fleet_ingest.add_argument(
        "--timings", action="store_true",
        help="include per-capture worker wall time in the manifest "
        "(nondeterministic; off by default so manifests diff clean)",
    )
    add_telemetry_flags(fleet_ingest)
    fleet_ingest.set_defaults(func=cmd_fleet_ingest)

    fleet_serve = fleet_sub.add_parser(
        "serve",
        help="long-running: watch DIR as an inbox and publish Prometheus "
        "metrics over HTTP",
        description="Poll DIR for new or changed capture files, ingest "
        "them as they appear, and serve the fleet metrics at "
        "http://127.0.0.1:PORT/metrics.  SIGINT/SIGTERM drains the "
        "in-flight capture, prints the final merged summary to stdout "
        "and exits 0.",
    )
    _fleet_common(fleet_serve)
    fleet_serve.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="metrics HTTP port (default 0: pick an ephemeral port and "
        "print it to stderr)",
    )
    fleet_serve.add_argument(
        "--poll", type=float, default=1.0, metavar="SECONDS",
        help="seconds between inbox rescans (default 1.0)",
    )
    fleet_serve.add_argument(
        "--max-polls", type=int, default=None, metavar="N",
        help="exit after N polls (CI smoke runs; default: run until "
        "signalled)",
    )
    fleet_serve.set_defaults(func=cmd_fleet_serve)
