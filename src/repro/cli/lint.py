"""``repro lint``: proflint, the static check of the tag->trigger->capture
chain."""

from __future__ import annotations

import argparse
from typing import Callable

from repro.profiler.ram import DEFAULT_DEPTH


def cmd_lint(args: argparse.Namespace, out: Callable) -> int:
    from repro.lint.runner import LintOptions, lint_paths, render_json, render_text

    if args.captures and not args.names:
        raise ValueError("capture files need at least one --names file to decode with")
    if args.coverage_corpus and not args.names:
        raise ValueError("--coverage-corpus needs at least one --names file")
    explicit = bool(
        args.captures or args.names or args.kernel_ast
        or args.coverage_corpus or args.db
    )
    options = LintOptions(
        captures=args.captures,
        names=args.names or (),
        ram_depth=args.ram_depth or None,
        kernel_ast=args.kernel_ast,
        self_check=args.self_check or not explicit,
        coverage_corpus=args.coverage_corpus,
        db=args.db,
    )
    report = lint_paths(options)
    out(render_json(report) if args.json else render_text(report))
    return report.exit_code


def arguments(lint: argparse.ArgumentParser) -> None:
    lint.description = (
        "Static verification of the profiling chain — no "
        "workload runs.  With no arguments, performs the self-check: "
        "build the case-study image, then lint its name table, the "
        "kernel source discipline, and the _ProfileBase link."
    )
    lint.add_argument(
        "captures", nargs="*",
        help="capture file(s) for the stream verifier (needs --names)",
    )
    lint.add_argument(
        "--names", action="append", default=None,
        help="name/tag file(s): linted themselves and used to decode "
        "captures (repeatable, checked as a concatenation)",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="emit the JSON report (stable schema) instead of text",
    )
    lint.add_argument(
        "--ram-depth", type=int, default=DEFAULT_DEPTH, metavar="N",
        help=f"trace-RAM depth for the overflow check (default "
        f"{DEFAULT_DEPTH}; 0 disables)",
    )
    lint.add_argument(
        "--kernel-ast", action="store_true",
        help="lint kernel sources for enter/leave and spl discipline",
    )
    lint.add_argument(
        "--self-check", action="store_true",
        help="lint the shipped case-study configuration (default when "
        "no other artifacts are given)",
    )
    lint.add_argument(
        "--coverage-corpus", default=None, metavar="DIR",
        help="run the profile-coverage pass (P6xx) over a directory of "
        "capture files (needs --names)",
    )
    lint.add_argument(
        "--db", default=None, metavar="FILE",
        help="run the profile-database integrity pass (P7xx) over a "
        "corpus database file",
    )
    lint.set_defaults(func=cmd_lint)
