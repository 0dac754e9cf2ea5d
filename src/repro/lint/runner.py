"""Orchestration and reporting for ``python -m repro lint``.

Maps artifacts to passes: ``--names`` files go through the name/tag
lint, positional capture files through the stream verifier (decoded
with the same name files; an open-ended capture the strict reader
rejects also gets its stream fault's P8xx code), and self-check mode —
the default when no artifacts are given — builds the case-study image
*without running any workload* and lints its name table, the kernel
source (AST pass) and the live ``_ProfileBase`` link.

Reporters: classic compiler-style text (one line per finding plus a
summary), or a JSON document with a stable schema for CI tooling::

    {
      "version": 1,
      "tool": "proflint",
      "counts": {"error": 0, "warning": 0, "info": 0},
      "ok": true,
      "diagnostics": [
        {"code": "P002", "severity": "error", "title": "...",
         "message": "...", "source": "run.tags", "line": 7, "index": null}
      ]
    }

Exit codes follow the CI convention: 0 clean (warnings allowed),
1 at least one error-severity diagnostic, 2 bad invocation.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.instrument.namefile import NameFileError, NameTable, parse_line
from repro.lint.ast_lint import lint_kernel_source
from repro.lint.diagnostics import CODE_TABLE, LintReport
from repro.lint.link_lint import lint_link
from repro.lint.namefile_lint import lint_name_files, lint_name_table
from repro.lint.stream_lint import (
    STREAM_DEFECT_CODES,
    lint_capture_defects,
    lint_records,
)
from repro.lint.telemetry_lint import lint_telemetry
from repro.profiler.ram import DEFAULT_DEPTH
from repro.profiler.upload import read_capture, read_capture_meta, salvage_capture
from repro.telemetry import TELEMETRY as _TELEMETRY


@dataclasses.dataclass
class LintOptions:
    """What to lint and how."""

    #: Capture files for the stream verifier.
    captures: Sequence[Union[str, Path]] = ()
    #: Name/tag files: linted themselves and used to decode captures.
    names: Sequence[Union[str, Path]] = ()
    #: Trace-RAM depth for the overflow heuristic (None disables it).
    ram_depth: Optional[int] = DEFAULT_DEPTH
    #: Run the kernel-source AST pass.
    kernel_ast: bool = False
    #: Build the case study (no workload) and lint names/link against it.
    self_check: bool = False
    #: Capture-corpus directory for the coverage pass (None disables it).
    coverage_corpus: Optional[Union[str, Path]] = None
    #: Profile database file for the P7xx integrity pass (None disables it).
    db: Optional[Union[str, Path]] = None


def lenient_name_table(paths: Sequence[Union[str, Path]]) -> NameTable:
    """Best-effort table for decoding: skip unparsable lines, first
    claim wins on conflicts.  The strict defects are already reported by
    the name-file pass; decoding should still proceed so the stream
    verifier can run."""
    table = NameTable()
    for path in paths:
        for line in Path(path).read_text().splitlines():
            try:
                entry = parse_line(line)
            except NameFileError:
                continue
            if entry is None:
                continue
            try:
                table.add(entry)
            except NameFileError:
                continue
    return table


def lint_capture_file(
    path: Union[str, Path],
    names: NameTable,
    ram_depth: Optional[int] = DEFAULT_DEPTH,
    report: Optional[LintReport] = None,
) -> LintReport:
    """Run the stream verifier over one capture file, read once.

    A file the strict reader rejects gets a single ``P200``.  If its
    header still reads strictly and marks an open-ended capture, the
    salvager then names the stream fault with its P801–P803 code; a
    capture the strict reader accepts has none.
    """
    report = report if report is not None else LintReport()
    source = str(path)
    try:
        records, meta = read_capture(path)
    except OSError as exc:
        report.add("P200", f"cannot read capture: {exc}", source=source)
        return report
    except ValueError as exc:
        report.add("P200", f"cannot read capture: {exc}", source=source)
        try:
            streamed = read_capture_meta(path).streamed
            defects = salvage_capture(path).defects if streamed else []
        except (OSError, ValueError):
            return report
        return lint_capture_defects(
            [d for d in defects if STREAM_DEFECT_CODES.get(d.kind, "").startswith("P8")],
            source=source,
            report=report,
            streamed=True,
        )
    if meta.version == 1:
        report.add(
            "P208",
            "MPF1 carries no capture metadata: counter width/rate, overflow "
            "flag and label assumed stock",
            source=source,
        )
    return lint_records(
        records,
        names,
        source=source,
        width_bits=meta.counter_width_bits,
        ram_depth=ram_depth,
        report=report,
        overflowed=meta.overflowed,
    )


def lint_self_check(report: Optional[LintReport] = None) -> LintReport:
    """Lint the shipped configuration end to end, without a workload.

    Builds the case-study rig (instrumentation pass + boot, no capture),
    then checks the three static legs of the chain: the generated name
    table against the functions the compiler instrumented, the kernel
    source discipline, and the live ``_ProfileBase`` resolution.
    """
    from repro.system import build_case_study

    report = report if report is not None else LintReport()
    system = build_case_study()
    lint_name_table(
        system.names,
        instrumented=system.image.instrumented,
        source="<case-study names>",
        report=report,
    )
    lint_kernel_source(report=report)
    lint_link(system.kernel, source="<case-study link>", report=report)
    lint_telemetry(_TELEMETRY, source="<telemetry>", report=report)
    return report


# -- the pass chain ----------------------------------------------------------


def _run_namefile_pass(options: LintOptions, report: LintReport) -> None:
    lint_name_files(options.names, report=report)


def _run_stream_pass(options: LintOptions, report: LintReport) -> None:
    table = lenient_name_table(options.names)
    for capture in options.captures:
        lint_capture_file(
            capture,
            table,
            ram_depth=options.ram_depth,
            report=report,
        )


def _run_kernel_ast_pass(options: LintOptions, report: LintReport) -> None:
    lint_kernel_source(report=report)


def _run_self_check_pass(options: LintOptions, report: LintReport) -> None:
    lint_self_check(report=report)


def _run_coverage_pass(options: LintOptions, report: LintReport) -> None:
    from repro.lint.coverage_lint import lint_coverage_corpus

    names = lenient_name_table(options.names)
    lint_coverage_corpus(options.coverage_corpus, names, report=report)


def _run_db_pass(options: LintOptions, report: LintReport) -> None:
    from repro.lint.db_lint import lint_profile_db

    lint_profile_db(options.db, report=report)


def lint_paths(options: LintOptions) -> LintReport:
    """Run every pass the options select, in the fixed chain order
    namefile, stream, kernel_ast, self_check, coverage, db.

    Each pass runs under a telemetry span (``lint.pass.<pass>``).  The
    ``lint`` command takes no ``--telemetry`` flag, so the spans are read
    in process, with :data:`repro.telemetry.TELEMETRY` enabled; disabled,
    they are no-ops.  The coverage and db passes import their subsystems
    only when selected.
    """
    chain: tuple[tuple[str, bool, Callable[[LintOptions, LintReport], None]], ...] = (
        ("namefile", bool(options.names), _run_namefile_pass),
        ("stream", bool(options.captures), _run_stream_pass),
        ("kernel_ast", options.kernel_ast, _run_kernel_ast_pass),
        ("self_check", options.self_check, _run_self_check_pass),
        ("coverage", options.coverage_corpus is not None, _run_coverage_pass),
        ("db", options.db is not None, _run_db_pass),
    )
    report = LintReport()
    for name, selected, run in chain:
        if selected:
            with _TELEMETRY.span(f"lint.pass.{name}"):
                run(options, report)
    return report


# -- reporters ---------------------------------------------------------------


def render_text(report: LintReport, verbose_clean: bool = True) -> str:
    """Compiler-style text report with a trailing summary line."""
    lines = [diagnostic.format() for diagnostic in report]
    summary = (
        f"proflint: {report.error_count} error(s), "
        f"{report.warning_count} warning(s), {report.info_count} info"
    )
    if len(report) == 0 and verbose_clean:
        lines.append("proflint: clean — the tag->trigger->capture chain checks out")
    else:
        lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """The stable JSON report (schema documented in the module docstring)."""
    document = {
        "version": 1,
        "tool": "proflint",
        "counts": {
            "error": report.error_count,
            "warning": report.warning_count,
            "info": report.info_count,
        },
        "ok": report.ok,
        "diagnostics": [
            {
                "code": d.code,
                "severity": d.severity.value,
                "title": d.title,
                "message": d.message,
                "source": d.source,
                "line": d.line,
                "index": d.index,
            }
            for d in report
        ],
    }
    return json.dumps(document, indent=2)


def code_table_markdown() -> str:
    """The diagnostic-code table as markdown (README generator)."""
    lines = ["| code | severity | meaning |", "|------|----------|---------|"]
    for code, (severity, title) in sorted(CODE_TABLE.items()):
        lines.append(f"| {code} | {severity.value} | {title} |")
    return "\n".join(lines)
