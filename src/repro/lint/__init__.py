"""proflint — static verification of the tag→trigger→capture chain.

McRae's pipeline silently produces garbage when its invariants break: a
duplicated tag in the name/tag file, an entry trigger with no matching
exit on some return path, a ``_ProfileBase`` that lands outside the
remapped ISA window — every one of them corrupts all downstream reports
without a single exception being raised.  ``proflint`` checks those
properties *statically*, before (or instead of) a run:

1. :mod:`repro.lint.namefile_lint` — the name/tag file artifacts;
2. :mod:`repro.lint.ast_lint` — the kernel source (Python ``ast``):
   enter/leave and spl*/splx discipline on every return path;
3. :mod:`repro.lint.stream_lint` — raw/decoded capture files;
4. :mod:`repro.lint.link_lint` — ``_ProfileBase`` resolution against the
   live bus map;
5. :mod:`repro.lint.telemetry_lint` — the profiler's own telemetry
   (unclosed spans, metric-name collisions);
6. :mod:`repro.lint.fleet_lint` — fleet ingestion plans and results
   (empty corpora, failed captures, mixed counter geometries);
7. :mod:`repro.lint.coverage_lint` — profile coverage of a capture
   corpus (dead instrumentation, blind spots, redundant workloads);
8. :mod:`repro.lint.db_lint` — profile-database integrity (schema
   drift, orphan rows, label collisions);
9. :mod:`repro.lint.live_lint` — open-ended (live wire) capture streams
   (missing end-of-stream trailers, trailer CRC disagreement, drain
   mismatches).

Every finding is a :class:`~repro.lint.diagnostics.Diagnostic` with a
stable ``P0xx``-style code and a severity; :mod:`repro.lint.runner`
orchestrates the passes and renders text or JSON reports with
CI-friendly exit codes (``python -m repro lint``).
"""

from __future__ import annotations

from repro.lint.diagnostics import (
    CODE_TABLE,
    Diagnostic,
    LintReport,
    Severity,
)
from repro.lint.ast_lint import lint_kernel_source, lint_source_text
from repro.lint.coverage_lint import lint_coverage_corpus
from repro.lint.db_lint import lint_profile_db
from repro.lint.fleet_lint import lint_fleet_plan, lint_fleet_result
from repro.lint.link_lint import lint_layout, lint_link
from repro.lint.live_lint import lint_live_drain, lint_live_stream
from repro.lint.namefile_lint import (
    lint_name_file_text,
    lint_name_files,
    lint_name_table,
)
from repro.lint.runner import (
    LintOptions,
    lint_capture_file,
    lint_paths,
    lint_self_check,
    render_json,
    render_text,
)
from repro.lint.stream_lint import (
    DEFECT_CODES,
    lint_capture_defects,
    lint_records,
    verify_capture,
)
from repro.lint.telemetry_lint import lint_telemetry

__all__ = [
    "CODE_TABLE",
    "DEFECT_CODES",
    "Diagnostic",
    "LintOptions",
    "LintReport",
    "Severity",
    "lint_capture_defects",
    "lint_capture_file",
    "lint_coverage_corpus",
    "lint_fleet_plan",
    "lint_fleet_result",
    "lint_kernel_source",
    "lint_layout",
    "lint_link",
    "lint_live_drain",
    "lint_live_stream",
    "lint_name_file_text",
    "lint_name_files",
    "lint_name_table",
    "lint_paths",
    "lint_profile_db",
    "lint_records",
    "lint_self_check",
    "lint_source_text",
    "lint_telemetry",
    "render_json",
    "render_text",
    "verify_capture",
]
