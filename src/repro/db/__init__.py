"""The profile corpus database: persist, query, and diff run summaries.

The paper closes on "accurate before and after measurements may be made
to test the success of such changes" — this package makes that a
standing capability instead of a one-shot script.  ``repro db ingest``
decodes captures on the columnar leg and persists each run's function
summary into sqlite keyed by content fingerprint (idempotent by
construction); ``repro db query`` slices the corpus with composable
filters; ``repro db diff`` pools repeated runs per label into a noise
estimate and flags statistically meaningful per-function regressions
with a CI-gateable exit code.

Modules:

* :mod:`repro.db.schema` — tables, schema version, :func:`connect`;
* :mod:`repro.db.ingest` — idempotent capture ingestion (the fleet's
  corpus walker, with its salvage fallback);
* :mod:`repro.db.query` — run catalog and per-function queries;
* :mod:`repro.db.diff` — the pooled statistical diff;
* :mod:`repro.db.render` — deterministic text/JSON reporters.

Database integrity is linted by the P7xx family
(:mod:`repro.lint.db_lint` — ``repro db check`` / ``repro lint --db``).
"""

from __future__ import annotations

from repro.db.diff import (
    DiffReport,
    DiffThresholds,
    FunctionVerdict,
    SideStats,
    VERDICTS,
    diff_runs,
)
from repro.db.ingest import RunIngest, ingest_capture, ingest_paths
from repro.db.query import (
    DEFAULT_FUNCTION_SORT,
    FunctionRow,
    RunRow,
    function_row_count,
    list_runs,
    query_functions,
    resolve_runs,
    run_count,
)
from repro.db.render import (
    JSON_SCHEMA_VERSION,
    render_diff_json,
    render_diff_text,
    render_query_json,
    render_query_text,
    render_runs_json,
    render_runs_text,
)
from repro.db.schema import SCHEMA_VERSION, ProfileDbError, connect

__all__ = [
    "DEFAULT_FUNCTION_SORT",
    "DiffReport",
    "DiffThresholds",
    "FunctionRow",
    "FunctionVerdict",
    "JSON_SCHEMA_VERSION",
    "ProfileDbError",
    "RunIngest",
    "RunRow",
    "SCHEMA_VERSION",
    "SideStats",
    "VERDICTS",
    "connect",
    "diff_runs",
    "function_row_count",
    "ingest_capture",
    "ingest_paths",
    "list_runs",
    "query_functions",
    "render_diff_json",
    "render_diff_text",
    "render_query_json",
    "render_query_text",
    "render_runs_json",
    "render_runs_text",
    "resolve_runs",
    "run_count",
]
