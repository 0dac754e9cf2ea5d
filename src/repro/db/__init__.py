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
