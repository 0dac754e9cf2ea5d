"""P7xx: profile-database integrity diagnostics.

The corpus database is written incrementally, sometimes from cron,
sometimes against a file another tool version created — so ``repro db
check`` (and ``repro lint --db``) verifies the invariants the diff
machinery leans on:

* **P701** — schema drift: the file's ``schema_version`` is not this
  tool's.  Reading on anyway would silently misinterpret columns.
* **P702** — orphan function rows: ``functions`` rows whose ``run_id``
  matches no run (a torn manual edit or a partial delete).
* **P703** — label collision: one label spans several *workloads*, so
  pooling by that label would mix unlike work into one noise estimate.
* **P704** — a run with no function rows (ingest wrote the header but
  nothing else; the run contributes empty pools).
* **P705** — a singleton label: only one run carries it, so ``db diff``
  against that label has no noise estimate and falls back to the
  relative-threshold heuristic.  Informational — two more runs make the
  statistics real.

Like every proflint pass these are pure functions from data to a
:class:`~repro.lint.diagnostics.LintReport`.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Optional, Union

from repro.lint.diagnostics import LintReport


def lint_profile_db(
    path: Union[str, Path],
    report: Optional[LintReport] = None,
) -> LintReport:
    """Run the P7xx integrity pass over one profile database file."""
    report = report if report is not None else LintReport()
    source = str(path)
    from repro.db.schema import (
        SCHEMA_VERSION,
        ProfileDbError,
        open_read_only,
        read_schema_version,
    )

    try:
        conn = open_read_only(path)
    except sqlite3.Error as exc:
        report.add("P701", f"cannot open database: {exc}", source=source)
        return report
    try:
        try:
            version = read_schema_version(conn)
        except ProfileDbError as exc:
            report.add("P701", str(exc), source=source)
            return report
        if version is None:
            report.add(
                "P701",
                "database is empty (no schema); nothing was ever ingested",
                source=source,
            )
            return report
        if version != SCHEMA_VERSION:
            report.add(
                "P701",
                f"schema version {version} does not match this tool's "
                f"{SCHEMA_VERSION}; re-ingest into a fresh database",
                source=source,
            )
            return report
        _lint_rows(conn, source, report)
    finally:
        conn.close()
    return report


def _lint_rows(
    conn: sqlite3.Connection, source: str, report: LintReport
) -> None:
    orphans = conn.execute(
        "SELECT COUNT(*), COUNT(DISTINCT f.run_id) FROM functions f"
        " LEFT JOIN runs r ON r.id = f.run_id WHERE r.id IS NULL"
    ).fetchone()
    if orphans[0]:
        report.add(
            "P702",
            f"{orphans[0]} function row(s) reference {orphans[1]} "
            f"nonexistent run(s); the table was edited outside ingest",
            source=source,
        )
    for label, workloads in conn.execute(
        "SELECT label, COUNT(DISTINCT workload) FROM runs"
        " WHERE label != '' GROUP BY label"
        " HAVING COUNT(DISTINCT workload) > 1 ORDER BY label"
    ):
        report.add(
            "P703",
            f"label {label!r} spans {workloads} workloads; pooling by this "
            f"label mixes unlike work into one noise estimate",
            source=source,
        )
    for fingerprint, run_path in conn.execute(
        "SELECT r.fingerprint, r.path FROM runs r"
        " LEFT JOIN functions f ON f.run_id = r.id"
        " WHERE f.run_id IS NULL ORDER BY r.fingerprint"
    ):
        report.add(
            "P704",
            f"run {fingerprint[:12]} ({run_path}) has no function rows",
            source=source,
        )
    for label, runs in conn.execute(
        "SELECT label, COUNT(*) FROM runs WHERE label != ''"
        " GROUP BY label HAVING COUNT(*) = 1 ORDER BY label"
    ):
        report.add(
            "P705",
            f"label {label!r} has a single run ({runs}); diffs against it "
            f"fall back to the relative-threshold heuristic",
            source=source,
        )
