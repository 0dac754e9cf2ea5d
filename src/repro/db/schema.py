"""The profile-corpus sqlite schema.

One database holds many *runs* — each the function summary of one
capture — keyed by a content fingerprint so re-ingesting the same
capture is a no-op.  Three tables:

``schema_version``
    A single row carrying :data:`SCHEMA_VERSION`.  Readers refuse (or
    lint-flag, P701) databases written by a different schema, rather
    than silently misreading columns.

``runs``
    One row per ingested capture: the MPF header metadata (label,
    counter geometry, overflow flag), the workload tag parsed from the
    label, salvage status, and the summary header numbers (wall, busy,
    idle, event count).  ``fingerprint`` is the SHA-256 of the capture
    file's bytes — the idempotence key and the stable public run
    identity (row ids depend on ingest order and never appear in
    deterministic output).

``functions``
    One row per (run, function): calls, elapsed, net, max/min per-call
    and the two Figure 3 percentages, denormalised so queries need no
    arithmetic over the run header.

Everything is plain sqlite3 from the standard library; connections are
opened per command and closed by the caller.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Union

#: Bump on any table/column change; P701 flags a mismatched database.
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS schema_version (
    version INTEGER NOT NULL
);

CREATE TABLE IF NOT EXISTS runs (
    id                 INTEGER PRIMARY KEY,
    fingerprint        TEXT    NOT NULL UNIQUE,
    path               TEXT    NOT NULL,
    label              TEXT    NOT NULL,
    workload           TEXT    NOT NULL,
    mpf_version        INTEGER NOT NULL,
    counter_width_bits INTEGER NOT NULL,
    counter_rate_hz    INTEGER NOT NULL,
    overflowed         INTEGER NOT NULL,
    salvaged           INTEGER NOT NULL,
    defects            INTEGER NOT NULL,
    records            INTEGER NOT NULL,
    wall_us            INTEGER NOT NULL,
    busy_us            INTEGER NOT NULL,
    idle_us            INTEGER NOT NULL,
    event_count        INTEGER NOT NULL
);

CREATE TABLE IF NOT EXISTS functions (
    run_id     INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    name       TEXT    NOT NULL,
    calls      INTEGER NOT NULL,
    elapsed_us INTEGER NOT NULL,
    net_us     INTEGER NOT NULL,
    max_us     INTEGER NOT NULL,
    min_us     INTEGER NOT NULL,
    pct_real   REAL    NOT NULL,
    pct_net    REAL    NOT NULL,
    PRIMARY KEY (run_id, name)
);

CREATE INDEX IF NOT EXISTS idx_runs_label    ON runs(label);
CREATE INDEX IF NOT EXISTS idx_runs_workload ON runs(workload);
CREATE INDEX IF NOT EXISTS idx_functions_name ON functions(name);
"""


class ProfileDbError(ValueError):
    """The profile database was asked something impossible."""


def open_read_only(path: Union[str, Path]) -> sqlite3.Connection:
    """Open an existing database for reading only: sqlite neither
    creates a missing file nor writes a header into an empty one.
    Raises :class:`sqlite3.Error` when the file cannot be opened."""
    return sqlite3.connect(Path(path).resolve().as_uri() + "?mode=ro", uri=True)


def connect(path: Union[str, Path], *, read_only: bool = False) -> sqlite3.Connection:
    """Open (or create) a profile database, verifying the schema version.

    A fresh file gets the full schema and a ``schema_version`` row; an
    existing file must carry exactly :data:`SCHEMA_VERSION` — anything
    else raises :class:`ProfileDbError` so a newer or older tool never
    silently misreads rows (the lint pass reports the same condition as
    P701 without raising).  A file sqlite cannot open or write raises
    :class:`ProfileDbError` too.  With *read_only* the file is never
    written: a missing file, or one no ingest ever initialised, raises
    :class:`ProfileDbError` instead of being created.
    """
    try:
        conn = open_read_only(path) if read_only else sqlite3.connect(str(path))
        conn.execute("PRAGMA foreign_keys = ON")
        version = read_schema_version(conn)
        if version is None:
            if read_only:
                conn.close()
                raise ProfileDbError(
                    f"{path}: database is empty (no schema); nothing was ever "
                    "ingested"
                )
            with conn:
                conn.executescript(_SCHEMA)
                conn.execute(
                    "INSERT INTO schema_version (version) VALUES (?)",
                    (SCHEMA_VERSION,),
                )
            return conn
    except sqlite3.Error as exc:
        raise ProfileDbError(f"{path}: {exc}") from None
    if version != SCHEMA_VERSION:
        conn.close()
        raise ProfileDbError(
            f"{path}: schema version {version} does not match this tool's "
            f"{SCHEMA_VERSION}; re-ingest into a fresh database"
        )
    return conn


def read_schema_version(conn: sqlite3.Connection) -> "int | None":
    """The stored schema version, or ``None`` for an uninitialised file.

    A file that has tables but no readable ``schema_version`` row
    returns ``-1`` — "present but wrong", which :func:`connect` and the
    P701 lint both treat as drift.
    """
    try:
        tables = {
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
    except sqlite3.DatabaseError as exc:
        raise ProfileDbError(f"not a sqlite database: {exc}") from None
    if not tables:
        return None
    if "schema_version" not in tables:
        return -1
    row = conn.execute("SELECT version FROM schema_version").fetchone()
    if row is None:
        return -1
    return int(row[0])
