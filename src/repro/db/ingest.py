"""Ingesting captures into the profile corpus database.

The decode leg is the fleet's corpus walker
(:func:`~repro.fleet.ingest.read_corpus`): the columnar fold of
:func:`~repro.profiler.upload.iter_capture_columns` into a
:class:`~repro.analysis.summary.SummaryAccumulator` per capture, with
the walker's salvage fallback for damaged files.  Each capture lands as
one ``runs`` row plus its per-function ``functions`` rows.

Idempotence is the design center: a run is keyed by the SHA-256 of the
capture file's bytes, and a fingerprint already present is skipped by
the walker before any decode, without touching a row.  Rows are
inserted one transaction per run, in path order, behind a second
fingerprint check that catches one file's bytes under two paths in the
same pass.  Ingesting the same corpus twice — or the same capture under
two paths — changes nothing, which is what lets ``repro db ingest`` run
from cron against a growing inbox and what the CI idempotence job
asserts.
"""

from __future__ import annotations

import dataclasses
import functools
import sqlite3
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.db.schema import ProfileDbError
from repro.fleet.ingest import CorpusRow, discover_captures, new_summary, read_corpus
from repro.instrument.namefile import NameTable
from repro.telemetry import TELEMETRY as _TELEMETRY
from repro.workloads import workload_tag


@dataclasses.dataclass(frozen=True)
class RunIngest:
    """What happened to one capture during ``repro db ingest``.

    ``status`` is ``added`` (clean decode, new row), ``salvaged``
    (doctor recovered records, new row), ``duplicate`` (fingerprint
    already in the database; nothing written) or ``failed`` (nothing
    usable; ``error`` says why).
    """

    path: str
    fingerprint: str
    status: str
    workload: str = ""
    label: str = ""
    records: int = 0
    functions: int = 0
    defects: int = 0
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "failed"


def _insert_run(
    conn: sqlite3.Connection, row: CorpusRow, workload: Optional[str]
) -> RunIngest:
    """Turn one walker row into a ``runs`` row (or say why not)."""
    duplicate = row.status == "skipped" or (
        row.ok
        and conn.execute(
            "SELECT 1 FROM runs WHERE fingerprint = ?", (row.fingerprint,)
        ).fetchone()
        is not None
    )
    if duplicate:
        if _TELEMETRY.enabled:
            _TELEMETRY.count("db.runs.skipped")
        return RunIngest(
            path=row.path, fingerprint=row.fingerprint, status="duplicate"
        )
    if not row.ok:
        if _TELEMETRY.enabled:
            _TELEMETRY.count("db.runs.failed")
        return RunIngest(
            path=row.path,
            fingerprint=row.fingerprint,
            status="failed",
            defects=row.defects,
            error=row.error,
        )
    meta = row.meta
    summary = row.sink.summary()
    tag = workload if workload is not None else workload_tag(meta.label)
    with conn:
        cursor = conn.execute(
            "INSERT INTO runs (fingerprint, path, label, workload,"
            " mpf_version, counter_width_bits, counter_rate_hz, overflowed,"
            " salvaged, defects, records, wall_us, busy_us, idle_us,"
            " event_count)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                row.fingerprint,
                row.path,
                meta.label,
                tag,
                meta.version,
                meta.counter_width_bits,
                meta.counter_rate_hz,
                int(meta.overflowed),
                int(row.status == "salvaged"),
                row.defects,
                summary.event_count,
                summary.wall_us,
                summary.busy_us,
                summary.idle_us,
                summary.event_count,
            ),
        )
        run_id = cursor.lastrowid
        rows = [
            (
                run_id,
                stats.name,
                stats.calls,
                stats.elapsed_us,
                stats.net_us,
                stats.max_us,
                stats.min_us,
                summary.pct_real(stats),
                summary.pct_net(stats),
            )
            for stats in summary.rows()
        ]
        conn.executemany(
            "INSERT INTO functions (run_id, name, calls, elapsed_us, net_us,"
            " max_us, min_us, pct_real, pct_net)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            rows,
        )
    if _TELEMETRY.enabled:
        _TELEMETRY.count("db.runs.ingested")
        _TELEMETRY.count("db.functions.inserted", len(rows))
    return RunIngest(
        path=row.path,
        fingerprint=row.fingerprint,
        status="added" if row.status == "ok" else row.status,
        workload=tag,
        label=meta.label,
        records=summary.event_count,
        functions=len(rows),
        defects=row.defects,
    )


def _ingest(
    conn: sqlite3.Connection,
    paths: Sequence[str],
    names: NameTable,
    *,
    salvage: bool,
    workload: Optional[str],
) -> List[RunIngest]:
    """Walk *paths* inline, skipping fingerprints already in ``runs``."""
    known = frozenset(
        fingerprint
        for (fingerprint,) in conn.execute("SELECT fingerprint FROM runs")
    )
    rows = read_corpus(
        paths, functools.partial(new_summary, names), salvage=salvage, skip=known
    )
    return [_insert_run(conn, row, workload) for row in rows]


def ingest_capture(
    conn: sqlite3.Connection,
    path: Union[str, Path],
    names: NameTable,
    *,
    salvage: bool = False,
    workload: Optional[str] = None,
) -> RunIngest:
    """Ingest one capture file as one run (idempotent).

    The file is read once; its SHA-256 is both the duplicate check and
    the run's public identity.  ``workload`` overrides the tag parsed
    from the capture label (useful for hand-rolled captures whose labels
    the registry does not know).
    """
    (result,) = _ingest(
        conn, [str(path)], names, salvage=salvage, workload=workload
    )
    return result


def ingest_paths(
    conn: sqlite3.Connection,
    paths: Sequence[Union[str, Path]],
    names: NameTable,
    *,
    salvage: bool = False,
    workload: Optional[str] = None,
) -> List[RunIngest]:
    """Ingest files and directories in deterministic (path-sorted) order."""
    captures = discover_captures(paths)
    if not captures:
        raise ProfileDbError(
            "no capture files found under "
            + ", ".join(str(p) for p in paths)
        )
    with _TELEMETRY.span("db.ingest", captures=len(captures)):
        return _ingest(
            conn, captures, names, salvage=salvage, workload=workload
        )
