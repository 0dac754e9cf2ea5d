"""Ingesting captures into the profile corpus database.

The decode leg is the columnar fast path —
:func:`~repro.profiler.upload.iter_capture_columns` feeding
:meth:`~repro.analysis.summary.SummaryAccumulator.feed_columns` — with
the fleet engine's salvage fallback for damaged files.  Each capture
lands as one ``runs`` row plus its per-function ``functions`` rows.

Idempotence is the design center: a run is keyed by the SHA-256 of the
capture file's bytes, inserted inside one transaction, and a fingerprint
already present is skipped without touching a row.  Ingesting the same
corpus twice — or the same capture under two paths — changes nothing,
which is what lets ``repro db ingest`` run from cron against a growing
inbox and what the CI idempotence job asserts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import sqlite3
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.analysis.summary import ProfileSummary, SummaryAccumulator
from repro.db.schema import ProfileDbError
from repro.instrument.namefile import NameTable
from repro.profiler.upload import (
    CaptureFormatError,
    CaptureMeta,
    cached_capture_meta,
    iter_capture_columns,
    salvage_capture_bytes,
)
from repro.telemetry import TELEMETRY as _TELEMETRY
from repro.workloads import workload_for_label

#: File patterns a directory ingest sweeps up (mirrors the fleet plan).
DB_PATTERNS = ("*.mpf", "*.mpf.corrupt")

#: Workload tag for captures whose label decodes to no registry workload.
UNLABELED = "<unlabeled>"


def workload_tag(label: str) -> str:
    """The grouping tag for one capture label.

    Registry labels (``cli: network``, ``hunt: network …``) group under
    the registry workload name; unrecognised labels group under the
    literal label; empty (MPF1) labels under :data:`UNLABELED`.
    """
    workload = workload_for_label(label)
    if workload is not None:
        return workload
    return label if label else UNLABELED


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


def discover_captures(
    paths: Sequence[Union[str, Path]],
    *,
    patterns: Sequence[str] = DB_PATTERNS,
) -> List[str]:
    """Expand files/directories into a path-sorted capture list.

    Directories are swept for :data:`DB_PATTERNS`; explicit files are
    taken as given (whatever their suffix).  The result is sorted and
    de-duplicated so the ingest order — and therefore every report row
    index — is a pure function of the arguments.
    """
    seen: set = set()
    found: List[str] = []
    for item in paths:
        p = Path(item)
        if p.is_dir():
            hits: List[Path] = []
            for pattern in patterns:
                hits.extend(h for h in p.glob(pattern) if h.is_file())
            for hit in sorted(hits):
                key = str(hit)
                if key not in seen:
                    seen.add(key)
                    found.append(key)
        else:
            key = str(p)
            if key not in seen:
                seen.add(key)
                found.append(key)
    return sorted(found)


def _summarize_blob(
    blob: bytes, names: NameTable, *, salvage: bool
) -> "tuple[Optional[ProfileSummary], Optional[CaptureMeta], str, int, str]":
    """Decode one capture blob: (summary, meta, status, defects, error)."""
    error = ""
    meta: Optional[CaptureMeta] = None
    try:
        meta = cached_capture_meta(io.BytesIO(blob))
    except (CaptureFormatError, ValueError) as exc:
        error = str(exc)
    if meta is not None:
        accumulator = SummaryAccumulator(
            names, width_bits=meta.counter_width_bits
        )
        try:
            for batch in iter_capture_columns(io.BytesIO(blob)):
                accumulator.feed_columns(batch)
            return accumulator.summary(), meta, "ok", 0, ""
        except (CaptureFormatError, ValueError) as exc:
            error = str(exc)
    if not salvage:
        return None, meta, "failed", 0, error
    result = salvage_capture_bytes(blob)
    if result.meta.version == 0:
        error = "not recognisably a capture: " + "; ".join(
            d.message for d in result.defects[:2]
        )
        return None, result.meta, "failed", len(result.defects), error
    accumulator = SummaryAccumulator(
        names, width_bits=result.meta.counter_width_bits
    )
    accumulator.feed_columns(result.records)
    return accumulator.summary(), result.meta, "salvaged", len(result.defects), ""


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
    source = str(path)
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        return RunIngest(
            path=source, fingerprint="", status="failed", error=str(exc)
        )
    fingerprint = hashlib.sha256(blob).hexdigest()
    existing = conn.execute(
        "SELECT 1 FROM runs WHERE fingerprint = ?", (fingerprint,)
    ).fetchone()
    if existing is not None:
        if _TELEMETRY.enabled:
            _TELEMETRY.count("db.runs.skipped")
        return RunIngest(
            path=source, fingerprint=fingerprint, status="duplicate"
        )
    summary, meta, status, defects, error = _summarize_blob(
        blob, names, salvage=salvage
    )
    if summary is None:
        if _TELEMETRY.enabled:
            _TELEMETRY.count("db.runs.failed")
        return RunIngest(
            path=source,
            fingerprint=fingerprint,
            status="failed",
            defects=defects,
            error=error,
        )
    label = meta.label
    tag = workload if workload is not None else workload_tag(label)
    with conn:
        cursor = conn.execute(
            "INSERT INTO runs (fingerprint, path, label, workload,"
            " mpf_version, counter_width_bits, counter_rate_hz, overflowed,"
            " salvaged, defects, records, wall_us, busy_us, idle_us,"
            " event_count)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                fingerprint,
                source,
                label,
                tag,
                meta.version,
                meta.counter_width_bits,
                meta.counter_rate_hz,
                int(meta.overflowed),
                int(status == "salvaged"),
                defects,
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
        path=source,
        fingerprint=fingerprint,
        status="added" if status == "ok" else status,
        workload=tag,
        label=label,
        records=summary.event_count,
        functions=len(rows),
        defects=defects,
    )


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
    telemetry = _TELEMETRY
    if not telemetry.enabled:
        return [
            ingest_capture(
                conn, capture, names, salvage=salvage, workload=workload
            )
            for capture in captures
        ]
    with telemetry.span("db.ingest", captures=len(captures)):
        return [
            ingest_capture(
                conn, capture, names, salvage=salvage, workload=workload
            )
            for capture in captures
        ]
