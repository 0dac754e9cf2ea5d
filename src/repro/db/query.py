"""Composable queries over the profile corpus database.

Two shapes come back out of the database:

* :func:`list_runs` — the run catalog (fingerprint, label, workload,
  header numbers), the thing you scan to pick diff operands;
* :func:`query_functions` — per-function rows joined with their run,
  filterable by workload, function-name glob and %net floor, sortable
  by any numeric column.

Every ordering ends with a fingerprint/name tiebreak, so output is a
pure function of the database *contents* — never of row ids, which
depend on ingest order.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import sqlite3
from typing import List, Optional

from repro.analysis.summary import FUNCTION_SORTS
from repro.db.schema import ProfileDbError
from repro.telemetry import TELEMETRY as _TELEMETRY

#: Each of :data:`~repro.analysis.summary.FUNCTION_SORTS` -> (SQL
#: column, descending?).
_SORT_COLUMNS = {
    "net": ("f.net_us", True),
    "elapsed": ("f.elapsed_us", True),
    "calls": ("f.calls", True),
    "pct-net": ("f.pct_net", True),
    "pct-real": ("f.pct_real", True),
    "name": ("f.name", False),
}

DEFAULT_FUNCTION_SORT = "net"


@dataclasses.dataclass(frozen=True)
class RunRow:
    """One run as the catalog shows it."""

    fingerprint: str
    path: str
    label: str
    workload: str
    mpf_version: int
    counter_width_bits: int
    counter_rate_hz: int
    overflowed: bool
    salvaged: bool
    defects: int
    wall_us: int
    busy_us: int
    idle_us: int
    event_count: int

    @property
    def short(self) -> str:
        """The 12-hex-digit fingerprint prefix reports print."""
        return self.fingerprint[:12]


@dataclasses.dataclass(frozen=True)
class FunctionRow:
    """One (run, function) row as queries return it."""

    run_fingerprint: str
    run_label: str
    workload: str
    name: str
    calls: int
    elapsed_us: int
    net_us: int
    max_us: int
    min_us: int
    pct_real: float
    pct_net: float


_RUN_COLUMNS = (
    "fingerprint, path, label, workload, mpf_version, counter_width_bits,"
    " counter_rate_hz, overflowed, salvaged, defects, wall_us, busy_us,"
    " idle_us, event_count"
)


def _run_row(raw: tuple) -> RunRow:
    return RunRow(
        fingerprint=raw[0],
        path=raw[1],
        label=raw[2],
        workload=raw[3],
        mpf_version=raw[4],
        counter_width_bits=raw[5],
        counter_rate_hz=raw[6],
        overflowed=bool(raw[7]),
        salvaged=bool(raw[8]),
        defects=raw[9],
        wall_us=raw[10],
        busy_us=raw[11],
        idle_us=raw[12],
        event_count=raw[13],
    )


def list_runs(
    conn: sqlite3.Connection,
    *,
    workload: Optional[str] = None,
    label: Optional[str] = None,
) -> List[RunRow]:
    """The run catalog, fingerprint-ordered (ingest-order independent)."""
    sql = f"SELECT {_RUN_COLUMNS} FROM runs"
    clauses = []
    args: List[object] = []
    if workload is not None:
        clauses.append("workload = ?")
        args.append(workload)
    if label is not None:
        clauses.append("label = ?")
        args.append(label)
    if clauses:
        sql += " WHERE " + " AND ".join(clauses)
    sql += " ORDER BY fingerprint"
    return [_run_row(raw) for raw in conn.execute(sql, args)]


def resolve_runs(conn: sqlite3.Connection, selector: str) -> List[RunRow]:
    """Resolve a user-facing run selector to its matching runs.

    Accepted forms, tried in order:

    * ``label:<label>`` / ``workload:<tag>`` / ``run:<fingerprint-prefix>``
      — explicit namespaces;
    * a bare token — first as a fingerprint prefix (>= 6 hex digits),
      then as an exact label, then as a workload tag.

    A label or workload selector may match *several* runs — that is the
    point: repeated runs of one label pool into the diff's noise
    estimate.  An unknown selector raises :class:`ProfileDbError`.
    """
    if selector.startswith("label:"):
        runs = list_runs(conn, label=selector[len("label:"):])
    elif selector.startswith("workload:"):
        runs = list_runs(conn, workload=selector[len("workload:"):])
    elif selector.startswith("run:"):
        runs = _runs_by_prefix(conn, selector[len("run:"):])
    else:
        runs = []
        if len(selector) >= 6 and all(
            c in "0123456789abcdef" for c in selector.lower()
        ):
            runs = _runs_by_prefix(conn, selector)
        if not runs:
            runs = list_runs(conn, label=selector)
        if not runs:
            runs = list_runs(conn, workload=selector)
    if not runs:
        raise ProfileDbError(
            f"no run matches selector {selector!r}; try 'repro db runs' "
            f"for the catalog (selectors: a fingerprint prefix, a label, "
            f"a workload tag, or label:/workload:/run: explicitly)"
        )
    return runs


def _runs_by_prefix(conn: sqlite3.Connection, prefix: str) -> List[RunRow]:
    sql = (
        f"SELECT {_RUN_COLUMNS} FROM runs WHERE fingerprint LIKE ?"
        " ORDER BY fingerprint"
    )
    return [_run_row(raw) for raw in conn.execute(sql, (prefix + "%",))]


def query_functions(
    conn: sqlite3.Connection,
    *,
    workload: Optional[str] = None,
    label: Optional[str] = None,
    function: Optional[str] = None,
    min_pct_net: Optional[float] = None,
    sort: str = DEFAULT_FUNCTION_SORT,
    limit: Optional[int] = None,
) -> List[FunctionRow]:
    """Filter/sort per-function rows across every ingested run.

    ``function`` is a shell glob matched against function names
    (``vm_*``, ``*intr*``); ``min_pct_net`` drops rows below a %net
    floor; ``sort`` is one of
    :data:`~repro.analysis.summary.FUNCTION_SORTS`.  Ties (and the
    ``name`` sort) break on ``(name, run fingerprint)`` so the order is
    reproducible across ingest orders.
    """
    if sort not in FUNCTION_SORTS:
        raise ProfileDbError(
            f"unknown sort {sort!r}; pick one of {'/'.join(FUNCTION_SORTS)}"
        )
    column, descending = _SORT_COLUMNS[sort]
    sql = (
        "SELECT r.fingerprint, r.label, r.workload, f.name, f.calls,"
        " f.elapsed_us, f.net_us, f.max_us, f.min_us, f.pct_real, f.pct_net"
        " FROM functions f JOIN runs r ON r.id = f.run_id"
    )
    clauses = []
    args: List[object] = []
    if workload is not None:
        clauses.append("r.workload = ?")
        args.append(workload)
    if label is not None:
        clauses.append("r.label = ?")
        args.append(label)
    if min_pct_net is not None:
        clauses.append("f.pct_net >= ?")
        args.append(min_pct_net)
    if clauses:
        sql += " WHERE " + " AND ".join(clauses)
    direction = "DESC" if descending else "ASC"
    sql += f" ORDER BY {column} {direction}, f.name ASC, r.fingerprint ASC"
    rows = [
        FunctionRow(
            run_fingerprint=raw[0],
            run_label=raw[1],
            workload=raw[2],
            name=raw[3],
            calls=raw[4],
            elapsed_us=raw[5],
            net_us=raw[6],
            max_us=raw[7],
            min_us=raw[8],
            pct_real=raw[9],
            pct_net=raw[10],
        )
        for raw in conn.execute(sql, args)
    ]
    if function is not None:
        rows = [row for row in rows if fnmatch.fnmatchcase(row.name, function)]
    if limit is not None:
        rows = rows[:limit]
    if _TELEMETRY.enabled:
        _TELEMETRY.count("db.query.rows", len(rows))
    return rows


def run_count(conn: sqlite3.Connection) -> int:
    return int(conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0])


def function_row_count(conn: sqlite3.Connection) -> int:
    return int(conn.execute("SELECT COUNT(*) FROM functions").fetchone()[0])
