"""Observed-tag coverage of a capture corpus.

The runtime half of the coverage cross: fold every capture under a
directory (planned by :func:`repro.fleet.ingest.plan_fleet`, so the scan
order — and everything derived from it — is a pure function of the
directory contents) into per-capture *observed tag* sets.  The captures
are read by the fleet's corpus walker
(:func:`repro.fleet.ingest.read_corpus`, salvage off) into a sink that
collects each capture's distinct raw tags; the parent decodes those to
names.

A capture contributes the set of distinct function names its records
decode to — entry, exit and inline tags all collapse onto the function
name; the ``dummy`` idle tag is dropped.  Captures the reader rejects
are carried as ``status="failed"`` rows (they become ``P605``
diagnostics) rather than aborting the scan, so a corpus with one
corrupt file still yields a coverage report over the rest.

Workload grouping is by MPF2 label through
:func:`repro.workloads.workload_tag` (``cli: network`` and ``hunt:
network …`` both group under ``network``); labels the registry does not
recognise group under the literal label, and unlabeled MPF1 captures
under ``<unlabeled>``.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Optional, Union

from repro.fleet.ingest import (
    CorpusRow,
    FleetPlan,
    plan_fleet,
    read_corpus,
    resolve_jobs,
)
from repro.instrument.namefile import DUMMY_NAME, NameTable
from repro.profiler.ram import RecordColumns
from repro.profiler.upload import CaptureMeta
from repro.workloads import workload_tag


@dataclasses.dataclass(frozen=True)
class CaptureCoverage:
    """One capture's contribution to corpus coverage."""

    index: int
    path: str
    label: str
    #: Registry workload name parsed from the label, or the grouping
    #: fallback (the literal label / ``<unlabeled>``).
    workload: str
    #: ``ok`` or ``failed`` (unreadable/corrupt — see ``error``).
    status: str
    records: int
    #: Distinct decoded function names (``dummy`` excluded).
    observed: frozenset[str]
    #: Distinct raw tag values the name table could not decode.
    unknown_tags: int
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclasses.dataclass(frozen=True)
class CorpusCoverage:
    """Every capture's coverage, in deterministic plan order."""

    root: str
    captures: tuple[CaptureCoverage, ...]

    def observed_union(self) -> frozenset[str]:
        out: set[str] = set()
        for capture in self.captures:
            out |= capture.observed
        return frozenset(out)

    def by_workload(self) -> dict[str, frozenset[str]]:
        """Workload group -> union of observed tags, sorted by group."""
        groups: dict[str, set[str]] = {}
        for capture in self.captures:
            if not capture.ok:
                continue
            groups.setdefault(capture.workload, set()).update(capture.observed)
        return {key: frozenset(groups[key]) for key in sorted(groups)}

    @property
    def failed(self) -> tuple[CaptureCoverage, ...]:
        return tuple(c for c in self.captures if not c.ok)


class _TagSink:
    """The corpus walker's coverage sink: one capture's distinct raw tags."""

    def __init__(self, meta: CaptureMeta) -> None:
        self.tags: set[int] = set()

    def feed_columns(self, columns: RecordColumns) -> None:
        self.tags.update(columns.tags)

    def close(self) -> None:
        pass


def _capture_coverage(
    index: int, row: CorpusRow, names: NameTable
) -> CaptureCoverage:
    """Decode one walker row's raw tag set to observed function names."""
    label = row.meta.label if row.meta is not None else ""
    observed: set[str] = set()
    unknown: set[int] = set()
    if row.sink is not None:
        for value in row.sink.tags:
            decoded = names.decode(value)
            if decoded is None:
                unknown.add(value)
            else:
                observed.add(decoded[0].name)
        observed.discard(DUMMY_NAME)
    return CaptureCoverage(
        index=index,
        path=row.path,
        label=label,
        workload=workload_tag(label),
        status="ok" if row.ok else "failed",
        records=row.records,
        observed=frozenset(observed),
        unknown_tags=len(unknown),
        error=row.error,
    )


def scan_corpus(
    plan_or_root: Union[str, Path, FleetPlan],
    names: NameTable,
    jobs: Optional[int] = 1,
) -> CorpusCoverage:
    """Scan a whole corpus into per-capture observed-tag sets.

    ``jobs=1`` walks inline; higher counts run the walker's process
    pool.  Rows come back in plan order, so the corpus coverage — like
    the fleet merge it mirrors — is byte-identical for every worker
    count.
    """
    plan = (
        plan_or_root
        if isinstance(plan_or_root, FleetPlan)
        else plan_fleet(plan_or_root)
    )
    rows = read_corpus(
        [capture.path for capture in plan.captures],
        _TagSink,
        jobs=resolve_jobs(jobs),
    )
    return CorpusCoverage(
        root=plan.root,
        captures=tuple(
            _capture_coverage(capture.index, row, names)
            for row, capture in zip(rows, plan.captures)
        ),
    )
