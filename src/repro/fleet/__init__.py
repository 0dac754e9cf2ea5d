"""Fleet-scale capture ingestion: many MPF files as one profiling corpus.

The throughput layer on top of the single-capture machinery: one corpus
walker (:func:`~repro.fleet.ingest.read_corpus`) reads every capture
under one fault and salvage rule, optionally across a fork process
pool; the fleet folds the per-capture summaries through a deterministic
merge, and each capture's metrics come back with its result into the
telemetry registry.  ``db ingest`` and ``coverage`` walk their corpora
through the same walker.  See :mod:`repro.fleet.ingest` for the engine
and :mod:`repro.fleet.serve` for the long-running inbox watcher behind
``repro fleet serve``.
"""

from repro.fleet.ingest import (
    FLEET_COUNTERS,
    FLEET_HISTOGRAMS,
    FLEET_PATTERNS,
    CaptureReport,
    CorpusRow,
    FleetCapture,
    FleetError,
    FleetPlan,
    FleetResult,
    discover_captures,
    format_fleet_summary,
    ingest_fleet,
    merge_fleet,
    new_summary,
    plan_fleet,
    read_corpus,
    resolve_jobs,
)
from repro.fleet.serve import DEFAULT_POLL_S, FleetServer

__all__ = [
    "FLEET_COUNTERS",
    "FLEET_HISTOGRAMS",
    "FLEET_PATTERNS",
    "CaptureReport",
    "CorpusRow",
    "FleetCapture",
    "FleetError",
    "FleetPlan",
    "FleetResult",
    "discover_captures",
    "format_fleet_summary",
    "ingest_fleet",
    "merge_fleet",
    "new_summary",
    "plan_fleet",
    "read_corpus",
    "resolve_jobs",
    "DEFAULT_POLL_S",
    "FleetServer",
]
