"""Fleet ingestion: a directory of MPF captures as one profiling corpus.

The paper analyses one 16384-event capture at a time; the fleet engine
treats thousands of them — an inbox drained by ``repro fleet serve`` or
a corpus handed to ``repro fleet ingest`` — as a single unit of work.
Three design rules, in priority order:

1. **Determinism.**  The merged fleet summary is byte-identical no
   matter how many workers ran or in what order they finished.  Workers
   return one sealed :class:`~repro.analysis.summary.SummaryAccumulator`
   per capture; the parent folds them with
   :meth:`~repro.analysis.summary.SummaryAccumulator.merge` strictly in
   plan order (path-sorted), never completion order.  ``--jobs 1`` takes
   an inline sequential path through the *same* fold, which is what the
   CI smoke job diffs against.
2. **The one fold per capture.**  Each worker runs the same columnar
   fold as ``repro analyze``
   (:func:`~repro.profiler.upload.iter_capture_columns` feeding
   :meth:`~repro.analysis.summary.SummaryAccumulator.feed_columns`), and
   the pool adds capture-level parallelism on top.
3. **Shared-memory observability.**  Forked workers cannot touch the
   parent's telemetry registry, so fleet metrics go through the striped
   :class:`~repro.fleet.arena.MetricsArena`; each pool worker owns one
   stripe (single-writer, lock-free) and the parent sums stripes into
   the PR 5 registry for the exporters.

Salvage policy mirrors ``repro analyze``: ``"off"`` treats any decode
fault as a failed capture; ``"auto"`` retries the faulty file through
the ``capture doctor`` salvaging decoder and folds whatever survived,
tagging the capture's manifest row ``salvaged``.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import multiprocessing

from repro.analysis.summary import SummaryAccumulator
from repro.fleet.arena import MetricsArena, StripeWriter
from repro.instrument.namefile import NameTable
from repro.profiler.upload import (
    CaptureFormatError,
    CaptureMeta,
    cached_capture_meta,
    iter_capture_columns,
    salvage_capture,
)

#: File patterns a fleet plan sweeps up, in match order.
FLEET_PATTERNS: Tuple[str, ...] = ("*.mpf", "*.mpf.corrupt")

#: Salvage policies: fail damaged captures, or route them through doctor.
SALVAGE_MODES: Tuple[str, ...] = ("off", "auto")

#: Counters every fleet arena carries (the README metric catalog).
FLEET_COUNTERS: Tuple[str, ...] = (
    "fleet.captures.ingested",
    "fleet.captures.failed",
    "fleet.records.decoded",
    "fleet.salvage.recoveries",
    "fleet.salvage.defects",
)

#: Microsecond-scaled latency buckets for the per-stage histograms.
STAGE_BUCKETS_US: Tuple[float, ...] = (
    100.0, 500.0, 1_000.0, 5_000.0, 10_000.0, 50_000.0,
    100_000.0, 500_000.0, 1_000_000.0, 5_000_000.0,
)

#: Per-stage latency histograms every fleet arena carries.
FLEET_HISTOGRAMS: Tuple[Tuple[str, Tuple[float, ...]], ...] = (
    ("fleet.stage.probe_us", STAGE_BUCKETS_US),
    ("fleet.stage.decode_us", STAGE_BUCKETS_US),
    ("fleet.stage.salvage_us", STAGE_BUCKETS_US),
)


class FleetError(RuntimeError):
    """The fleet engine was asked something impossible."""


def check_salvage_mode(salvage: str) -> str:
    if salvage not in SALVAGE_MODES:
        raise FleetError(
            f"unknown salvage policy {salvage!r}; pick one of {SALVAGE_MODES}"
        )
    return salvage


@dataclasses.dataclass(frozen=True)
class FleetCapture:
    """One capture in a fleet plan: its path plus the header probe."""

    index: int
    path: str
    meta: Optional[CaptureMeta]
    probe_error: str = ""


@dataclasses.dataclass(frozen=True)
class FleetPlan:
    """The deterministic work list for one ingestion pass.

    Captures are path-sorted so the plan — and therefore the merge fold,
    the manifest and every diagnostic index — is a pure function of the
    directory contents.
    """

    root: str
    captures: Tuple[FleetCapture, ...]

    def __len__(self) -> int:
        return len(self.captures)

    @property
    def total_records(self) -> int:
        # Open-ended (streamed) captures carry a sentinel header count;
        # their true count lives in the trailer, which the probe does not
        # read, so they contribute nothing to the planning total.
        return sum(
            c.meta.count
            for c in self.captures
            if c.meta is not None and not c.meta.streamed
        )


@dataclasses.dataclass(frozen=True)
class CaptureReport:
    """What happened to one capture during ingestion.

    ``status`` is ``ok`` (clean columnar decode), ``salvaged`` (doctor
    recovered records from a damaged file), or ``failed`` (nothing
    usable; ``error`` says why).  ``elapsed_us`` is wall time inside the
    worker — informational only, excluded from deterministic output.
    """

    index: int
    path: str
    status: str
    records: int = 0
    defects: int = 0
    error: str = ""
    label: str = ""
    version: int = 0
    elapsed_us: int = 0

    @property
    def ok(self) -> bool:
        return self.status != "failed"


@dataclasses.dataclass
class FleetResult:
    """Everything one fleet ingestion pass produced."""

    plan: FleetPlan
    reports: List[CaptureReport]
    accumulator: Optional[SummaryAccumulator]
    jobs: int
    elapsed_s: float = 0.0

    @property
    def ingested(self) -> int:
        return sum(1 for r in self.reports if r.ok)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.reports if not r.ok)

    @property
    def salvaged(self) -> int:
        return sum(1 for r in self.reports if r.status == "salvaged")

    @property
    def records(self) -> int:
        return sum(r.records for r in self.reports if r.ok)

    def manifest(self, *, timings: bool = False) -> List[dict]:
        """Per-capture manifest rows, plan-ordered.

        Deterministic by default; ``timings=True`` adds the per-worker
        ``elapsed_us`` column (useful, but it varies run to run, so the
        CI diff and the determinism suite leave it off).
        """
        rows = []
        for report in self.reports:
            row = {
                "index": report.index,
                "path": report.path,
                "status": report.status,
                "records": report.records,
                "defects": report.defects,
                "version": report.version,
                "label": report.label,
            }
            if report.error:
                row["error"] = report.error
            if timings:
                row["elapsed_us"] = report.elapsed_us
            rows.append(row)
        return rows


def fleet_arena(stripes: int) -> MetricsArena:
    """A fresh zeroed arena carrying the standard fleet metric catalog."""
    return MetricsArena.create(FLEET_COUNTERS, FLEET_HISTOGRAMS, stripes)


def plan_fleet(
    root: Union[str, Path],
    *,
    patterns: Sequence[str] = FLEET_PATTERNS,
    probe: bool = True,
) -> FleetPlan:
    """Sweep *root* for capture files and build the deterministic plan.

    ``probe=True`` reads every header through the ``(path, mtime, size)``
    cache (:func:`~repro.profiler.upload.cached_capture_meta`), so a
    serve-mode rescan of an unchanged inbox costs one ``stat()`` per
    file; unreadable headers land in the plan with ``probe_error`` set
    rather than aborting the sweep (the ingest stage decides whether
    salvage can still use them).
    """
    rootpath = Path(root)
    if not rootpath.is_dir():
        raise FleetError(f"fleet root {str(root)!r} is not a directory")
    seen: set = set()
    paths: List[str] = []
    for pattern in patterns:
        for hit in rootpath.glob(pattern):
            if hit.is_file() and hit not in seen:
                seen.add(hit)
                paths.append(str(hit))
    paths.sort()
    captures: List[FleetCapture] = []
    for index, path in enumerate(paths):
        meta: Optional[CaptureMeta] = None
        error = ""
        if probe:
            started = time.perf_counter()
            try:
                meta = cached_capture_meta(path)
            except (OSError, ValueError) as exc:
                error = str(exc)
            _observe_stage(
                "fleet.stage.probe_us",
                (time.perf_counter() - started) * 1e6,
            )
        captures.append(FleetCapture(index, path, meta, error))
    return FleetPlan(root=str(root), captures=tuple(captures))


# -- worker side ---------------------------------------------------------------
#
# Pool workers are primed once by _init_worker: the name table and the
# salvage policy land in module globals, and the worker claims its stripe
# of the shared arena.  Stripe choice uses the pool process's identity
# (1-based, assigned at spawn) so each live worker writes a distinct
# stripe — the single-writer contract the arena's lock-freedom rests on.

_worker_names: Optional[NameTable] = None
_worker_salvage: str = "off"
_worker_writer: Optional[StripeWriter] = None
_worker_arena: Optional[MetricsArena] = None


def _observe_stage(name: str, value: float) -> None:
    """Observe into the current process's stripe, if one is claimed.

    Planning can run before any arena exists (the plain parent process);
    inside a primed worker — or a serve loop that claimed the parent
    stripe — the observation lands in shared memory like any other.
    """
    writer = _worker_writer
    if writer is not None:
        writer.observe(name, value)


def _claim_stripe(arena: MetricsArena) -> StripeWriter:
    identity = multiprocessing.current_process()._identity
    slot = (identity[0] - 1) % arena.stripes if identity else 0
    return arena.writer(slot)


def _init_worker(arena: MetricsArena, names: NameTable, salvage: str) -> None:
    """Prime one pool worker (runs in the child, once per process).

    SIGINT is ignored in workers: Ctrl-C lands in the parent, which
    drains in-flight futures and shuts the pool down in order — the
    "clear SIGINT, not a hang" contract ``repro fleet serve`` documents.
    """
    global _worker_names, _worker_salvage
    global _worker_writer, _worker_arena
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_arena = arena
    _worker_writer = _claim_stripe(arena)
    _worker_names = names
    _worker_salvage = salvage


def _summarize_one(
    path: str,
    names: NameTable,
    salvage: str,
    writer: Optional[StripeWriter],
) -> Tuple[CaptureReport, Optional[SummaryAccumulator]]:
    """Decode + summarize one capture; the unit of fleet work.

    Runs identically inline (``--jobs 1``) and inside a pool worker —
    determinism falls out of that sharing, not of careful duplication.
    """
    started = time.perf_counter()
    width_bits = 24
    label = ""
    version = 0
    try:
        meta = cached_capture_meta(path)
        width_bits = meta.counter_width_bits
        label = meta.label
        version = meta.version
    except (OSError, ValueError):
        meta = None
    accumulator = SummaryAccumulator(names, width_bits=width_bits)
    status = "ok"
    records = 0
    defects = 0
    error = ""
    try:
        if meta is None:
            raise CaptureFormatError("unreadable capture header")
        for batch in iter_capture_columns(path):
            accumulator.feed_columns(batch)
            records += len(batch)
        # Counted only after the whole file decoded clean: a fault part
        # way through routes to salvage, which recounts from scratch.
        if writer is not None:
            writer.count("fleet.records.decoded", records)
            writer.observe(
                "fleet.stage.decode_us", (time.perf_counter() - started) * 1e6
            )
    except OSError as exc:
        status, error = "failed", str(exc)
    except (CaptureFormatError, ValueError) as exc:
        if salvage != "auto":
            status, error = "failed", str(exc)
        else:
            salvage_started = time.perf_counter()
            try:
                result = salvage_capture(path)
            except OSError as os_exc:
                result = None
                status, error = "failed", str(os_exc)
            if result is not None and result.meta.version == 0:
                status = "failed"
                error = "not recognisably a capture: " + "; ".join(
                    d.message for d in result.defects[:2]
                )
            elif result is not None:
                # The partial columnar feed above may have advanced the
                # accumulator before the fault surfaced; salvage replays
                # the file from scratch, so start clean.
                accumulator = SummaryAccumulator(
                    names, width_bits=result.meta.counter_width_bits
                )
                accumulator.feed_columns(result.records)
                status = "salvaged"
                records = len(result.records)
                defects = len(result.defects)
                label = result.meta.label
                version = result.meta.version
                error = ""
                if writer is not None:
                    writer.count("fleet.records.decoded", records)
                    writer.count("fleet.salvage.recoveries")
                    writer.count("fleet.salvage.defects", defects)
                    writer.observe(
                        "fleet.stage.salvage_us",
                        (time.perf_counter() - salvage_started) * 1e6,
                    )
    if writer is not None:
        writer.count(
            "fleet.captures.ingested" if status != "failed"
            else "fleet.captures.failed"
        )
    if status == "failed":
        accumulator = None
    else:
        accumulator.close()
    elapsed_us = int((time.perf_counter() - started) * 1e6)
    report = CaptureReport(
        index=-1,  # stamped by the caller, which knows the plan index
        path=path,
        status=status,
        records=records,
        defects=defects,
        error=error,
        label=label,
        version=version,
        elapsed_us=elapsed_us,
    )
    return report, accumulator


def _pool_ingest_one(
    index: int, path: str
) -> Tuple[int, CaptureReport, Optional[SummaryAccumulator]]:
    """The pool task: ingest one capture with the worker's primed state."""
    assert _worker_names is not None, "worker not initialised"
    report, accumulator = _summarize_one(
        path, _worker_names, _worker_salvage, _worker_writer
    )
    return index, dataclasses.replace(report, index=index), accumulator


# -- parent side ---------------------------------------------------------------


def merge_fleet(
    names: NameTable,
    shards: Iterable[Tuple[int, Optional[SummaryAccumulator]]],
) -> Optional[SummaryAccumulator]:
    """Fold per-capture accumulators in strict plan order.

    *shards* may arrive in any order (pool completion order is
    nondeterministic); the fold sorts by plan index first, so the merged
    summary — including anomaly order — is a pure function of the plan.
    Returns ``None`` when no capture contributed.
    """
    ordered = sorted(
        (pair for pair in shards if pair[1] is not None), key=lambda p: p[0]
    )
    merged: Optional[SummaryAccumulator] = None
    for _, accumulator in ordered:
        if merged is None:
            merged = SummaryAccumulator(names)
        merged.merge(accumulator)
    return merged


def resolve_jobs(jobs: Optional[int]) -> int:
    """Clamp a ``--jobs`` request to something the host can run."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise FleetError(f"--jobs needs at least 1 worker, got {jobs}")
    return jobs


def ingest_fleet(
    plan_or_root: Union[str, Path, FleetPlan],
    names: NameTable,
    *,
    jobs: int = 1,
    salvage: str = "off",
    arena: Optional[MetricsArena] = None,
    progress: Optional[Callable[[int], None]] = None,
) -> FleetResult:
    """Ingest a whole fleet: plan, decode in parallel, merge in order.

    ``jobs=1`` runs inline in this process (the sequential reference);
    ``jobs>1`` spins a fork-context :class:`ProcessPoolExecutor` whose
    workers share *arena* (one is created and torn down internally when
    the caller does not pass one — pass your own to keep the metrics
    alive across passes, as serve mode does).  The merged summary is
    byte-identical across all worker counts.
    """
    check_salvage_mode(salvage)
    jobs = resolve_jobs(jobs)
    plan = (
        plan_or_root
        if isinstance(plan_or_root, FleetPlan)
        else plan_fleet(plan_or_root)
    )
    own_arena = arena is None
    if own_arena:
        arena = fleet_arena(max(jobs, 1))
    started = time.perf_counter()
    reports: List[CaptureReport] = []
    shards: List[Tuple[int, Optional[SummaryAccumulator]]] = []
    try:
        if jobs == 1 or len(plan) <= 1:
            writer = arena.writer(0)
            for capture in plan.captures:
                report, accumulator = _summarize_one(
                    capture.path, names, salvage, writer
                )
                reports.append(
                    dataclasses.replace(report, index=capture.index)
                )
                shards.append((capture.index, accumulator))
                if progress is not None:
                    progress(1)
        else:
            # One stripe per worker: a pool of `jobs` processes gets
            # `jobs` consecutive identities, and consecutive values
            # modulo `jobs` stripes are pairwise distinct — so the
            # single-writer contract holds even when serve mode builds
            # a fresh pool per poll and identities keep counting up.
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=context,
                initializer=_init_worker,
                initargs=(arena, names, salvage),
            ) as pool:
                futures = [
                    pool.submit(_pool_ingest_one, capture.index, capture.path)
                    for capture in plan.captures
                ]
                try:
                    for future in futures:
                        index, report, accumulator = future.result()
                        reports.append(report)
                        shards.append((index, accumulator))
                        if progress is not None:
                            progress(1)
                except KeyboardInterrupt:
                    # Drain what is in flight, cancel the rest: workers
                    # ignore SIGINT, so in-progress captures complete and
                    # the pool exits instead of hanging.
                    for future in futures:
                        future.cancel()
                    raise
            reports.sort(key=lambda r: r.index)
        merged = merge_fleet(names, shards)
        elapsed = time.perf_counter() - started
        return FleetResult(
            plan=plan,
            reports=reports,
            accumulator=merged,
            jobs=jobs,
            elapsed_s=elapsed,
        )
    finally:
        if own_arena:
            arena.close()
            arena.unlink()


def format_fleet_summary(
    result: FleetResult, *, limit: Optional[int] = 12
) -> str:
    """The deterministic fleet report: totals header + merged summary."""
    lines = [
        f"fleet: {len(result.plan)} capture(s) under {result.plan.root}",
        f"ingested={result.ingested} salvaged={result.salvaged} "
        f"failed={result.failed} records={result.records}",
    ]
    if result.accumulator is not None:
        lines.append(result.accumulator.summary().format(limit=limit))
    else:
        lines.append("(no captures contributed events)")
    return "\n".join(lines)
