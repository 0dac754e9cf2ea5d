"""Fleet ingestion: a directory of MPF captures as one profiling corpus.

The paper analyses one 16384-event capture at a time; the fleet engine
treats thousands of them — an inbox drained by ``repro fleet serve`` or
a corpus handed to ``repro fleet ingest`` — as a single unit of work.

:func:`read_corpus` is the one corpus walker, shared by ``fleet``,
``db ingest`` and ``coverage``: it reads each capture's bytes once,
applies one fault and salvage rule, feeds the records to a sink the
caller supplies, and yields one :class:`CorpusRow` per capture in path
order.  With ``jobs > 1`` the captures run in one fork-context process
pool.  Each row carries its capture's stage times back with its result,
so the parent records the ``fleet.*`` metrics as rows arrive.

Two design rules for the fleet, in priority order:

1. **Determinism.**  The merged fleet summary is byte-identical no
   matter how many workers ran or in what order they finished.  Each
   capture's sink is one sealed
   :class:`~repro.analysis.summary.SummaryAccumulator`; the parent folds
   them with :meth:`~repro.analysis.summary.SummaryAccumulator.merge`
   strictly in plan order (path-sorted), never completion order.
   ``--jobs 1`` walks inline through the *same* per-capture code, which
   is what the CI smoke job diffs against.
2. **The one fold per capture.**  Each capture runs the same columnar
   fold as ``repro analyze``
   (:func:`~repro.profiler.upload.iter_capture_columns` feeding
   :meth:`~repro.analysis.summary.SummaryAccumulator.feed_columns`), and
   the pool adds capture-level parallelism on top.

Salvage mirrors ``repro analyze --salvage``: off, any decode fault fails
the capture; on, the faulty bytes go through the ``capture doctor``
salvaging decoder and whatever survived is folded, tagging the capture's
row ``salvaged``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import multiprocessing
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.summary import SummaryAccumulator
from repro.instrument.namefile import NameTable
from repro.profiler.upload import (
    CaptureMeta,
    cached_capture_meta,
    iter_capture_columns,
    read_capture_meta,
    salvage_capture_bytes,
)
from repro.telemetry import TELEMETRY

#: File patterns a directory sweep picks up.
FLEET_PATTERNS: Tuple[str, ...] = ("*.mpf", "*.mpf.corrupt")

#: Counters every fleet ingest records (the README metric catalog).
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

#: Per-stage latency histograms every fleet ingest records.
FLEET_HISTOGRAMS: Tuple[Tuple[str, Tuple[float, ...]], ...] = (
    ("fleet.stage.probe_us", STAGE_BUCKETS_US),
    ("fleet.stage.decode_us", STAGE_BUCKETS_US),
    ("fleet.stage.salvage_us", STAGE_BUCKETS_US),
)


class FleetError(ValueError):
    """The fleet engine was asked something impossible."""


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


@dataclasses.dataclass(frozen=True)
class CaptureReport:
    """What happened to one capture during ingestion.

    ``status`` is ``ok`` (clean columnar decode), ``salvaged`` (doctor
    recovered records from a damaged file), or ``failed`` (nothing
    usable; ``error`` says why).  ``elapsed_us`` is the wall time of the
    walker stages the capture passed — informational only, excluded from
    deterministic output.
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

        Deterministic by default; ``timings=True`` adds the per-capture
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


def discover_captures(paths: Sequence[Union[str, Path]]) -> List[str]:
    """Expand files/directories into a path-sorted capture list.

    Directories are swept for :data:`FLEET_PATTERNS`; explicit files are
    taken as given (whatever their suffix).  The result is sorted and
    de-duplicated so the walk order — and therefore every report row
    index — is a pure function of the arguments.
    """
    found: set = set()
    for item in paths:
        p = Path(item)
        if p.is_dir():
            for pattern in FLEET_PATTERNS:
                found.update(str(hit) for hit in p.glob(pattern) if hit.is_file())
        else:
            found.add(str(p))
    return sorted(found)


def plan_fleet(root: Union[str, Path]) -> FleetPlan:
    """Sweep *root* for capture files and build the deterministic plan.

    Every header is probed through the ``(path, mtime, size)`` cache
    (:func:`~repro.profiler.upload.cached_capture_meta`) for the P5xx
    plan lint, so a serve-mode rescan of an unchanged inbox costs one
    ``stat()`` per file; unreadable headers land in the plan with
    ``probe_error`` set rather than aborting the sweep (the walker
    decides whether salvage can still use them).
    """
    if not Path(root).is_dir():
        raise FleetError(f"fleet root {str(root)!r} is not a directory")
    captures: List[FleetCapture] = []
    for index, path in enumerate(discover_captures([root])):
        meta: Optional[CaptureMeta] = None
        error = ""
        try:
            meta = cached_capture_meta(path)
        except (OSError, ValueError) as exc:
            error = str(exc)
        captures.append(FleetCapture(index, path, meta, error))
    return FleetPlan(root=str(root), captures=tuple(captures))


# -- the corpus walker -----------------------------------------------------------


@dataclasses.dataclass
class CorpusRow:
    """One capture as :func:`read_corpus` read it.

    ``status`` is ``ok`` (clean decode), ``salvaged`` (the salvaging
    decoder recovered records from damaged bytes), ``skipped`` (the
    fingerprint was in the caller's skip set; nothing was decoded) or
    ``failed`` (``error`` says why; no records and no sink).
    ``fingerprint`` is the SHA-256 of the file's bytes (empty when they
    could not be read).  ``meta`` is the header the records were read
    under — the salvager's for a salvaged capture — or ``None`` when no
    header could be read.  ``stage_us`` maps each stage the capture
    passed (``probe``, ``decode``, ``salvage``) to its wall time in
    microseconds, and ``sink`` is the fed and closed sink.
    """

    path: str
    status: str
    records: int = 0
    defects: int = 0
    error: str = ""
    fingerprint: str = ""
    meta: Optional[CaptureMeta] = None
    stage_us: Dict[str, float] = dataclasses.field(default_factory=dict)
    sink: Any = None

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "salvaged")


#: Builds one capture's sink from its header: an object with
#: ``feed_columns(columns)`` and ``close()``.  It must pickle (a
#: module-level callable, or a :func:`functools.partial` of one) when
#: the walker runs a pool.
SinkFactory = Callable[[CaptureMeta], Any]


def new_summary(names: NameTable, meta: CaptureMeta) -> SummaryAccumulator:
    """The summary sink of ``fleet`` and ``db``: a fold at the capture's
    counter width.  Bind *names* with :func:`functools.partial`."""
    return SummaryAccumulator(names, width_bits=meta.counter_width_bits)


def _fold(
    new_sink: SinkFactory, meta: CaptureMeta, batches: Iterable[Any]
) -> Tuple[Any, int]:
    """A fresh sink for *meta*, fed every batch and closed; plus the
    record count."""
    sink = new_sink(meta)
    records = 0
    for batch in batches:
        sink.feed_columns(batch)
        records += len(batch)
    sink.close()
    return sink, records


def _read_capture(
    path: str, new_sink: SinkFactory, salvage: bool, skip: Collection[str]
) -> CorpusRow:
    """The walker's unit of work: one capture, bytes to sealed sink."""
    started = time.perf_counter()
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        return CorpusRow(path, "failed", error=str(exc))
    row = CorpusRow(path, "failed", fingerprint=hashlib.sha256(blob).hexdigest())
    if row.fingerprint in skip:
        row.status = "skipped"
        return row
    try:
        row.meta = read_capture_meta(io.BytesIO(blob))
        probed = time.perf_counter()
        row.stage_us["probe"] = (probed - started) * 1e6
        row.sink, row.records = _fold(
            new_sink, row.meta, iter_capture_columns(io.BytesIO(blob))
        )
        row.status = "ok"
        row.stage_us["decode"] = (time.perf_counter() - probed) * 1e6
        return row
    except ValueError as exc:  # CaptureFormatError is one
        row.error = str(exc)
    if not salvage:
        return row
    salvaging = time.perf_counter()
    result = salvage_capture_bytes(blob)
    row.defects = len(result.defects)
    if result.meta.version == 0:
        row.error = "not recognisably a capture: " + "; ".join(
            d.message for d in result.defects[:2]
        )
        return row
    row.meta = result.meta
    try:
        row.sink, row.records = _fold(new_sink, result.meta, (result.records,))
    except ValueError as exc:
        row.error = str(exc)
        return row
    row.status, row.error = "salvaged", ""
    row.stage_us["salvage"] = (time.perf_counter() - salvaging) * 1e6
    return row


def read_corpus(
    paths: Sequence[str],
    new_sink: SinkFactory,
    *,
    salvage: bool = False,
    jobs: int = 1,
    skip: Collection[str] = frozenset(),
) -> Iterator[CorpusRow]:
    """Read every capture in *paths*; yield one :class:`CorpusRow` each,
    in the order of *paths*.

    Per capture: the bytes are read once and fingerprinted; a
    fingerprint in *skip* yields a ``skipped`` row with no decode.
    Otherwise the header is probed, ``new_sink(meta)`` is fed every
    :func:`~repro.profiler.upload.iter_capture_columns` batch and
    closed.  A format fault or :class:`ValueError` from the probe, the
    reader or the sink fails the row — unless *salvage* is on, in which
    case :func:`~repro.profiler.upload.salvage_capture_bytes` runs on
    the same bytes and a fresh sink is fed what it recovered.  Failed
    rows carry no records and no sink; their defect count is the
    salvager's when salvage ran.

    ``jobs > 1`` runs the captures in one fork-context process pool
    whose workers ignore SIGINT: Ctrl-C lands in the parent, which
    cancels the captures not yet started while those in flight finish.
    """
    if jobs == 1 or len(paths) <= 1:
        for path in paths:
            yield _read_capture(path, new_sink, salvage, skip)
        return
    with ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=multiprocessing.get_context("fork"),
        initializer=signal.signal,
        initargs=(signal.SIGINT, signal.SIG_IGN),
    ) as pool:
        futures = [
            pool.submit(_read_capture, path, new_sink, salvage, skip)
            for path in paths
        ]
        try:
            for future in futures:
                yield future.result()
        finally:
            for future in futures:
                future.cancel()


# -- the fleet on top of the walker ------------------------------------------------


def register_fleet_metrics() -> None:
    """Register the whole fleet catalog, so every instrument scrapes from
    the start, even at zero."""
    for name in FLEET_COUNTERS:
        TELEMETRY.counter(name)
    for name, buckets in FLEET_HISTOGRAMS:
        TELEMETRY.histogram(name, buckets=buckets)


def _record_fleet_metrics(row: CorpusRow) -> None:
    if row.ok:
        TELEMETRY.count("fleet.captures.ingested")
        TELEMETRY.count("fleet.records.decoded", row.records)
    else:
        TELEMETRY.count("fleet.captures.failed")
    if row.status == "salvaged":
        TELEMETRY.count("fleet.salvage.recoveries")
        TELEMETRY.count("fleet.salvage.defects", row.defects)
    for stage, elapsed_us in row.stage_us.items():
        TELEMETRY.observe(f"fleet.stage.{stage}_us", elapsed_us)


def merge_fleet(
    names: NameTable,
    shards: Iterable[Tuple[int, Optional[SummaryAccumulator]]],
) -> Optional[SummaryAccumulator]:
    """Fold per-capture accumulators in strict plan order.

    *shards* may arrive in any order; the fold sorts by plan index
    first, so the merged summary — including anomaly order — is a pure
    function of the plan.  Returns ``None`` when no capture contributed.
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
    salvage: bool = False,
    progress: Optional[Callable[[int], None]] = None,
) -> FleetResult:
    """Ingest a whole fleet: plan, walk the corpus, merge in plan order.

    ``jobs=1`` walks inline in this process (the sequential reference);
    ``jobs>1`` runs the walker's process pool.  The merged summary is
    byte-identical across all worker counts.  With telemetry enabled,
    each capture's ``fleet.*`` metrics are recorded as its row arrives.
    """
    jobs = resolve_jobs(jobs)
    plan = (
        plan_or_root
        if isinstance(plan_or_root, FleetPlan)
        else plan_fleet(plan_or_root)
    )
    if TELEMETRY.enabled:
        register_fleet_metrics()
    started = time.perf_counter()
    reports: List[CaptureReport] = []
    shards: List[Tuple[int, Optional[SummaryAccumulator]]] = []
    rows = read_corpus(
        [capture.path for capture in plan.captures],
        functools.partial(new_summary, names),
        salvage=salvage,
        jobs=jobs,
    )
    with contextlib.closing(rows):
        for row, capture in zip(rows, plan.captures):
            _record_fleet_metrics(row)
            reports.append(
                CaptureReport(
                    index=capture.index,
                    path=row.path,
                    status=row.status,
                    records=row.records,
                    defects=row.defects,
                    error=row.error,
                    label=row.meta.label if row.meta is not None else "",
                    version=row.meta.version if row.meta is not None else 0,
                    elapsed_us=int(sum(row.stage_us.values())),
                )
            )
            shards.append((capture.index, row.sink))
            if progress is not None:
                progress(1)
    return FleetResult(
        plan=plan,
        reports=reports,
        accumulator=merge_fleet(names, shards),
        jobs=jobs,
        elapsed_s=time.perf_counter() - started,
    )


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
