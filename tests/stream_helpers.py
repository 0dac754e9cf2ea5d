"""Synthetic event-stream builders shared across the test suite."""

from __future__ import annotations

from array import array
from pathlib import Path
from typing import Iterable

from repro.instrument.namefile import NameTable
from repro.instrument.tags import TagEntry
from repro.profiler.capture import Capture
from repro.profiler.ram import U32_TYPECODE, RawRecord, RecordColumns
from repro.profiler.upload import (
    iter_capture_columns,
    read_capture,
    salvage_capture,
    write_capture_file,
)

TIME_MASK = (1 << 24) - 1


def columns_of(records: Iterable[RawRecord]) -> RecordColumns:
    """The columns holding *records*, field by field."""
    records = list(records)
    return RecordColumns(
        tags=array("H", [record.tag for record in records]),
        times=array(U32_TYPECODE, [record.time for record in records]),
    )


def record_bytes(records: Iterable[RawRecord]) -> bytes:
    """*records* as the 5-byte-per-record wire stream."""
    return b"".join(record.pack() for record in records)


def read_records(path_or_file) -> list[RawRecord]:
    """The records :func:`read_capture` reads, one object each."""
    return read_capture(path_or_file)[0].to_records()


def iter_records(path_or_file, **options):
    """The records of :func:`iter_capture_columns`, batch by batch, one
    object each."""
    for batch in iter_capture_columns(path_or_file, **options):
        yield from batch.to_records()


def salvage_records(path_or_file) -> tuple[list[RawRecord], list]:
    """What :func:`salvage_capture` recovers: the records, one object
    each, and the defects it tolerated."""
    result = salvage_capture(path_or_file)
    return result.records.to_records(), result.defects


def capture_from_records(
    records: Iterable[RawRecord], names: NameTable, label: str = "synthetic", **fields
) -> Capture:
    """A :class:`Capture` of hand-made *records* (``fields`` set the rest)."""
    return Capture(records=columns_of(records), names=names, label=label, **fields)


def make_names(*specs: tuple) -> NameTable:
    """Build a name table from ``(name, value[, modifier])`` tuples.

    Modifier ``"!"`` marks a context switch, ``"="`` an inline tag.
    """
    table = NameTable()
    for spec in specs:
        name, value = spec[0], spec[1]
        modifier = spec[2] if len(spec) > 2 else ""
        table.add(
            TagEntry(
                name=name,
                value=value,
                context_switch="!" in modifier,
                inline="=" in modifier,
            )
        )
    return table


def stream(names: NameTable, *steps: tuple[str, str, int]) -> Capture:
    """Build a capture from ``(op, name, time_us)`` steps.

    ``op`` is ``">"`` (entry), ``"<"`` (exit) or ``"="`` (inline).  Times
    are absolute microseconds; the builder wraps them into the 24-bit
    counter exactly as the hardware would.
    """
    records = []
    for op, name, time_us in steps:
        entry = names.by_name(name)
        if op == ">":
            tag = entry.entry_value
        elif op == "<":
            tag = entry.exit_value
        elif op == "=":
            tag = entry.entry_value
        else:
            raise ValueError(f"bad op {op!r}")
        records.append(RawRecord(tag=tag, time=time_us & TIME_MASK))
    return capture_from_records(records, names)


def fleet_names() -> NameTable:
    """The standard name table the fleet corpus builders decode with."""
    return make_names(
        ("main", 500),
        ("work", 502),
        ("spin", 506),
        ("swtch", 504, "!"),
    )


def synth_capture_records(index: int, events: int) -> list[RawRecord]:
    """Deterministic records for synthetic fleet capture *index*.

    A ``main`` frame wrapping ``events//2 - 1`` alternating ``work`` /
    ``spin`` calls, with per-capture time steps so no two captures in a
    corpus summarise identically — a merge-order bug cannot hide behind
    identical shards.  Pure function of ``(index, events)``.
    """
    names = fleet_names()
    main = names.by_name("main")
    inner = [names.by_name("work"), names.by_name("spin")]
    step = 7 + (index % 5)
    t = (index * 9973) & TIME_MASK
    records = [RawRecord(tag=main.entry_value, time=t)]
    calls = max(1, events // 2 - 1)
    for call in range(calls):
        entry = inner[call % 2]
        t = (t + step) & TIME_MASK
        records.append(RawRecord(tag=entry.entry_value, time=t))
        t = (t + step + (call % 3)) & TIME_MASK
        records.append(RawRecord(tag=entry.exit_value, time=t))
    t = (t + step) & TIME_MASK
    records.append(RawRecord(tag=main.exit_value, time=t))
    return records


def regression_records(
    run: int, *, spin_us: int, calls: int = 4
) -> list[RawRecord]:
    """Records for one run of the db-diff regression substrate.

    ``main`` wraps *calls* alternating ``work``/``spin`` pairs; ``work``
    always costs ~100 µs, ``spin`` costs *spin_us* — the seeded-slowdown
    knob.  Per-run jitter of a few µs (deterministic in *run*) gives a
    pool of repeated runs a real, small noise estimate, so raising
    ``spin_us`` on one side is movement far beyond noise while every
    other function stays inside it.
    """
    names = fleet_names()
    main = names.by_name("main")
    work = names.by_name("work")
    spin = names.by_name("spin")
    jitter = run % 3  # 0/1/2 us: nonzero sample std across >= 3 runs
    t = 0
    records = [RawRecord(tag=main.entry_value, time=t)]
    for _ in range(calls):
        t += 10
        records.append(RawRecord(tag=work.entry_value, time=t & TIME_MASK))
        t += 100 + jitter
        records.append(RawRecord(tag=work.exit_value, time=t & TIME_MASK))
        t += 10
        records.append(RawRecord(tag=spin.entry_value, time=t & TIME_MASK))
        t += spin_us + jitter
        records.append(RawRecord(tag=spin.exit_value, time=t & TIME_MASK))
    t += 10
    records.append(RawRecord(tag=main.exit_value, time=t & TIME_MASK))
    return records


def build_regression_corpus(
    root: Path, *, label: str, runs: int, spin_us: int
) -> NameTable:
    """Write *runs* repeat captures of one workload state under *root*.

    All captures carry the same *label*, so ``repro db diff`` pools them
    into one side's noise estimate; returns the name table to decode
    with.  Baseline and candidate corpora differ only in ``spin_us``.
    """
    root.mkdir(parents=True, exist_ok=True)
    for run in range(runs):
        write_capture_file(
            root / f"{label}_{run:02d}.mpf",
            columns_of(regression_records(run, spin_us=spin_us)),
            label=label,
        )
    return fleet_names()


def build_fleet_corpus(
    root: Path, captures: int, events: int = 64
) -> NameTable:
    """Write a synthetic MPF2 corpus under *root*; returns its names.

    Files are ``cap_0000.mpf`` … so lexical order equals build order,
    which keeps fleet plans (path-sorted) easy to reason about in tests
    and benchmarks.
    """
    root.mkdir(parents=True, exist_ok=True)
    for index in range(captures):
        write_capture_file(
            root / f"cap_{index:04d}.mpf",
            columns_of(synth_capture_records(index, events)),
            label=f"cap-{index:04d}",
        )
    return fleet_names()


