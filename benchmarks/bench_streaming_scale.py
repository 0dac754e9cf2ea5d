"""SCALE — the summary fold against a million-event stream.

The paper's board holds 16384 events; this benchmark plays the long-run
scenario the fold exists for: a synthetic stream of one million records
(many thousand scheduling blocks, dozens of 24-bit timer wraps)
summarised three ways —

* reference tree: decode every record to an event object, build the
  full call forest one event at a time (``oracles.reference_call_tree``),
  summarise;
* call tree: the program's tree, the fold with a tree recorder attached;
* fold: one pass of :class:`SummaryAccumulator` over column batches, no
  tree — the engine behind every summary the program prints.

Asserted claims: the fold is at least 3x faster than the per-event
reference tree in wall-clock, all three produce byte-identical summary
text, and the fold's
peak memory is bounded (a 10x longer stream must not cost even 2x the
peak).  A second test checks the same byte-identity on the real Figure 3
and Figure 5 workloads.

The decode leg benchmarks the columnar shear decoder
(:func:`decode_record_columns`) against the per-record reference loader
of ``tests/oracles.py`` over the same million-event stream, plus the
full capture-file ingest both ways.  The columnar result is verified
lossless (it re-serialises to the exact input bytes) before any timing
claim is made.

Environment knobs (the CI decode-parity job uses both)::

    REPRO_DECODE_EVENTS       events in the decode leg (default 1000000)
    REPRO_DECODE_MIN_SPEEDUP  asserted speedup floor (default 3.0); the
                              10x target is reported, and missing it
                              warns rather than fails
"""

from __future__ import annotations

import io
import os
import sys
import time
import tracemalloc
import warnings
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

from paperbench import once

from repro.analysis.callstack import analyze_capture
from repro.analysis.summary import summarize, summarize_columns
from repro.profiler.upload import (
    RecordColumns,
    decode_record_columns,
    iter_capture_columns,
    write_capture_file,
)
from repro.instrument.namefile import NameTable
from repro.instrument.tags import TagEntry
from repro.profiler.ram import RawRecord
from repro.system import build_case_study

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import oracles  # noqa: E402 - the per-record reference decoders
from stream_helpers import capture_from_records, columns_of, record_bytes  # noqa: E402

MASK = (1 << 24) - 1


def _scale_names() -> NameTable:
    """Eight rotating kernel functions plus the context-switch marker."""
    table = NameTable()
    for i in range(8):
        table.add(TagEntry(name=f"kfunc{i}", value=500 + 2 * i))
    table.add(TagEntry(name="swtch", value=600, context_switch=True))
    return table


SCALE_NAMES = _scale_names()


def synthetic_stream(total_events: int) -> Iterator[RawRecord]:
    """A deterministic stream of scheduling blocks, lazily generated.

    Each 8-record block is one scheduling quantum: ``swtch`` exit, three
    nested-free call pairs over rotating functions, ``swtch`` entry.  The
    24-bit counter wraps naturally every ~16.8 s of simulated time.
    """
    entries = [SCALE_NAMES.by_name(f"kfunc{i}") for i in range(8)]
    swtch = SCALE_NAMES.by_name("swtch")
    t = 0
    emitted = 0
    block = 0
    while emitted < total_events:
        yield RawRecord(tag=swtch.exit_value, time=t & MASK)
        emitted += 1
        t += 7
        for k in range(3):
            if emitted >= total_events:
                return
            fn = entries[(block + k) % 8]
            yield RawRecord(tag=fn.entry_value, time=t & MASK)
            emitted += 1
            t += 11
            if emitted >= total_events:
                return
            yield RawRecord(tag=fn.exit_value, time=t & MASK)
            emitted += 1
            t += 5
        if emitted >= total_events:
            return
        yield RawRecord(tag=swtch.entry_value, time=t & MASK)
        emitted += 1
        t += 23
        block += 1


def column_batches(records: Iterable[RawRecord], size: int = 8192) -> Iterator[RecordColumns]:
    """*records* sheared into column batches of *size*, lazily."""
    iterator = iter(records)
    while True:
        chunk = list(islice(iterator, size))
        if not chunk:
            return
        yield columns_of(chunk)


def run_scale(total_events: int) -> dict:
    records = list(synthetic_stream(total_events))
    capture = capture_from_records(records, SCALE_NAMES, label="scale")

    start = time.perf_counter()
    batch = summarize(
        oracles.reference_call_tree(list(oracles.decoded_events(records, SCALE_NAMES)))
    )
    batch_s = time.perf_counter() - start

    start = time.perf_counter()
    tree = summarize(analyze_capture(capture))
    tree_s = time.perf_counter() - start

    start = time.perf_counter()
    folded = summarize_columns(column_batches(records), SCALE_NAMES)
    stream_s = time.perf_counter() - start

    return {
        "events": len(records),
        "batch_s": batch_s,
        "tree_s": tree_s,
        "stream_s": stream_s,
        "batch_text": batch.format(),
        "tree_text": tree.format(),
        "stream_text": folded.format(),
    }


def test_scale_million_events(benchmark, comparison):
    result = once(benchmark, run_scale, 1_000_000)

    stream_x = result["batch_s"] / result["stream_s"]
    comparison.row("events analysed", "1000000", result["events"])
    comparison.row("reference-tree wall", "--", f"{result['batch_s']:.2f} s")
    comparison.row("call-tree wall (fold + recorder)", "--", f"{result['tree_s']:.2f} s")
    comparison.row("fold wall", ">= 3x faster", f"{result['stream_s']:.2f} s")
    comparison.row("fold speedup", ">= 3x", f"{stream_x:.1f}x")

    assert result["events"] == 1_000_000
    # The scaling claim: the bounded-memory fold beats the per-event
    # reference tree by >= 3x ...
    assert result["stream_s"] * 3 <= result["batch_s"], (
        f"the fold is only {stream_x:.2f}x faster than the reference tree"
    )
    # ... and every reconstruction prints the same summary.
    assert result["stream_text"] == result["batch_text"] == result["tree_text"]


DECODE_TARGET_SPEEDUP = 10.0


def decode_events() -> int:
    return int(os.environ.get("REPRO_DECODE_EVENTS", 1_000_000))


def decode_min_speedup() -> float:
    return float(os.environ.get("REPRO_DECODE_MIN_SPEEDUP", 3.0))


def run_decode_leg(total_events: int) -> dict:
    records = list(synthetic_stream(total_events))
    blob = record_bytes(records)
    capture_file = io.BytesIO()
    write_capture_file(capture_file, decode_record_columns(blob))
    capture_blob = capture_file.getvalue()

    start = time.perf_counter()
    reference = oracles.load_records(blob)
    reference_s = time.perf_counter() - start

    start = time.perf_counter()
    columns = decode_record_columns(blob)
    columnar_s = time.perf_counter() - start

    # Losslessness before any timing claim: the shear re-serialises to
    # the exact input bytes, and spot records match the reference.
    assert columns.to_bytes() == blob
    assert len(columns) == len(reference)
    stride = max(1, len(reference) // 997)
    for i in range(0, len(reference), stride):
        assert columns.record(i) == reference[i]

    start = time.perf_counter()
    file_reference = sum(1 for _ in oracles.iter_capture_file(io.BytesIO(capture_blob)))
    file_reference_s = time.perf_counter() - start

    start = time.perf_counter()
    file_columnar = sum(
        len(batch) for batch in iter_capture_columns(io.BytesIO(capture_blob))
    )
    file_columnar_s = time.perf_counter() - start
    assert file_reference == file_columnar == total_events

    return {
        "events": total_events,
        "reference_s": reference_s,
        "columnar_s": columnar_s,
        "file_reference_s": file_reference_s,
        "file_columnar_s": file_columnar_s,
        "columnar_events_per_sec": total_events / columnar_s,
    }


def test_decode_leg_speedup(benchmark, comparison):
    result = once(benchmark, run_decode_leg, decode_events())
    speedup = result["reference_s"] / result["columnar_s"]
    file_speedup = result["file_reference_s"] / result["file_columnar_s"]
    floor = decode_min_speedup()

    comparison.row("decode leg events", str(decode_events()), result["events"])
    comparison.row("reference decode", "--", f"{result['reference_s'] * 1e3:.0f} ms")
    comparison.row("columnar decode", "--", f"{result['columnar_s'] * 1e3:.0f} ms")
    comparison.row(
        "columnar throughput",
        "--",
        f"{result['columnar_events_per_sec'] / 1e6:.1f} M events/s",
    )
    comparison.row(
        "blob decode speedup", f">= {DECODE_TARGET_SPEEDUP:.0f}x", f"{speedup:.1f}x"
    )
    comparison.row("capture-file ingest speedup", "reported", f"{file_speedup:.1f}x")

    if speedup < DECODE_TARGET_SPEEDUP:
        warnings.warn(
            f"columnar decode only {speedup:.1f}x over reference, below the "
            f"{DECODE_TARGET_SPEEDUP:.0f}x target (hard floor {floor:.0f}x)",
            stacklevel=1,
        )
    assert speedup >= floor, (
        f"columnar decode {speedup:.2f}x over reference, below the "
        f"{floor:.1f}x hard floor (REPRO_DECODE_MIN_SPEEDUP)"
    )


def streaming_peak_bytes(total_events: int) -> int:
    """Peak allocation of the fold fed straight off a generator."""
    stream = column_batches(synthetic_stream(total_events))
    tracemalloc.start()
    try:
        summarize_columns(stream, SCALE_NAMES)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_scale_bounded_memory(comparison):
    small = streaming_peak_bytes(100_000)
    large = streaming_peak_bytes(1_000_000)
    comparison.row("peak RSS @ 100k events", "O(chunk)", f"{small / 1024:.0f} KiB")
    comparison.row("peak RSS @ 1M events", "O(chunk)", f"{large / 1024:.0f} KiB")
    # 10x the events must not cost even 2x the peak: memory is bounded by
    # open-call depth + live table size, not by trace length.
    assert large < 2 * small + 64 * 1024, (
        f"fold peak grew from {small} to {large} bytes over 10x events"
    )


def figure_parity(workload: str) -> tuple[str, str]:
    system = build_case_study()
    if workload == "figure3":
        from repro.workloads.network_recv import network_receive

        capture = system.profile(
            lambda: network_receive(system.kernel, total_packets=20),
            label="TCP receive (Figure 3)",
        )
    else:
        from repro.workloads.forkexec import fork_exec_storm

        capture = system.profile(
            lambda: fork_exec_storm(system.kernel, iterations=2),
            label="fork/exec storm (Figure 5)",
        )
    batch = summarize(system.analyze(capture)).format()
    folded = system.summarize(capture).format()
    return batch, folded


def test_figure3_reports_byte_identical(benchmark, comparison):
    batch, folded = once(benchmark, figure_parity, "figure3")
    comparison.row("Figure 3 fold == call tree", "identical", folded == batch)
    assert folded == batch


def test_figure5_reports_byte_identical(benchmark, comparison):
    batch, folded = once(benchmark, figure_parity, "figure5")
    comparison.row("Figure 5 fold == call tree", "identical", folded == batch)
    assert folded == batch
