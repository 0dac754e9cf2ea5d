"""Property-style parity tests: the summary fold == the call tree.

Fifty randomly generated traces (fixed seeds, no wall clock anywhere) are
summarised by the fold — whole, and fed in small column batches — and by
the standalone reference reconstruction of ``oracles.py``; the summaries
must be byte-identical and the fold's anomaly list must match the
reference's exactly.  The generator
deliberately produces *hostile* streams — random nesting, unmatched
exits, context switches mid-call, inline marks, and time deltas large
enough to wrap the 24-bit counter many times — because the parity claim
is about the fold, not about well-formed kernels.
"""

from __future__ import annotations

import pathlib
import random

import pytest

import oracles
from stream_helpers import columns_of, make_names

from repro.analysis import columnar
from repro.analysis.callstack import analyze_capture
from repro.analysis.summary import (
    SummaryAccumulator,
    fold_columns,
    summarize,
    summarize_capture,
)
from repro.instrument.namefile import NameTable
from repro.profiler.ram import RawRecord, RecordColumns
from repro.profiler.upload import read_capture

MASK = (1 << 24) - 1
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

NAMES = make_names(
    ("alpha", 500),
    ("bravo", 502),
    ("charlie", 504),
    ("delta", 506),
    ("echo", 508),
    ("foxtrot", 510),
    ("swtch", 600, "!"),
    ("MARK", 1002, "="),
)

FUNCTIONS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]


def random_records(seed: int, length: int = 400, wild_deltas: bool = False):
    """A hostile-but-deterministic record stream.

    The walk keeps a rough notion of the open stack so most events nest
    sensibly, then injects unmatched exits, surprise context switches and
    inline marks.  With ``wild_deltas`` the time steps reach a quarter of
    the counter range, so a 400-event trace wraps the counter ~25 times.
    """
    rng = random.Random(seed)
    records = []
    t = rng.randrange(1 << 24)  # random phase: wraps land anywhere
    depth = 0
    for _ in range(length):
        roll = rng.random()
        if roll < 0.04:
            entry = NAMES.by_name("swtch")
            tag = entry.entry_value if rng.random() < 0.5 else entry.exit_value
        elif roll < 0.08:
            tag = NAMES.by_name("MARK").entry_value
        elif roll < 0.16:
            # Unmatched / mismatched exit of a random function.
            tag = NAMES.by_name(rng.choice(FUNCTIONS)).exit_value
            depth = max(0, depth - 1)
        elif depth > 0 and roll < 0.55:
            tag = NAMES.by_name(rng.choice(FUNCTIONS)).exit_value
            depth -= 1
        else:
            tag = NAMES.by_name(rng.choice(FUNCTIONS)).entry_value
            depth += 1
        records.append(RawRecord(tag=tag, time=t & MASK))
        if wild_deltas:
            t += rng.randrange(1, 1 << 22)
        else:
            t += rng.randrange(1, 400)
    return records


def orderly_records(seed: int, blocks: int = 60):
    """Well-formed scheduling blocks: every ``swtch`` entry is a point
    where no call is open."""
    rng = random.Random(seed)
    records = []
    t = rng.randrange(1 << 24)
    swtch = NAMES.by_name("swtch")
    for _ in range(blocks):
        records.append(RawRecord(tag=swtch.exit_value, time=t & MASK))
        t += rng.randrange(1, 50)
        for _ in range(rng.randrange(1, 5)):
            name = rng.choice(FUNCTIONS)
            records.append(
                RawRecord(tag=NAMES.by_name(name).entry_value, time=t & MASK)
            )
            t += rng.randrange(1, 100)
            records.append(
                RawRecord(tag=NAMES.by_name(name).exit_value, time=t & MASK)
            )
            t += rng.randrange(1, 30)
        records.append(RawRecord(tag=swtch.entry_value, time=t & MASK))
        t += rng.randrange(1, 5000)
    return records


def batch_summary(records):
    """The reference reconstruction's summary and anomalies."""
    analysis = oracles.reference_call_tree(
        list(oracles.decoded_events(records, NAMES))
    )
    return oracles.reference_summary(analysis), analysis.anomalies


def fold(records, batches):
    """The fold over *records* fed as the given consecutive batches."""
    return fold_columns(
        (columns_of(records[start:stop]) for start, stop in batches),
        NAMES,
    )


def assert_parity(records, *, batch_events=64):
    """The fold, whole and in ``batch_events`` batches, equals the tree."""
    batch, batch_anomalies = batch_summary(records)
    batch_text = batch.format()
    expected_anomalies = [(a.index, a.kind, a.detail) for a in batch_anomalies]

    whole = fold(records, [(0, len(records))])
    assert whole.summary().format() == batch_text
    assert [(a.index, a.kind, a.detail) for a in whole.anomalies] == expected_anomalies

    cuts = range(0, len(records), batch_events)
    chunked = fold(records, [(start, start + batch_events) for start in cuts])
    assert chunked.summary().format() == batch_text
    assert chunked.anomalies == whole.anomalies
    return whole


@pytest.mark.parametrize("seed", range(25))
def test_hostile_trace_parity(seed):
    assert_parity(random_records(seed, length=400))


@pytest.mark.parametrize("seed", range(25, 40))
def test_multiwrap_trace_parity(seed):
    """Deltas up to 2^22 us: the 24-bit counter wraps dozens of times."""
    records = random_records(seed, length=400, wild_deltas=True)
    folded = assert_parity(records)
    # The point of the exercise: the trace really did span many wraps.
    batch, _ = batch_summary(records)
    assert batch.wall_us > (1 << 24)
    assert folded.summary().wall_us == batch.wall_us


@pytest.mark.parametrize("seed", range(40, 50))
def test_orderly_trace_shards_and_matches(seed):
    """Well-formed blocks cut into shards at their ``swtch`` entries and
    folded shard by shard still match the tree: the idle interval across
    each cut is counted once, inside the ``swtch`` frame left open."""
    records = orderly_records(seed)
    swtch_entry = NAMES.by_name("swtch").entry_value
    cuts = [i + 1 for i, r in enumerate(records) if r.tag == swtch_entry]
    shards, start = [], 0
    for cut in cuts:
        if cut - start >= 48 or cut == len(records):
            shards.append((start, cut))
            start = cut
    assert len(shards) >= 3 and start == len(records)
    batch, _ = batch_summary(records)
    assert fold(records, shards).summary().format() == batch.format()
    assert_parity(records, batch_events=48)


def test_wrap_across_chunk_boundary():
    """A wrap falling exactly on a feed_columns() batch boundary."""
    swtch = NAMES.by_name("swtch")
    alpha = NAMES.by_name("alpha")
    t = (1 << 24) - 9  # entry lands 9 us before the counter wraps
    records = [
        RawRecord(tag=swtch.exit_value, time=t & MASK),
        RawRecord(tag=alpha.entry_value, time=(t + 4) & MASK),
        RawRecord(tag=alpha.exit_value, time=(t + 20) & MASK),  # post-wrap
        RawRecord(tag=swtch.entry_value, time=(t + 25) & MASK),
    ]
    accumulator = SummaryAccumulator(NAMES)
    # Feed in two chunks split across the wrap: state must carry over.
    accumulator.feed_columns(columns_of(records[:2]))
    accumulator.feed_columns(columns_of(records[2:]))
    accumulator.close()
    summary = accumulator.summary()

    batch, _ = batch_summary(records)
    assert summary.format() == batch.format()
    assert summary.get("alpha").net_us == 16


def test_streaming_capture_helper_matches_batch(simple_names):
    from stream_helpers import stream

    capture = stream(
        simple_names,
        ("<", "swtch", 100),
        (">", "main", 110),
        (">", "read", 130),
        ("=", "MGET", 140),
        ("<", "read", 180),
        ("<", "main", 200),
        (">", "swtch", 210),
    )
    assert (
        summarize_capture(capture).format()
        == summarize(analyze_capture(capture)).format()
    )


def test_suspended_stacks_trace_parity():
    """A tsleep-style trace: every process blocks mid-call, so at each
    ``swtch`` entry some suspended stack is non-empty and the fold carries
    suspended frames across every batch cut."""
    swtch = NAMES.by_name("swtch")
    alpha = NAMES.by_name("alpha")
    bravo = NAMES.by_name("bravo")
    records = []
    t = 0
    for _ in range(50):
        records.append(RawRecord(tag=swtch.exit_value, time=t & MASK))
        t += 3
        records.append(RawRecord(tag=alpha.entry_value, time=t & MASK))
        t += 7
        records.append(RawRecord(tag=bravo.entry_value, time=t & MASK))
        t += 5
        records.append(RawRecord(tag=swtch.entry_value, time=t & MASK))
        t += 11
    assert_parity(records, batch_events=16)


def _never_resolved(calls: int = 20_000) -> RecordColumns:
    """A ``swtch`` exit followed by *calls* balanced calls: the block
    never unwinds into a suspended frame and never blocks again, so its
    switch-in stays unresolved to the end of the stream."""
    swtch = NAMES.by_name("swtch")
    alpha = NAMES.by_name("alpha")
    records = [RawRecord(tag=swtch.exit_value, time=0)]
    for i in range(1, calls + 1):
        records.append(RawRecord(tag=alpha.entry_value, time=(20 * i) & MASK))
        records.append(RawRecord(tag=alpha.exit_value, time=(20 * i + 7) & MASK))
    return columns_of(records)


def _figure5() -> tuple[RecordColumns, NameTable]:
    records, _ = read_capture(GOLDEN_DIR / "figure5_forkexec_v2.mpf")
    return records, NameTable.read(GOLDEN_DIR / "case_study.tags")


@pytest.mark.parametrize("batch_events", [64, 1000])
@pytest.mark.parametrize("stream", ["never-resolved", "figure5"])
def test_switch_in_look_ahead_is_linear(monkeypatch, stream, batch_events):
    """A held tail is never rescanned: the next batch continues the
    switch-in scan where it stopped, so each event costs at most two tag
    lookups (one scanned ahead, one stepped) however the stream is cut,
    and the result equals the one-batch fold."""
    records, names = (_never_resolved(), NAMES) if stream == "never-resolved" else _figure5()
    whole = fold_columns([records], names)
    whole.close()

    lookups = 0

    class CountingMap(columnar._DecodeMap):
        def __getitem__(self, tag):
            nonlocal lookups
            lookups += 1
            return super().__getitem__(tag)

    monkeypatch.setattr(columnar, "_DecodeMap", CountingMap)
    batches = (
        RecordColumns(
            tags=records.tags[start : start + batch_events],
            times=records.times[start : start + batch_events],
        )
        for start in range(0, len(records), batch_events)
    )
    cut = fold_columns(batches, names)
    cut.close()
    assert cut.summary().format() == whole.summary().format()
    assert cut.anomalies == whole.anomalies
    assert cut.procs == whole.procs
    assert cut.unattributed_us == whole.unattributed_us
    assert 0 < lookups <= 2 * len(records)
