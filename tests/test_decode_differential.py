"""Differential tests: the columnar decode and fold against references.

Every property here generates a record stream (wrap-heavy timers,
interrupt bursts, unknown tags, zero-length and trace-RAM-filling
captures, MPF1 and MPF2 files) and asserts the program's columnar code
agrees *exactly* with an independent reference: the one-record-at-a-time
walkers of ``oracles.py`` for records and decoded events (the call
tree's unwrapped times and tags, and the decode map's identity of every
tag, field-identical to ``DecodedEvent`` sequences; identical error
messages), and the reference
call tree built from those events for the fold (identical summary bytes,
and therefore identical summary hashes, node-for-node identical forests,
entry-for-entry, arc-for-arc identical gprof reports, Chrome traces
holding the reference exporter's events, and lint's P201 frames in the
reference forest's preorder, on well-formed and malformed streams
alike).

Case volume is tunable: ``REPRO_DIFF_EXAMPLES`` sets the per-property
example count (default 40, so the module runs well over 200 generated
cases locally); CI runs a smaller derandomized subset by exporting
``REPRO_DIFF_EXAMPLES=15`` and ``REPRO_DIFF_DERANDOMIZE=1``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from repro.analysis import columnar
from repro.analysis.callstack import _TreeRecorder, analyze_capture, build_call_tree
from repro.analysis.chrome_trace import ChromeTraceWriter
from repro.analysis.events import decode_capture
from repro.analysis.gprof import gprof_from_fold, gprof_report
from repro.analysis.summary import FoldRecorder, SummaryAccumulator, summarize_columns
from repro.lint.stream_lint import lint_records
from repro.profiler.capture import Capture
from repro.profiler.ram import DEFAULT_DEPTH, RawRecord
from repro.profiler.upload import (
    decode_record_columns,
    iter_capture_columns,
    write_capture_file,
)
from repro.telemetry import TELEMETRY
from stream_helpers import (
    TIME_MASK,
    capture_from_records,
    columns_of,
    make_names,
    record_bytes,
)

DIFF_EXAMPLES = int(os.environ.get("REPRO_DIFF_EXAMPLES", "40"))
DIFF_SETTINGS = settings(
    max_examples=DIFF_EXAMPLES,
    deadline=None,
    derandomize=bool(os.environ.get("REPRO_DIFF_DERANDOMIZE")),
)

def _decode(records, names, width_bits: int = 24) -> columnar.ColumnarEvents:
    """Decode hand-made *records* as the call tree decodes a capture."""
    return decode_capture(
        capture_from_records(records, names, counter_width_bits=width_bits)
    )


NAMES = make_names(
    ("main", 500),
    ("read", 502),
    ("bcopy", 504),
    ("cksum", 506),
    ("ISAINTR", 508),
    ("tsleep", 510),
    ("swtch", 600, "!"),
    ("MGET", 1002, "="),
)

_ENTRIES = [NAMES.by_name(n) for n in (
    "main", "read", "bcopy", "cksum", "ISAINTR", "tsleep", "swtch", "MGET"
)]
KNOWN_TAGS = sorted(
    {e.entry_value for e in _ENTRIES}
    | {e.exit_value for e in _ENTRIES if not e.inline}
)

# Tags the table knows, plus the occasional stranger (decodes to "tag#N").
tag_strategy = st.one_of(
    st.sampled_from(KNOWN_TAGS),
    st.integers(min_value=0, max_value=0xFFFF),
)

# Mostly-tight deltas with the occasional near-full-range jump: a few
# hundred records are enough to wrap the 24-bit counter many times over.
delta_strategy = st.one_of(
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=0, max_value=(1 << 23) - 1),
)


@st.composite
def record_streams(draw, max_records: int = 150) -> list[RawRecord]:
    """Raw streams: arbitrary tags, monotone wrapped counter snapshots."""
    pairs = draw(
        st.lists(st.tuples(tag_strategy, delta_strategy), max_size=max_records)
    )
    t = draw(st.integers(min_value=0, max_value=TIME_MASK))
    records = []
    for tag, delta in pairs:
        records.append(RawRecord(tag=tag, time=t))
        t = (t + delta) & TIME_MASK
    return records


@st.composite
def call_streams(draw, max_blocks: int = 30) -> list[RawRecord]:
    """Call-shaped streams: scheduling blocks with nested interrupt bursts.

    Each block is one quantum — ``swtch`` exit, a few call pairs (some
    interrupted mid-flight by a burst of nested ``ISAINTR`` frames, some
    inline ``MGET`` markers), ``swtch`` entry — so the summary state
    machine's suspension/resolution logic gets exercised, not just the
    raw decode.
    """
    blocks = draw(st.integers(min_value=0, max_value=max_blocks))
    t = draw(st.integers(min_value=0, max_value=TIME_MASK))
    swtch = NAMES.by_name("swtch")
    isaintr = NAMES.by_name("ISAINTR")
    mget = NAMES.by_name("MGET")
    functions = [NAMES.by_name(n) for n in ("main", "read", "bcopy", "cksum")]
    records = []

    def emit(tag: int, advance: int) -> None:
        nonlocal t
        records.append(RawRecord(tag=tag, time=t))
        t = (t + advance) & TIME_MASK

    for _ in range(blocks):
        emit(swtch.exit_value, draw(delta_strategy))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            fn = draw(st.sampled_from(functions))
            emit(fn.entry_value, draw(delta_strategy))
            if draw(st.booleans()):
                burst = draw(st.integers(min_value=1, max_value=4))
                for _ in range(burst):
                    emit(isaintr.entry_value, draw(delta_strategy))
                if draw(st.booleans()):
                    emit(mget.entry_value, draw(delta_strategy))
                for _ in range(burst):
                    emit(isaintr.exit_value, draw(delta_strategy))
            emit(fn.exit_value, draw(delta_strategy))
        emit(swtch.entry_value, draw(delta_strategy))
    return records


@st.composite
def switch_streams(draw, max_blocks: int = 30) -> list[RawRecord]:
    """Multi-process streams: calls suspended across a context switch.

    A small scheduler: each process keeps its own call stack, and a
    block resumes one of them (``swtch`` exit, then ``tsleep``'s exit if
    it slept there), returns from some of its calls, makes new ones (some
    interrupted by an ``ISAINTR`` burst), and blocks again with a
    ``swtch`` entry — from user mode or asleep inside ``tsleep`` in the
    middle of its calls.  One process's call tree then grows on after
    another process has opened trees of its own, so a call's position in
    the forest's preorder is not its position in time.
    """
    procs = [[] for _ in range(draw(st.integers(min_value=1, max_value=4)))]
    blocks = draw(st.integers(min_value=0, max_value=max_blocks))
    t = draw(st.integers(min_value=0, max_value=TIME_MASK))
    swtch = NAMES.by_name("swtch")
    tsleep = NAMES.by_name("tsleep")
    isaintr = NAMES.by_name("ISAINTR")
    functions = [NAMES.by_name(n) for n in ("main", "read", "bcopy", "cksum")]
    records = []

    def emit(tag: int) -> None:
        nonlocal t
        records.append(RawRecord(tag=tag, time=t))
        t = (t + draw(delta_strategy)) & TIME_MASK

    for _ in range(blocks):
        stack = procs[draw(st.integers(min_value=0, max_value=len(procs) - 1))]
        emit(swtch.exit_value)
        if stack and stack[-1] is tsleep:
            emit(stack.pop().exit_value)
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            if stack and draw(st.booleans()):
                emit(stack.pop().exit_value)
                continue
            fn = draw(st.sampled_from(functions))
            emit(fn.entry_value)
            stack.append(fn)
            if draw(st.booleans()):
                emit(isaintr.entry_value)
                emit(isaintr.exit_value)
        if draw(st.booleans()):
            emit(tsleep.entry_value)
            stack.append(tsleep)
        emit(swtch.entry_value)
    return records


#: A tag no name file here knows: it decodes to ``tag#4242``.
UNKNOWN_TAG = 4242
assert UNKNOWN_TAG not in KNOWN_TAGS


@st.composite
def loop_streams(draw, max_loops: int = 8) -> list[RawRecord]:
    """Loop-shaped streams: one leaf called 1-40 times back to back.

    The shape of a per-page loop (``pmap_remove`` calling ``pmap_pte``
    for every page): each loop opens up to two caller frames, or none,
    so the run sits inside frames or at depth 0, and calls its leaf over
    and over.  A run may be broken by an unknown tag, an inline ``MGET``
    mark, a ``swtch`` pair, or a whole scheduling block with a loop of
    its own at depth 0 (another process's, when the run is suspended
    inside its callers); loops are separated by ``swtch`` pairs now and
    then.  Half the time deltas jump up to half the counter's range, so
    the 24-bit counter wraps inside runs.
    """
    t = draw(st.integers(min_value=0, max_value=TIME_MASK))
    swtch = NAMES.by_name("swtch")
    mget = NAMES.by_name("MGET")
    functions = [NAMES.by_name(n) for n in ("main", "read", "bcopy", "cksum", "tsleep")]
    records = []

    def emit(tag: int) -> None:
        nonlocal t
        records.append(RawRecord(tag=tag, time=t))
        t = (t + draw(delta_strategy)) & TIME_MASK

    def run(leaf, calls: int, breaks: dict) -> None:
        for call in range(calls):
            for breaker in breaks.get(call, ()):
                if breaker == "unknown":
                    emit(UNKNOWN_TAG)
                elif breaker == "mark":
                    emit(mget.entry_value)
                elif breaker == "switch":
                    emit(swtch.entry_value)
                    emit(swtch.exit_value)
                else:  # another process's block, with a loop of its own
                    emit(swtch.entry_value)
                    emit(swtch.exit_value)
                    run(draw(st.sampled_from(functions)), draw(st.integers(1, 40)), {})
                    emit(swtch.entry_value)
                    emit(swtch.exit_value)
            emit(leaf.entry_value)
            emit(leaf.exit_value)

    for _ in range(draw(st.integers(min_value=0, max_value=max_loops))):
        callers = draw(st.lists(st.sampled_from(functions), max_size=2))
        calls = draw(st.integers(min_value=1, max_value=40))
        breaks: dict[int, list[str]] = {}
        for call, breaker in draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=calls - 1),
                    st.sampled_from(["unknown", "mark", "switch", "block"]),
                ),
                max_size=3,
            )
        ):
            breaks.setdefault(call, []).append(breaker)
        for fn in callers:
            emit(fn.entry_value)
        run(draw(st.sampled_from(functions)), calls, breaks)
        for fn in reversed(callers):
            emit(fn.exit_value)
        if draw(st.booleans()):
            emit(swtch.entry_value)
            emit(swtch.exit_value)
    return records


def _emitter(draw):
    """An ``emit(tag)`` appending records with drawn time deltas, and the
    records it appends to."""
    records: list[RawRecord] = []
    t = draw(st.integers(min_value=0, max_value=TIME_MASK))

    def emit(tag: int) -> None:
        nonlocal t
        records.append(RawRecord(tag=tag, time=t))
        t = (t + draw(delta_strategy)) & TIME_MASK

    return emit, records


def _emit_run(draw, emit) -> None:
    """A leaf called 1-8 times back to back, the run broken now and then
    by an inline mark or a tag no name file knows."""
    leaf = draw(st.sampled_from([NAMES.by_name(n) for n in ("read", "bcopy", "cksum")]))
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        breaker = draw(st.sampled_from(["", "", "", "", "mark", "unknown"]))
        if breaker == "mark":
            emit(NAMES.by_name("MGET").entry_value)
        elif breaker == "unknown":
            emit(UNKNOWN_TAG)
        emit(leaf.entry_value)
        emit(leaf.exit_value)


@st.composite
def user_mode_streams(draw, max_blocks: int = 12) -> list[RawRecord]:
    """Streams whose every process switches out in user mode (at depth
    0), so a fold with no recorder resumes each switch-in at once and the
    block confirms or refutes it.

    A block is a ``swtch`` exit, calls, and a closing ``swtch`` entry
    (now and then with an interrupt in the idle loop, so the ``swtch``
    frame is pushed).  Repairs test the choice: an exit right after the
    switch that no frame matches (a process not seen before), an inner
    call whose exit was lost (a missed exit inside the block), an exit
    inside a call or inside the idle loop's interrupt that matches
    nothing, and a stray ``swtch`` exit inside a call, whose look-ahead
    runs on into the next block.  The stream may end anywhere in a
    block.
    """
    emit, records = _emitter(draw)
    swtch, isaintr = NAMES.by_name("swtch"), NAMES.by_name("ISAINTR")
    functions = [NAMES.by_name(n) for n in ("main", "read", "bcopy", "cksum")]

    def call(depth: int) -> None:
        fn = draw(st.sampled_from(functions))
        shape = draw(
            st.sampled_from(["leaf", "run", "nested", "missed", "unmatched", "stray"])
        )
        if shape == "leaf":
            emit(fn.entry_value)
            emit(fn.exit_value)
        elif shape == "run":
            _emit_run(draw, emit)
        else:
            emit(fn.entry_value)
            if shape == "nested" and depth < 2:
                for _ in range(draw(st.integers(min_value=0, max_value=3))):
                    call(depth + 1)
            elif shape == "missed":
                emit(draw(st.sampled_from(functions)).entry_value)
                if draw(st.booleans()):
                    _emit_run(draw, emit)
            elif shape == "unmatched":
                emit(draw(st.sampled_from(functions)).exit_value)
            elif shape == "stray":
                emit(swtch.exit_value)
            emit(fn.exit_value)

    for _ in range(draw(st.integers(min_value=0, max_value=max_blocks))):
        emit(swtch.exit_value)
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            emit(draw(st.sampled_from(functions)).exit_value)
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            call(0)
        emit(swtch.entry_value)
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            emit(isaintr.entry_value)
            if draw(st.booleans()):
                emit(draw(st.sampled_from(functions)).exit_value)
            emit(isaintr.exit_value)
    return records[: draw(st.integers(min_value=0, max_value=len(records)))]


@st.composite
def sleeper_streams(draw, max_blocks: int = 12) -> list[RawRecord]:
    """Streams whose every process switches out asleep inside
    ``tsleep``, so every switch-in looks ahead, with or without a
    recorder.

    The first process opens ``main`` and ``tsleep`` before its first
    switch.  A block either resumes a sleeper (interrupt runs at depth
    0, then ``tsleep``'s exit names it) or starts a process not seen
    before, which opens ``main`` and runs its loops at depth 0 and inside
    its frames; both sleep again.  Runs are broken by inline marks and
    unknown tags now and then.
    """
    emit, records = _emitter(draw)
    swtch, tsleep = NAMES.by_name("swtch"), NAMES.by_name("tsleep")
    main, isaintr = NAMES.by_name("main"), NAMES.by_name("ISAINTR")
    emit(main.entry_value)
    emit(tsleep.entry_value)
    emit(swtch.entry_value)
    for _ in range(draw(st.integers(min_value=0, max_value=max_blocks))):
        emit(swtch.exit_value)
        if draw(st.booleans()):
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                emit(isaintr.entry_value)
                emit(isaintr.exit_value)
            emit(tsleep.exit_value)
        else:
            if draw(st.booleans()):
                _emit_run(draw, emit)
            emit(main.entry_value)
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            if draw(st.booleans()):
                _emit_run(draw, emit)
            else:
                fn = draw(st.sampled_from([NAMES.by_name(n) for n in ("read", "bcopy")]))
                emit(fn.entry_value)
                _emit_run(draw, emit)
                emit(fn.exit_value)
        emit(tsleep.entry_value)
        emit(swtch.entry_value)
    return records


def long_every(n: int):
    """Intervals of up to 64 us, but one in *n* up to a whole turn of the
    24-bit counter."""
    return st.integers(min_value=0, max_value=n - 1).flatmap(
        lambda k: st.integers(min_value=0, max_value=TIME_MASK if k == 0 else 64)
    )


@st.composite
def repeat_streams(draw, max_segments: int = 10) -> list[RawRecord]:
    """Loops of a random subtree, the shape of a page-fault loop: a call
    whose body calls further (up to three levels), repeated 1-8 times back
    to back at depth 0 or inside up to two caller frames.

    Now and then a body holds an inline mark, a tag no name file knows, a
    ``swtch`` pair, an entry whose exit was lost or an exit that matches
    nothing, and a repeat is cut off by one of those between copies.
    Between loops a process switches out in user mode or inside a call,
    or sleeps in ``tsleep`` and wakes after another block's loops, so
    switch-ins look ahead over repeated bodies too.  One interval in 64
    lasts up to a whole turn of the 24-bit counter, so the counter wraps
    now and then inside a body; in one stream in three it is one in
    four, so calls in a body also last longer than a turn.
    """
    records: list[RawRecord] = []
    t = draw(st.integers(min_value=0, max_value=TIME_MASK))
    deltas = long_every(draw(st.sampled_from([4, 64, 64])))

    def emit(tag: int) -> None:
        nonlocal t
        records.append(RawRecord(tag=tag, time=t))
        t = (t + draw(deltas)) & TIME_MASK

    swtch, tsleep = NAMES.by_name("swtch"), NAMES.by_name("tsleep")
    mget = NAMES.by_name("MGET")
    functions = [NAMES.by_name(n) for n in ("main", "read", "bcopy", "cksum", "ISAINTR")]
    oddities = ["mark", "unknown", "switch", "missed", "unmatched"]

    def odd(kind: str) -> list[int]:
        if kind == "mark":
            return [mget.entry_value]
        if kind == "unknown":
            return [UNKNOWN_TAG]
        if kind == "switch":
            return [swtch.entry_value, swtch.exit_value]
        if kind == "missed":
            return [draw(st.sampled_from(functions)).entry_value]
        return [draw(st.sampled_from(functions)).exit_value]

    def body(depth: int) -> list[int]:
        fn = draw(st.sampled_from(functions))
        tags = [fn.entry_value]
        for _ in range(draw(st.integers(min_value=0, max_value=3 if depth < 2 else 1))):
            kind = draw(st.sampled_from(["call"] * 36 + oddities))
            tags += body(depth + 1) if kind == "call" else odd(kind)
        return tags + [fn.exit_value]

    def loop() -> None:
        callers = draw(st.lists(st.sampled_from(functions), max_size=2))
        for fn in callers:
            emit(fn.entry_value)
        tags = body(0)
        for _ in range(draw(st.integers(min_value=1, max_value=8))):
            if draw(st.integers(min_value=0, max_value=7)) == 0:
                for tag in odd(draw(st.sampled_from(oddities))):
                    emit(tag)
            for tag in tags:
                emit(tag)
        for fn in reversed(callers):
            emit(fn.exit_value)

    for _ in range(draw(st.integers(min_value=1, max_value=max_segments))):
        segment = draw(st.sampled_from(["loop", "loop", "loop", "switch", "sleep", "open"]))
        if segment == "loop":
            loop()
        elif segment == "switch":
            emit(swtch.entry_value)
            emit(swtch.exit_value)
        elif segment == "sleep":
            emit(tsleep.entry_value)
            emit(swtch.entry_value)
            emit(swtch.exit_value)
            for _ in range(draw(st.integers(min_value=0, max_value=2))):
                loop()
            emit(tsleep.exit_value)
        else:  # a call left open across what follows
            emit(draw(st.sampled_from(functions)).entry_value)
    return records


_KIND_OF_CODE = {
    columnar.CODE_ENTRY: oracles.EventKind.ENTRY,
    columnar.CODE_EXIT: oracles.EventKind.EXIT,
    columnar.CODE_INLINE: oracles.EventKind.INLINE,
    columnar.CODE_UNKNOWN: oracles.EventKind.UNKNOWN,
}


def _assert_decode_parity(events, reference):
    """The unwrapped columns carry the reference events' times and raw
    tags, and the decode map gives each tag the reference's kind, name,
    owning entry and context-switch flag."""
    assert events.times == [e.time_us for e in reference]
    assert list(events.tags) == [e.raw.tag for e in reference]
    decode_map = columnar.build_decode_map(NAMES)
    for event in reference:
        code, name, entry, switch = decode_map[event.raw.tag]
        assert (_KIND_OF_CODE[code], name, entry, switch) == (
            event.kind,
            event.name,
            event.entry,
            event.is_context_switch,
        )


def _summary_hash(summary) -> str:
    return hashlib.sha256(summary.format().encode()).hexdigest()


def _reference_events(records, width_bits=24):
    return list(oracles.decoded_events(records, NAMES, width_bits))


def _reference_summary(records):
    """The reference call tree's summary of the per-record reference decode."""
    return oracles.reference_summary(
        oracles.reference_call_tree(_reference_events(records))
    )


def _node_fields(node):
    """Every CallNode field a report reads, children in order."""
    return (
        node.name,
        node.proc,
        node.depth,
        node.enter_us,
        node.exit_us,
        node.self_us,
        node.inclusive_us,
        node.is_swtch,
        node.synthetic,
        node.truncated,
        node.inline_marks,
        [_node_fields(child) for child in node.children],
    )


def _tree_fields(analysis):
    """The forest in event order, plus its marks and accounting."""
    return (
        [_node_fields(root) for root in analysis.roots],
        analysis.procs,
        analysis.orphan_marks,
        analysis.anomalies,
        analysis.wall_us,
        analysis.idle_us,
        analysis.unattributed_us,
        analysis.event_count,
        analysis.context_switches,
    )


def _arc_fields(arcs):
    return [(a.caller, a.callee, a.calls, a.inclusive_us) for a in arcs]


def _gprof_fields(report):
    """Every entry in report order, each with its ordered arc lists:
    the orders break the report's ties, so they are compared too."""
    return (
        report.wall_us,
        [
            (
                entry.name,
                entry.calls,
                entry.net_us,
                entry.inclusive_us,
                _arc_fields(entry.callers),
                _arc_fields(entry.callees),
            )
            for entry in report.entries.values()
        ],
        [entry.name for entry in report.ordered()],
    )


# -- raw-record layer --------------------------------------------------------


class TestRecordParity:
    @DIFF_SETTINGS
    @given(records=record_streams())
    def test_columnar_load_matches_reference(self, records):
        blob = record_bytes(records)
        columns = decode_record_columns(blob)
        assert columns.to_records() == oracles.load_records(blob)
        assert columns.to_bytes() == blob
        for offset in (0, len(records) // 2, len(records) - 1):
            if 0 <= offset < len(records):
                assert columns.record(offset) == records[offset]

    @DIFF_SETTINGS
    @given(
        records=record_streams(),
        version=st.integers(min_value=1, max_value=2),
        chunk_records=st.integers(min_value=1, max_value=97),
    )
    def test_capture_file_matches_reference(self, records, version, chunk_records):
        """MPF1 and MPF2 files decode identically through both readers."""
        buffer = io.BytesIO()
        write_capture_file(buffer, columns_of(records), version=version)
        buffer.seek(0)
        reference = list(oracles.iter_capture_file(buffer))
        buffer.seek(0)
        flattened = [
            r
            for batch in iter_capture_columns(buffer, chunk_records=chunk_records)
            for r in batch.to_records()
        ]
        assert flattened == reference


# -- decoded-event layer -----------------------------------------------------


class TestEventParity:
    @DIFF_SETTINGS
    @given(records=record_streams())
    def test_decoded_events_field_identical(self, records):
        _assert_decode_parity(_decode(records, NAMES), _reference_events(records))

    @DIFF_SETTINGS
    @given(records=record_streams(max_records=80), width_bits=st.sampled_from([8, 16, 24]))
    def test_narrow_counter_widths_agree(self, records, width_bits):
        mask = (1 << width_bits) - 1
        narrowed = [RawRecord(tag=r.tag, time=r.time & mask) for r in records]
        _assert_decode_parity(
            _decode(narrowed, NAMES, width_bits=width_bits),
            _reference_events(narrowed, width_bits),
        )

    def test_zero_length_capture(self):
        assert len(_decode([], NAMES)) == 0
        assert _reference_events([]) == []
        assert decode_record_columns(b"").to_records() == []

    def test_chunk_boundary_wrap_carry(self, tmp_path):
        """Wraps that straddle the reader's 8192-record batch boundaries:
        a capture loaded from its file unwraps as one reference pass."""
        records = []
        t = 0
        for i in range(3 * 8192 + 17):
            # Big steps so the counter wraps inside *and* across batches.
            t = (t + 0x31_0000 + i) & TIME_MASK
            records.append(RawRecord(tag=KNOWN_TAGS[i % len(KNOWN_TAGS)], time=t))
        path = tmp_path / "wraps.mpf"
        capture_from_records(records, NAMES).save(path)
        events = decode_capture(Capture.load(path, NAMES))
        _assert_decode_parity(events, _reference_events(records))
        # Absolute time must climb monotonically across batch seams.
        assert events.times == sorted(events.times)

    def test_max_count_capture(self):
        """A capture that exactly fills the trace RAM (the overflow case)."""
        records = [
            RawRecord(tag=KNOWN_TAGS[i % len(KNOWN_TAGS)], time=(i * 37) & TIME_MASK)
            for i in range(DEFAULT_DEPTH)
        ]
        _assert_decode_parity(_decode(records, NAMES), _reference_events(records))

    @DIFF_SETTINGS
    @given(records=record_streams(max_records=60))
    def test_over_width_error_messages_identical(self, records):
        """A 24-bit snapshot fed as 16-bit: same ValueError, same message."""
        poisoned = list(records) + [RawRecord(tag=KNOWN_TAGS[0], time=0x1_0000)]
        errors = []
        for decode in (lambda: _reference_events(poisoned, 16),
                       lambda: _decode(poisoned, NAMES, width_bits=16)):
            with pytest.raises(ValueError) as excinfo:
                decode()
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]


# -- summary layer -----------------------------------------------------------


class TestSummaryParity:
    def _assert_fold_parity(self, records, chunk_records):
        """The fold, fed whole and in batches, against the reference
        tree: summary bytes, and once sealed its repairs, the processes
        it told apart and the time no frame absorbed."""
        reference = oracles.reference_call_tree(_reference_events(records))
        want = oracles.reference_summary(reference).format()
        for chunk in (len(records) or 1, chunk_records):
            fold = SummaryAccumulator(NAMES)
            for start in range(0, len(records), chunk):
                fold.feed_columns(columns_of(records[start : start + chunk]))
            assert fold.summary().format() == want
            assert fold.anomalies == reference.anomalies
            assert fold.procs == reference.procs
            assert fold.unattributed_us == reference.unattributed_us

    @DIFF_SETTINGS
    @given(
        records=call_streams(),
        chunk_records=st.integers(min_value=1, max_value=100),
    )
    def test_summary_bytes_identical(self, records, chunk_records):
        reference = _reference_summary(records)
        batches = (
            columns_of(records[i : i + chunk_records])
            for i in range(0, len(records), chunk_records)
        )
        via_columns = summarize_columns(batches, NAMES)
        assert via_columns.format() == reference.format()
        assert _summary_hash(via_columns) == _summary_hash(reference)

    @DIFF_SETTINGS
    @given(
        records=record_streams(),
        chunk_records=st.integers(min_value=1, max_value=100),
    )
    def test_summary_bytes_identical_on_raw_streams(self, records, chunk_records):
        """Unknown tags, unmatched exits and stray switches, cut anywhere,
        summarise identically too."""
        self._assert_fold_parity(records, chunk_records)

    @DIFF_SETTINGS
    @given(
        records=switch_streams(),
        chunk_records=st.integers(min_value=1, max_value=100),
    )
    def test_fold_matches_reference_on_switch_streams(self, records, chunk_records):
        """Switch-ins resolved across batch cuts, several processes."""
        self._assert_fold_parity(records, chunk_records)

    @DIFF_SETTINGS
    @given(
        records=loop_streams(),
        chunk_records=st.integers(min_value=1, max_value=100),
    )
    def test_fold_matches_reference_on_loop_streams(self, records, chunk_records):
        """Runs of one leaf, added up in one step, whole or cut by a batch."""
        self._assert_fold_parity(records, chunk_records)

    @DIFF_SETTINGS
    @given(
        prefix=call_streams(max_blocks=6),
        suffix=call_streams(max_blocks=6),
        bad_offset=st.integers(min_value=0, max_value=5),
    )
    def test_carried_state_identical_after_mid_batch_error(
        self, prefix, suffix, bad_offset
    ):
        """A batch holding an over-width snapshot is rejected whole: the
        fold raises the reference decoder's error and carries exactly the
        state it had before the batch, so feeding the rest of the stream
        gives the summary of the stream without the rejected batch.

        The accumulator runs at 16-bit width so a legal 24-bit
        ``RawRecord`` snapshot can poison the batch.
        """
        mask = (1 << 16) - 1
        prefix = [RawRecord(tag=r.tag, time=r.time & mask) for r in prefix]
        suffix = [RawRecord(tag=r.tag, time=r.time & mask) for r in suffix]
        poison = RawRecord(tag=KNOWN_TAGS[1], time=mask + 1)
        bad_batch = list(prefix[: bad_offset + 3]) + [poison]

        def feed(accumulator, records):
            accumulator.feed_columns(columns_of(records))

        accumulator = SummaryAccumulator(NAMES, width_bits=16)
        feed(accumulator, prefix)
        with pytest.raises(ValueError) as excinfo:
            feed(accumulator, bad_batch)
        feed(accumulator, suffix)
        with pytest.raises(ValueError) as reference_error:
            _reference_events(bad_batch, 16)
        assert str(excinfo.value) == str(reference_error.value)

        clean = SummaryAccumulator(NAMES, width_bits=16)
        feed(clean, prefix)
        feed(clean, suffix)
        assert accumulator.summary().format() == clean.summary().format()


class TestPairStepParity:
    """With no recorder the fold steps an entry and its own exit, when
    the exit is the next record, as one call; a recorder needs a frame
    for every call, so the same fold with a do-nothing recorder attached
    steps every record.  The two must agree on everything the fold
    reports, whether the stream comes whole or cut into batches."""

    PEAKS = (
        "analysis.peak.pending_block",
        "analysis.peak.suspended_procs",
        "analysis.peak.functions",
    )

    def _fold(self, records, chunk, recorder):
        fold = SummaryAccumulator(NAMES)
        fold.recorder = recorder
        for start in range(0, len(records), chunk):
            fold.feed_columns(columns_of(records[start : start + chunk]))
        TELEMETRY.enable()
        try:
            TELEMETRY.reset()
            fold.close()
            peaks = [TELEMETRY.registry.get(name).value for name in self.PEAKS]
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        return (
            fold.summary().format(),
            sorted(fold.arcs()),
            fold.anomalies,
            fold.procs,
            fold.unattributed_us,
            fold.context_switches,
            peaks,
        )

    @DIFF_SETTINGS
    @given(
        records=st.one_of(
            call_streams(), switch_streams(), record_streams(), loop_streams()
        ),
        chunk_records=st.integers(min_value=1, max_value=100),
    )
    def test_pair_step_equals_frame_path(self, records, chunk_records):
        for chunk in (len(records) or 1, chunk_records):
            *state, (held, *peaks) = self._fold(records, chunk, None)
            *framed, (framed_held, *framed_peaks) = self._fold(
                records, chunk, FoldRecorder()
            )
            assert (state, peaks) == (framed, framed_peaks)
            # A switch-in that needs no look-ahead holds nothing.
            assert held <= framed_held

    @DIFF_SETTINGS
    @given(
        records=call_streams(),
        chunk_records=st.integers(min_value=1, max_value=100),
    )
    def test_no_block_held_when_every_switch_is_from_user_mode(
        self, records, chunk_records
    ):
        """Every block of a call stream switches out at depth 0, so no
        switch-in needs a look-ahead and nothing is held."""
        for chunk in (len(records) or 1, chunk_records):
            assert self._fold(records, chunk, None)[-1][0] == 0

    @DIFF_SETTINGS
    @given(
        records=sleeper_streams(),
        chunk_records=st.integers(min_value=1, max_value=100),
    )
    def test_same_blocks_held_when_every_switch_is_inside_a_call(
        self, records, chunk_records
    ):
        """Every process of a sleeper stream switches out inside
        ``tsleep``, so every switch-in looks ahead, as a recorder's does."""
        for chunk in (len(records) or 1, chunk_records):
            assert self._fold(records, chunk, None) == self._fold(
                records, chunk, FoldRecorder()
            )


class TestSwitchInParity:
    """Which process resumes after a switch, decided three ways.  With no
    recorder and no suspended process inside a call, the fold resumes an
    empty stack at once and the block confirms or refutes it; otherwise,
    and always with a recorder (which sees which stack a step happened
    on), it looks ahead in the batch, jumping runs of one leaf pair; the
    reference reconstruction resolves every switch from the decoded
    events.  All three must agree on everything the fold reports, for
    the stream whole, one record at a time and cut at random."""

    @staticmethod
    def _fold(records, cuts, recorder):
        fold = SummaryAccumulator(NAMES)
        fold.recorder = recorder
        bounds = [0, *cuts, len(records)]
        for start, stop in zip(bounds, bounds[1:]):
            fold.feed_columns(columns_of(records[start:stop]))
        TELEMETRY.enable()
        try:
            TELEMETRY.reset()
            fold.close()
            suspended = TELEMETRY.registry.get("analysis.peak.suspended_procs").value
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        return (
            fold.summary().format(),
            sorted(fold.arcs()),
            fold.anomalies,
            fold.procs,
            fold.unattributed_us,
            fold.context_switches,
            suspended,
        )

    def _assert_parity(self, records, cuts):
        reference = oracles.reference_call_tree(_reference_events(records))
        want = (
            oracles.reference_summary(reference).format(),
            reference.anomalies,
            reference.procs,
            reference.unattributed_us,
            reference.context_switches,
        )
        for cut in ([], list(range(1, len(records))), cuts):
            state = self._fold(records, cut, None)
            assert state == self._fold(records, cut, FoldRecorder()), cut
            summary, _, anomalies, procs, unattributed, switches, _ = state
            assert (summary, anomalies, procs, unattributed, switches) == want, cut

    @staticmethod
    def _cuts(data, records):
        if len(records) < 2:
            return []
        return sorted(data.draw(st.sets(st.integers(1, len(records) - 1))))

    @DIFF_SETTINGS
    @given(records=user_mode_streams(), data=st.data())
    def test_switches_out_of_user_mode(self, records, data):
        self._assert_parity(records, self._cuts(data, records))

    @DIFF_SETTINGS
    @given(records=sleeper_streams(), data=st.data())
    def test_look_ahead_over_runs(self, records, data):
        self._assert_parity(records, self._cuts(data, records))

    @DIFF_SETTINGS
    @given(records=st.one_of(switch_streams(), loop_streams()), data=st.data())
    def test_mixed_switches(self, records, data):
        self._assert_parity(records, self._cuts(data, records))


class TestCallRunParity:
    """A repeated call is added up with its whole subtree in one step
    when no recorder is attached, and a look-ahead jumps its repeats; the
    fold with a recorder steps every record, and the reference
    reconstruction resolves every record from the decoded events.  All
    three must agree on everything the fold reports, gprof's preorder
    keys included, for the stream whole, one record at a time and cut at
    random."""

    @staticmethod
    def _fold(records, cuts, recorder):
        fold = SummaryAccumulator(NAMES)
        fold.recorder = recorder
        bounds = [0, *cuts, len(records)]
        for start, stop in zip(bounds, bounds[1:]):
            fold.feed_columns(columns_of(records[start:stop]))
        return (
            fold.summary().format(),
            sorted(fold.arcs()),
            _gprof_fields(gprof_from_fold(fold)),
            fold.anomalies,
            fold.procs,
            fold.unattributed_us,
            fold.context_switches,
        )

    @DIFF_SETTINGS
    @given(records=repeat_streams(), data=st.data())
    def test_call_runs_equal_frame_path_and_reference(self, records, data):
        reference = oracles.reference_call_tree(_reference_events(records))
        want = (
            oracles.reference_summary(reference).format(),
            oracles.reference_arcs(reference),
            _gprof_fields(oracles.reference_gprof_report(reference)),
            reference.anomalies,
            reference.procs,
            reference.unattributed_us,
            reference.context_switches,
        )
        for cuts in ([], list(range(1, len(records))), TestSwitchInParity._cuts(data, records)):
            state = self._fold(records, cuts, None)
            assert state == self._fold(records, cuts, FoldRecorder()), cuts
            summary, arcs, *rest = state
            assert (summary, [arc[1:] for arc in arcs], *rest) == want, cuts


# -- call trees --------------------------------------------------------------


class TestPairEntryExits:
    """Entry/exit matching, as the fold does it for every report."""

    def test_spans_match_hand_computation(self):
        steps = [
            (">", "main", 0),
            (">", "read", 10),
            (">", "ISAINTR", 15),
            ("<", "ISAINTR", 18),
            ("<", "read", 30),
            ("<", "main", 50),
            (">", "bcopy", 60),  # never exits: truncated at the window edge
        ]
        records = []
        for op, name, time_us in steps:
            entry = NAMES.by_name(name)
            tag = entry.entry_value if op == ">" else entry.exit_value
            records.append(RawRecord(tag=tag, time=time_us))
        analysis = build_call_tree(_decode(records, NAMES), NAMES)
        spans = [
            (n.name, n.enter_us, n.exit_us, n.inclusive_us, n.truncated)
            for n in analysis.nodes()
        ]
        assert spans == [
            ("main", 0, 50, 50, False),
            ("read", 10, 30, 20, False),
            ("ISAINTR", 15, 18, 3, False),
            ("bcopy", 60, 60, 0, True),
        ]

    @DIFF_SETTINGS
    @given(records=call_streams())
    def test_spans_are_consistent_with_events(self, records):
        """Every real call opens at an entry of its name and, unless
        truncated, closes at an exit of its name."""
        points = {(e.kind, e.name, e.time_us) for e in _reference_events(records)}
        for node in build_call_tree(_decode(records, NAMES), NAMES).nodes():
            if node.synthetic:
                continue
            assert (oracles.EventKind.ENTRY, node.name, node.enter_us) in points
            if not node.truncated:
                assert (oracles.EventKind.EXIT, node.name, node.exit_us) in points
            assert node.exit_us >= node.enter_us


class TestTreeParity:
    """The call tree records the fold; the standalone reference builder
    must produce the same forest node for node, whether the fold gets the
    stream whole or cut into batches."""

    def _assert_parity(self, records, chunk_records):
        reference = _tree_fields(
            oracles.reference_call_tree(_reference_events(records))
        )
        whole = analyze_capture(capture_from_records(records, NAMES))
        assert _tree_fields(whole) == reference
        fold = SummaryAccumulator(NAMES)
        recorder = _TreeRecorder()
        fold.recorder = recorder
        for start in range(0, len(records), chunk_records):
            chunk = records[start : start + chunk_records]
            fold.feed_columns(columns_of(chunk))
        assert _tree_fields(recorder.analysis(fold)) == reference

    @DIFF_SETTINGS
    @given(
        records=call_streams(),
        chunk_records=st.integers(min_value=1, max_value=100),
    )
    def test_tree_matches_reference_on_call_streams(self, records, chunk_records):
        self._assert_parity(records, chunk_records)

    @DIFF_SETTINGS
    @given(
        records=switch_streams(),
        chunk_records=st.integers(min_value=1, max_value=100),
    )
    def test_tree_matches_reference_on_switch_streams(self, records, chunk_records):
        """Calls suspended across context switches, several processes."""
        self._assert_parity(records, chunk_records)

    @DIFF_SETTINGS
    @given(
        records=record_streams(),
        chunk_records=st.integers(min_value=1, max_value=100),
    )
    def test_tree_matches_reference_on_raw_streams(self, records, chunk_records):
        """Unknown tags, unmatched exits and stray switches included."""
        self._assert_parity(records, chunk_records)


class TestGprofParity:
    """gprof is assembled from the fold's arcs; its report must equal the
    reference tree walk over the reference forest entry for entry and arc
    for arc, in order, whether the fold gets the stream whole or cut into
    batches, and so must the walk of the program's own tree."""

    def _assert_parity(self, records, chunk_records):
        reference = oracles.reference_gprof_report(
            oracles.reference_call_tree(_reference_events(records))
        )
        want = _gprof_fields(reference)
        capture = capture_from_records(records, NAMES)
        from_tree = gprof_report(analyze_capture(capture))
        assert _gprof_fields(from_tree) == want
        for chunk in (len(records) or 1, chunk_records):
            fold = SummaryAccumulator(NAMES)
            for start in range(0, len(records), chunk):
                fold.feed_columns(
                    columns_of(records[start : start + chunk])
                )
            report = gprof_from_fold(fold)
            assert _gprof_fields(report) == want
            assert report.format(limit=100) == reference.format(limit=100)

    @DIFF_SETTINGS
    @given(
        records=call_streams(),
        chunk_records=st.integers(min_value=1, max_value=100),
    )
    def test_gprof_matches_reference_on_call_streams(self, records, chunk_records):
        self._assert_parity(records, chunk_records)

    @DIFF_SETTINGS
    @given(
        records=switch_streams(),
        chunk_records=st.integers(min_value=1, max_value=100),
    )
    def test_gprof_matches_reference_on_switch_streams(self, records, chunk_records):
        """Trees of different processes interleave in time: entries and
        arcs keep preorder, not open order."""
        self._assert_parity(records, chunk_records)

    @DIFF_SETTINGS
    @given(
        records=record_streams(),
        chunk_records=st.integers(min_value=1, max_value=100),
    )
    def test_gprof_matches_reference_on_raw_streams(self, records, chunk_records):
        """Unknown tags, unmatched exits and stray switches included."""
        self._assert_parity(records, chunk_records)

    @DIFF_SETTINGS
    @given(
        records=loop_streams(),
        chunk_records=st.integers(min_value=1, max_value=100),
    )
    def test_gprof_matches_reference_on_loop_streams(self, records, chunk_records):
        """A run at depth 0 is a row of tree roots: its arc keeps the
        preorder key of its first call."""
        self._assert_parity(records, chunk_records)


class TestChromeTraceParity:
    """The Chrome trace is written off the fold as it closes each call;
    its events must equal the reference exporter's walk of the reference
    forest as a multiset, and its trailer must carry every value of the
    reference document's ``otherData``, whether the fold gets the stream
    whole or in 1-, 7- or 13-record batches."""

    def _assert_parity(self, records):
        reference = oracles.capture_to_chrome_trace(
            oracles.reference_call_tree(_reference_events(records)), label="diff"
        )
        want = sorted(json.dumps(e, sort_keys=True) for e in reference["traceEvents"])
        for chunk in (len(records) or 1, 1, 7, 13):
            out = io.StringIO()
            writer = ChromeTraceWriter(out, label="diff")
            fold = SummaryAccumulator(NAMES)
            fold.recorder = writer
            for start in range(0, len(records), chunk):
                fold.feed_columns(columns_of(records[start : start + chunk]))
            writer.close(fold.close())
            *events, trailer = json.loads(out.getvalue())
            assert sorted(json.dumps(e, sort_keys=True) for e in events) == want
            assert trailer["name"] == "trace_end"
            for key, value in reference["otherData"].items():
                assert trailer["args"][key] == value, key

    @DIFF_SETTINGS
    @given(records=call_streams())
    def test_trace_matches_reference_on_call_streams(self, records):
        """Interrupt bursts and inline marks inside calls."""
        self._assert_parity(records)

    @DIFF_SETTINGS
    @given(records=switch_streams())
    def test_trace_matches_reference_on_switch_streams(self, records):
        """Calls suspended across context switches, several processes."""
        self._assert_parity(records)

    @DIFF_SETTINGS
    @given(records=record_streams())
    def test_trace_matches_reference_on_raw_streams(self, records):
        """Unknown tags, unmatched exits, orphan marks and stray switches."""
        self._assert_parity(records)


class TestLintParity:
    """Stream lint reads the fold, not a call tree: P201 must still name
    the frames still open at the end of the capture (not those a missed
    exit closed) in the reference forest's preorder, which is not their
    order in time once processes interleave."""

    @DIFF_SETTINGS
    @given(records=st.one_of(switch_streams(), record_streams()))
    def test_open_frames_in_reference_preorder(self, records):
        at_end: list = []
        reference = oracles.reference_call_tree(_reference_events(records), at_end)
        ends = {id(node) for node in at_end}
        open_frames = [node.name for node in reference.nodes() if id(node) in ends]
        report = lint_records(columns_of(records), NAMES, ram_depth=None)
        messages = [d.message for d in report if d.code == "P201"]
        if not open_frames:
            assert messages == []
            return
        (message,) = messages
        assert message.startswith(
            f"{len(open_frames)} frame(s) still open at end of capture: "
            f"{', '.join(open_frames[:6])}"
        )
