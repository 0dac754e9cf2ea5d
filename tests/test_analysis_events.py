"""Tests for tag decode and 24-bit time reconstruction."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.analysis.columnar import (
    CODE_ENTRY,
    CODE_EXIT,
    CODE_INLINE,
    CODE_UNKNOWN,
    build_decode_map,
    unwrap_times,
)
from repro.analysis.events import decode_capture
from repro.analysis.summary import SummaryAccumulator
from repro.profiler.capture import Capture
from repro.profiler.ram import RawRecord
from repro.profiler.upload import read_capture_meta

import oracles
from stream_helpers import capture_from_records, make_names, stream


class TestReconstructTimes:
    """The counter unwrap, :func:`unwrap_times`."""

    def test_monotone_stream(self):
        assert unwrap_times([10, 20, 35]) == [0, 10, 25]

    def test_single_wrap(self):
        assert unwrap_times([0xFFFFF0, 0x000010]) == [0, 0x20]

    def test_multiple_wraps(self):
        times = unwrap_times([0xFFFFFE, 2, 0xFFFFFF, 5])
        assert times == [0, 4, 4 + 0xFFFFFD, 4 + 0xFFFFFD + 6]

    def test_empty(self):
        assert unwrap_times([]) == []

    def test_out_of_range_time_rejected(self):
        with pytest.raises(ValueError):
            unwrap_times([1 << 24])

    @given(
        gaps=st.lists(
            st.integers(min_value=0, max_value=(1 << 24) - 1),
            min_size=1,
            max_size=100,
        )
    )
    def test_any_sub_wrap_gaps_recovered(self, gaps):
        """Property: absolute times are recovered exactly for any stream
        whose inter-event gaps are below one wrap period."""
        absolute = [0]
        for gap in gaps:
            absolute.append(absolute[-1] + gap)
        assert unwrap_times([t & 0xFFFFFF for t in absolute]) == absolute


class TestDecode:
    """:func:`decode_capture` unwraps the counter beside the raw tags;
    the fold looks the tags up in :func:`build_decode_map`."""

    def test_decode_kinds(self, simple_names):
        capture = stream(
            simple_names,
            (">", "main", 0),
            ("=", "MGET", 5),
            ("<", "main", 10),
        )
        events = decode_capture(capture)
        decode_map = build_decode_map(simple_names)
        info = [decode_map[tag] for tag in events.tags]
        assert [code for code, *_ in info] == [CODE_ENTRY, CODE_INLINE, CODE_EXIT]
        assert [name for _, name, *_ in info] == ["main", "MGET", "main"]
        assert events.times == [0, 5, 10]

    def test_unknown_tag(self, simple_names):
        records = [RawRecord(tag=40_000, time=0)]
        (tag,) = decode_capture(capture_from_records(records, simple_names)).tags
        assert build_decode_map(simple_names)[tag] == (
            CODE_UNKNOWN, "tag#40000", None, False
        )

    def test_context_switch_flag(self, simple_names):
        capture = stream(simple_names, (">", "swtch", 0), ("<", "swtch", 9))
        decode_map = build_decode_map(simple_names)
        assert all(decode_map[tag][3] for tag in decode_capture(capture).tags)

    def test_indices_sequential(self, simple_names):
        """Event *i* is record *i*: one time and one tag per record, in
        stream order."""
        capture = stream(
            simple_names, (">", "main", 0), (">", "read", 1), ("<", "read", 2)
        )
        events = decode_capture(capture)
        assert len(events) == len(events.times) == len(events.tags) == 3
        assert list(events.tags) == list(capture.records.tags)
        assert events.times == [0, 1, 2]


class TestCounterWidthEdges:
    """The ``1 <= width_bits <= 24`` contract at its boundaries.

    A wrong wrap mask corrupts every reconstructed interval, so the
    decoder validates the width wherever one enters the path — and must
    accept exactly the range the per-record reference accepts.
    """

    def test_width_bounds_accepted(self, simple_names):
        records = [RawRecord(tag=0, time=0), RawRecord(tag=0, time=1)]
        # Width 1: a one-bit counter wrapping on every alternate tick.
        assert unwrap_times([0, 1], 1) == [0, 1]
        # Width 24: the stock board, full record range.
        assert unwrap_times([0, 1], 24) == [0, 1]
        for width in (1, 24):
            capture = capture_from_records(records, simple_names, counter_width_bits=width)
            assert len(decode_capture(capture)) == 2
            assert list(oracles.decoded_events(records, simple_names, width))

    @pytest.mark.parametrize("width_bits", [0, 25, -1])
    def test_width_out_of_bounds_rejected(self, simple_names, width_bits):
        records = [RawRecord(tag=0, time=0)]
        expected = f"counter width {width_bits} outside 1..24"
        with pytest.raises(ValueError, match=expected):
            unwrap_times([0], width_bits)
        with pytest.raises(ValueError, match=expected):
            decode_capture(
                capture_from_records(records, simple_names, counter_width_bits=width_bits)
            )
        with pytest.raises(ValueError, match=expected):
            list(oracles.decoded_events(records, simple_names, width_bits))
        # The fold unwraps inline, so it checks the width when built.
        with pytest.raises(ValueError, match=expected):
            SummaryAccumulator(simple_names, width_bits=width_bits)

    def test_width_one_wraps_every_tick(self):
        """0,1,0,1 on a 1-bit counter is a strictly advancing timeline."""
        assert unwrap_times([0, 1, 0, 1], 1) == [0, 1, 2, 3]

    def test_unwrap_checked_by_default(self):
        with pytest.raises(ValueError, match="exceeds the 16-bit counter"):
            unwrap_times([0, 1 << 16], 16)

    def test_overflow_flag_header_roundtrip(self, simple_names, tmp_path):
        """An MPF2 header carrying overflow + narrow width drives decode
        exactly as the per-record reference decodes the same records."""
        capture = stream(
            simple_names, (">", "main", 4), ("<", "main", 60_000)
        )
        narrowed = Capture(
            capture.records, capture.names, counter_width_bits=16, overflowed=True
        )
        path = tmp_path / "overflow.mpf"
        narrowed.save(path)
        meta = read_capture_meta(path)
        assert meta.overflowed is True
        assert meta.counter_width_bits == 16
        loaded = Capture.load(path, simple_names)
        assert loaded.overflowed is True
        assert loaded.counter_width_bits == 16
        reference = list(oracles.decoded_events(loaded.records.to_records(), simple_names, 16))
        events = decode_capture(loaded)
        assert events.times == [e.time_us for e in reference] == [0, 59_996]
        assert list(events.tags) == [e.raw.tag for e in reference]
