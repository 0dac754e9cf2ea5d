"""Edge-path tests across packages (session failures, report notes, ...)."""

from __future__ import annotations

import pytest

from repro.analysis.reports import analyze_and_summarize, full_report
from repro.instrument.namefile import NameFileError, parse_line, parse_name_file
from repro.profiler.capture import CaptureSession
from repro.profiler.hardware import ProfilerBoard
from repro.profiler.ram import RawRecord

from stream_helpers import capture_from_records, make_names, stream


class TestCaptureSession:
    def test_exception_leaves_no_capture(self, simple_names):
        board = ProfilerBoard(depth=8)
        session = CaptureSession(board, simple_names)
        with pytest.raises(RuntimeError, match="boom"):
            with session:
                raise RuntimeError("boom")
        with pytest.raises(RuntimeError, match="not completed"):
            session.capture
        # The board was disarmed despite the failure.
        assert not board.active_led

    def test_nested_sessions_reset_the_board(self, simple_names):
        board = ProfilerBoard(depth=8)
        with CaptureSession(board, simple_names) as first:
            board.eprom_strobe(offset=2, now_ns=1_000)
        assert len(first.capture) == 1
        with CaptureSession(board, simple_names) as second:
            pass  # records from the first run must not leak in
        assert len(second.capture) == 0

    def test_synthetic_capture(self, simple_names):
        capture = capture_from_records(
            [RawRecord(tag=500, time=0), RawRecord(tag=501, time=9)],
            simple_names,
        )
        analysis, summary = analyze_and_summarize(capture)
        assert summary.get("main").calls == 1
        assert analysis.wall_us == 9


class TestReports:
    def test_anomaly_note_in_full_report(self, simple_names):
        capture = stream(
            simple_names,
            ("<", "read", 10),  # unmatched exit: one anomaly
            (">", "main", 20),
            ("<", "main", 40),
        )
        text = full_report(capture)
        assert "reconstruction anomalies" in text

    def test_trace_can_be_suppressed(self, simple_names):
        capture = stream(simple_names, (">", "main", 0), ("<", "main", 10))
        text = full_report(capture, include_trace=False)
        assert "Code path trace" not in text


class TestNameFileEdges:
    def test_conflicting_modifiers_rejected_either_order(self):
        with pytest.raises(NameFileError):
            parse_line("weird/100=!")

    def test_conflicting_modifiers_rejected(self):
        with pytest.raises(NameFileError):
            parse_name_file("bad/100!=\n")

    def test_negative_value_rejected(self):
        with pytest.raises(NameFileError):
            parse_name_file("f/-2\n")


class TestInstrumentEdges:
    def test_predicate_and_modules_combine(self):
        from repro.instrument.compiler import InstrumentingCompiler
        from repro.kernel import import_all
        from repro.kernel.kfunc import registered_functions

        import_all()
        image = InstrumentingCompiler().compile(
            registered_functions(),
            modules=["netinet"],
            predicate=lambda f: not f.is_asm,
        )
        names = set(image.instrumented)
        assert "tcp_input" in names
        assert "bcopy" not in names  # asm excluded by predicate

    def test_asm_listing_inline_form(self):
        from repro.instrument.compiler import InstrumentingCompiler
        from repro.instrument.tags import TagEntry

        listing = InstrumentingCompiler.asm_listing(
            "MGET", TagEntry(name="MGET", value=1002, inline=True)
        )
        assert "movb _ProfileBase+1002" in listing
        assert ".globl" not in listing  # inline: no function prologue


class TestTagSoupEdges:
    def test_modifier_order_both_ways(self):
        # '!' before '=' and after are both structural errors for the
        # same tag; the parser must reject rather than mis-assign.
        with pytest.raises(NameFileError):
            parse_name_file("x/100=!\n")

    def test_whitespace_in_name_rejected(self):
        with pytest.raises(NameFileError):
            parse_name_file("two words/100\n")


class TestBoardCounterVariants:
    def test_narrow_counter_wraps_fast(self, simple_names):
        from repro.profiler.counter import MicrosecondCounter

        board = ProfilerBoard(counter=MicrosecondCounter(width_bits=8))
        board.arm()
        board.eprom_strobe(offset=500, now_ns=0)
        board.eprom_strobe(offset=501, now_ns=300_000_000)  # 300 ms later
        # The 8-bit counter wrapped many times; the stored values are
        # truncated, and only sub-wrap gaps are recoverable.
        assert board.ram[1].time <= 0xFF

    def test_phase_offset_is_transparent_to_intervals(self):
        from repro.profiler.counter import MicrosecondCounter

        counter = MicrosecondCounter()
        counter.phase_ticks = 123_456
        s1 = counter.sample(5_000_000)
        s2 = counter.sample(9_000_000)
        assert counter.interval_ticks(s1, s2) == 4_000
