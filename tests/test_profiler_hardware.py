"""Unit and property tests for the Profiler hardware model."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.profiler.counter import MicrosecondCounter
from repro.profiler.eprom import EpromSocket, PiggyBackAdapter
from repro.profiler.hardware import ProfilerBoard
from repro.profiler.pal import ControlLogic
from repro.profiler.ram import RawRecord, TraceRam
from repro.sim.machine import Machine


class TestMicrosecondCounter:
    def test_one_mhz_24_bits(self):
        counter = MicrosecondCounter()
        assert counter.rate_hz == 1_000_000
        assert counter.width_bits == 24
        assert counter.mask == 0xFFFFFF

    def test_max_gap_about_16_seconds(self):
        """Paper: "a maximum time of 16 seconds between events"."""
        gap_s = MicrosecondCounter().max_gap_us / 1_000_000
        assert 16 <= gap_s <= 17

    def test_sample_truncates_to_width(self):
        counter = MicrosecondCounter()
        # 2**24 us + 5 us wraps to 5.
        t_ns = ((1 << 24) + 5) * 1_000
        assert counter.sample(t_ns) == 5

    def test_sample_is_microsecond_granular(self):
        counter = MicrosecondCounter()
        assert counter.sample(999) == 0
        assert counter.sample(1_000) == 1
        assert counter.sample(1_999) == 1

    def test_sample_non_integer_tick_period(self):
        """A rate whose period is not a whole ns keeps the exact mul/div."""
        counter = MicrosecondCounter(rate_hz=3_000_000)
        assert counter._ns_per_tick is None
        # 1 tick every 333.33 ns: at 1000 ns exactly 3 ticks have elapsed.
        assert counter.sample(1_000) == 3
        assert counter.sample(999) == 2
        assert counter.sample(7_777) == (7_777 * 3_000_000) // 1_000_000_000
        counter.phase_ticks = 0xFFFFFE
        assert counter.sample(1_000) == (3 + 0xFFFFFE) & counter.mask

    def test_interval_simple(self):
        counter = MicrosecondCounter()
        assert counter.interval_ticks(100, 250) == 150

    def test_interval_across_wrap(self):
        counter = MicrosecondCounter()
        assert counter.interval_ticks(0xFFFFFE, 3) == 5

    def test_interval_range_check(self):
        counter = MicrosecondCounter()
        with pytest.raises(ValueError):
            counter.interval_ticks(-1, 0)
        with pytest.raises(ValueError):
            counter.interval_ticks(0, 1 << 24)

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            MicrosecondCounter(width_bits=0)
        with pytest.raises(ValueError):
            MicrosecondCounter(rate_hz=0)

    @given(
        t1=st.integers(min_value=0, max_value=10**15),
        gap_us=st.integers(min_value=0, max_value=(1 << 24) - 1),
    )
    def test_interval_recovers_any_sub_wrap_gap(self, t1, gap_us):
        """The defining invariant: any real gap below one wrap period is
        recovered exactly from two truncated snapshots."""
        counter = MicrosecondCounter()
        t1_ns = t1 * 1_000
        t2_ns = t1_ns + gap_us * 1_000
        s1, s2 = counter.sample(t1_ns), counter.sample(t2_ns)
        assert counter.interval_ticks(s1, s2) == gap_us


class TestTraceRam:
    def test_capacity_16384(self):
        assert TraceRam().depth == 16384

    def test_store_and_read_back(self):
        ram = TraceRam(depth=4)
        ram.store(tag=1386, time=123456)
        assert ram[0] == RawRecord(tag=1386, time=123456)
        assert len(ram) == 1 and ram.free_slots == 3

    def test_overflow_raises(self):
        ram = TraceRam(depth=1)
        ram.store(1, 1)
        assert ram.full
        with pytest.raises(OverflowError):
            ram.store(2, 2)

    def test_field_truncation(self):
        ram = TraceRam(depth=1)
        ram.store(tag=0x1FFFF, time=0x1FFFFFF)
        assert ram[0] == RawRecord(tag=0xFFFF, time=0xFFFFFF)

    def test_remove_for_transfer(self):
        ram = TraceRam(depth=8)
        ram.store(1, 10)
        carrier = ram.remove_for_transfer()
        assert len(carrier) == 1 and len(ram) == 0
        assert carrier[0].tag == 1

    def test_record_validation(self):
        with pytest.raises(ValueError):
            RawRecord(tag=-1, time=0)
        with pytest.raises(ValueError):
            RawRecord(tag=0, time=1 << 24)


class TestControlLogic:
    def test_disarmed_suppresses(self):
        logic = ControlLogic()
        assert not logic.strobe(ram_full=False)
        assert logic.suppressed_strobes == 1

    def test_armed_stores(self):
        logic = ControlLogic()
        logic.arm()
        assert logic.strobe(ram_full=False)
        assert logic.stored_strobes == 1
        assert logic.active_led and not logic.overflow_led

    def test_overflow_latches_and_stops(self):
        logic = ControlLogic()
        logic.arm()
        assert not logic.strobe(ram_full=True)
        assert logic.overflow_led and not logic.active_led
        # Still suppressed even with room (latch holds until reset).
        assert not logic.strobe(ram_full=False)

    def test_reset_clears_latch(self):
        logic = ControlLogic()
        logic.arm()
        logic.strobe(ram_full=True)
        logic.reset()
        assert not logic.overflowed and not logic.armed


class TestProfilerBoard:
    def test_strobe_records_tag_and_time(self):
        board = ProfilerBoard()
        board.arm()
        assert board.eprom_strobe(offset=1386, now_ns=5_000_000)
        assert board.ram[0] == RawRecord(tag=1386, time=5_000)
        assert board.events_stored == 1

    def test_disarmed_board_records_nothing(self):
        board = ProfilerBoard()
        assert board.eprom_strobe(offset=1, now_ns=0) is False
        assert board.events_stored == 0

    def test_fills_then_overflow_led(self):
        board = ProfilerBoard(depth=3)
        board.arm()
        for i in range(3):
            assert board.eprom_strobe(offset=i, now_ns=i * 1000) is True
        assert board.eprom_strobe(offset=99, now_ns=9000) is False
        assert board.overflow_led
        assert board.events_stored == 3

    def test_pull_rams_empties_board(self):
        board = ProfilerBoard(depth=4)
        board.arm()
        board.eprom_strobe(offset=7, now_ns=0)
        carrier = board.pull_rams()
        assert len(carrier) == 1
        assert board.events_stored == 0

    def test_bill_of_materials(self):
        """Chip count from the paper: 5 RAMs, 5 counters, 1 PAL, 1
        oscillator, 1 delay line."""
        assert sum(ProfilerBoard.CHIP_COUNT.values()) == 13


class TestEpromSocketAdapter:
    def test_adapter_taps_and_passes_through(self):
        machine = Machine()
        board = ProfilerBoard()
        board.arm()
        image = bytes(range(256))
        adapter = PiggyBackAdapter(board, EpromSocket(image=image))
        adapter.plug_into(machine)
        machine.clock.tick(3_000)
        value, _ = machine.bus.read8(adapter.base + 42)
        assert value == 42  # boot EPROM still readable through the adapter
        assert board.events_stored == 1
        assert board.ram[0].tag == 42
        assert board.ram[0].time == 3  # 3 us

    def test_empty_socket_floats_high(self):
        machine = Machine()
        adapter = PiggyBackAdapter(ProfilerBoard())
        adapter.plug_into(machine)
        value, _ = machine.bus.read8(adapter.base)
        assert value == 0xFF

    def test_double_plug_rejected(self):
        machine = Machine()
        adapter = PiggyBackAdapter(ProfilerBoard())
        adapter.plug_into(machine)
        with pytest.raises(RuntimeError):
            adapter.plug_into(machine)

    def test_unplug(self):
        machine = Machine()
        adapter = PiggyBackAdapter(ProfilerBoard())
        adapter.plug_into(machine)
        adapter.unplug()
        adapter.plug_into(machine)  # can re-plug after unplug

    def test_oversized_image_rejected(self):
        with pytest.raises(ValueError):
            EpromSocket(image=bytes(1 << 17))

    def test_socket_offset_bounds(self):
        socket = EpromSocket(image=b"\x01")
        with pytest.raises(ValueError):
            socket.read(1 << 16)
