"""Unit tests for the CPU cost model and the bus/memory map."""

from __future__ import annotations

import pytest

from repro.sim.bus import Bus, BusError, ISA_HOLE_START, MemoryRegion, Region
from repro.sim.cpu import CostModel, Cpu
from repro.sim.machine import Machine


class TestCostModel:
    def test_cycles_at_40mhz(self):
        model = CostModel(clock_hz=40_000_000)
        assert model.cycles(40) == 1_000  # 40 cycles at 25 ns each

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            CostModel().cycles(-1)

    def test_cksum_calibration_1kb(self):
        """Paper: "To checksum a 1 Kbyte packet was taking 843 microseconds"."""
        model = CostModel()
        us = model.cksum_ns(1024) / 1_000
        assert 750 <= us <= 930

    def test_asm_cksum_is_major_reduction(self):
        """Paper: recoding in_cksum should cut packet cost from ~2000 to
        ~1200 us, i.e. the checksum itself drops by roughly 10x."""
        stock = CostModel()
        recoded = stock.counterfactual(asm_cksum=True)
        assert recoded.cksum_ns(1024) < stock.cksum_ns(1024) / 5

    def test_cksum_in_isa_ram_much_worse(self):
        """Paper: checksumming in controller memory "would add at least an
        extra 980 microseconds" for a full packet."""
        model = CostModel()
        extra_us = (model.cksum_isa_ns(1500) - model.cksum_ns(1500)) / 1_000
        assert extra_us >= 980

    def test_counterfactual_values(self):
        model = CostModel().counterfactual(asm_cksum=True, clock_hz=25_000_000)
        assert (model.clock_hz, model.asm_cksum, model.main_read_ns) == (
            25_000_000, True, 13,
        )
        assert model.cksum_ns(1024) == 62_320
        assert model.cksum_isa_ns(1500) == 1_206_000
        assert model.cycles(100) == 4_000
        with pytest.raises(TypeError):
            CostModel().counterfactual(no_such_cost=1)

    def test_counterfactual_does_not_mutate(self):
        model = CostModel()
        other = model.counterfactual(asm_cksum=True, mbufs_in_controller_ram=True)
        assert not model.asm_cksum and other.asm_cksum
        assert not model.mbufs_in_controller_ram

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            CostModel().cksum_ns(-1)
        with pytest.raises(ValueError):
            CostModel().cksum_isa_ns(-1)

    def test_cpu_presets(self):
        assert Cpu.i386_40mhz().mhz == 40
        m68k = Cpu.m68020_25mhz()
        assert m68k.model.ast_emulation_ns == 0  # real multi-priority ints


class TestBus:
    def make_bus(self) -> Bus:
        return Bus(CostModel())

    def test_copy_cost_main_to_main_calibration(self):
        """Paper: copyout of a 1 KB mbuf cluster takes ~40 us."""
        bus = self.make_bus()
        us = bus.copy_ns(Region.MAIN, Region.MAIN, 1024) / 1_000
        assert 35 <= us <= 45

    def test_copy_cost_isa_to_main_calibration(self):
        """Paper: bcopy of a 1500 B frame out of controller RAM ~1045 us
        (modelled ~10% high so the Figure 3 bcopy/in_cksum ordering holds;
        see the CostModel calibration table)."""
        bus = self.make_bus()
        us = bus.copy_ns(Region.ISA8, Region.MAIN, 1500) / 1_000
        assert 990 <= us <= 1220

    def test_isa_slowdown_factor(self):
        """Paper: "the ISA bus is up to 20 times slower than main memory"."""
        bus = self.make_bus()
        assert 15 <= bus.slowdown(Region.ISA8) <= 25

    def test_isa_traffic_accounting(self):
        bus = self.make_bus()
        bus.copy_ns(Region.ISA8, Region.MAIN, 100)
        bus.copy_ns(Region.MAIN, Region.MAIN, 999)
        assert bus.isa_bytes_moved == 100

    def test_fill_cost(self):
        bus = self.make_bus()
        assert bus.fill_ns(Region.MAIN, 1000) == 1000 * CostModel().main_write_ns

    def test_map_and_find(self):
        bus = self.make_bus()
        region = bus.map(
            MemoryRegion(name="ram", base=0, size=0x1000, kind=Region.MAIN)
        )
        assert bus.find(0xFFF) is region
        with pytest.raises(BusError):
            bus.find(0x1000)

    def test_overlap_rejected(self):
        bus = self.make_bus()
        bus.map(MemoryRegion(name="a", base=0, size=0x100, kind=Region.MAIN))
        with pytest.raises(BusError):
            bus.map(MemoryRegion(name="b", base=0x80, size=0x100, kind=Region.MAIN))

    def test_read_tap_invoked(self):
        bus = self.make_bus()
        seen = []
        bus.map(
            MemoryRegion(
                name="rom",
                base=0x100,
                size=0x100,
                kind=Region.EPROM,
                on_read=lambda off: seen.append(off) or 0xAB,
            )
        )
        value, cost = bus.read8(0x142)
        assert value == 0xAB
        assert seen == [0x42]
        assert cost > 0

    def test_unmap(self):
        bus = self.make_bus()
        region = bus.map(MemoryRegion(name="a", base=0, size=16, kind=Region.MAIN))
        bus.unmap(region)
        with pytest.raises(BusError):
            bus.find(0)
        with pytest.raises(BusError):
            bus.unmap(region)

    def test_region_named(self):
        bus = self.make_bus()
        bus.map(MemoryRegion(name="video", base=0, size=16, kind=Region.ISA8))
        assert bus.region_named("video").kind is Region.ISA8
        with pytest.raises(BusError):
            bus.region_named("missing")


class TestMachine:
    def test_default_machine_is_the_case_study(self):
        machine = Machine()
        assert machine.cpu.name == "i386" and machine.cpu.mhz == 40
        assert machine.memory_bytes == 8 * 1024 * 1024
        assert machine.clock_chip.hz == 100

    def test_main_memory_mapped_below_isa_hole(self):
        machine = Machine()
        assert machine.main_memory.end == ISA_HOLE_START

    def test_isa_window_bounds_enforced(self):
        machine = Machine()
        with pytest.raises(BusError):
            machine.map_isa_window("bad", base=0x1000, size=0x100)
        region = machine.map_isa_window("ok", base=0xC0000, size=0x4000)
        assert region.kind is Region.ISA8

    def test_eprom_window_tap(self):
        machine = Machine()
        hits = []
        machine.map_eprom_window(
            "rom", base=0xD0000, size=0x10000, on_read=lambda off: hits.append(off) or 0
        )
        machine.bus.read8(0xD0000 + 1386)
        assert hits == [1386]

    def test_device_lookup(self):
        machine = Machine()
        assert machine.device_named("i8254") is machine.clock_chip
        with pytest.raises(KeyError):
            machine.device_named("nope")


class TestDecodeCache:
    def make_bus(self) -> Bus:
        bus = Bus(CostModel())
        bus.map(MemoryRegion(name="low", base=0x0, size=0x1000, kind=Region.MAIN))
        bus.map(MemoryRegion(name="rom", base=0xD0000, size=0x10000, kind=Region.EPROM))
        return bus

    def test_repeat_decodes_hit_the_cache(self):
        bus = self.make_bus()
        rom = bus.find(0xD0000)
        assert bus._hit is rom
        assert bus.find(0xD1234) is rom  # answered by the range check

    def test_cache_miss_falls_back_to_linear_scan(self):
        bus = self.make_bus()
        assert bus.find(0xD0000).name == "rom"
        assert bus.find(0x10).name == "low"
        assert bus.find(0xDFFFF).name == "rom"

    def test_unmap_clears_the_cached_hit(self):
        bus = self.make_bus()
        rom = bus.find(0xD0000)
        bus.unmap(rom)
        assert bus._hit is None
        with pytest.raises(BusError):
            bus.find(0xD0000)

    def test_map_unmap_bump_the_generation(self):
        bus = self.make_bus()
        start = bus.generation
        extra = bus.map(
            MemoryRegion(name="extra", base=0xC0000, size=0x1000, kind=Region.ISA8)
        )
        assert bus.generation == start + 1
        bus.unmap(extra)
        assert bus.generation == start + 2

    def test_disabled_cache_never_consults_a_stale_hit(self):
        bus = self.make_bus()
        rom = bus.find(0xD0000)
        assert bus._hit is rom
        bus.decode_cache = False
        # Out-of-range lookups must scan, not trust the stale hit.
        assert bus.find(0x10).name == "low"
        with pytest.raises(BusError):
            bus.find(0xF_FF00_0000)
