"""Memory map and bus timing for the simulated PC.

The paper's single largest finding is a memory-path one: "the ISA bus is up
to 20 times slower than main memory transfers", and the 8-bit WD8003E
controller sits on that bus.  The bus model therefore does two jobs:

* **cost accounting** — every simulated copy/checksum asks the bus how long
  moving bytes between two regions takes, using the calibrated
  :class:`~repro.sim.cpu.CostModel`;
* **address decoding** — reads of the EPROM window are routed to whatever
  device claims it.  That device is the Profiler: the paper's entire
  trigger mechanism is "a read of ``_ProfileBase + tag``", and this is the
  wire it travels down.

The ISA hole of a PC lives between 0xA0000 and 0x100000; the case study
plugs the Profiler into the spare EPROM socket of the WD8003E card inside
that hole (the paper notes any ROM socket at a known address would do).
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.sim.cpu import CostModel


class Region(enum.Enum):
    """Memory-region classes with distinct bus timing."""

    #: Cached main DRAM.
    MAIN = "main"
    #: 8-bit device RAM on the ISA bus (WD8003E packet buffer).
    ISA8 = "isa8"
    #: 16-bit device RAM on the ISA bus.
    ISA16 = "isa16"
    #: An EPROM window (reads are decoded to a device tap; timing as ISA8).
    EPROM = "eprom"


#: The bottom of the PC ISA memory hole (hex A0000).
ISA_HOLE_START = 0x000A0000
#: The top of the PC ISA memory hole (hex 100000).
ISA_HOLE_END = 0x00100000


class BusError(Exception):
    """An access decoded to no mapped region, or an invalid mapping."""


class MemoryRegion:
    """One mapped window of the physical address space."""

    def __init__(
        self,
        name: str,
        base: int,
        size: int,
        kind: Region,
        on_read: Optional[Callable[[int], int]] = None,
    ) -> None:
        if size <= 0:
            raise BusError(f"region {name!r} has non-positive size {size}")
        if base < 0:
            raise BusError(f"region {name!r} has negative base {base:#x}")
        self.name = name
        self.base = base
        self.size = size
        self.kind = kind
        #: Called with the offset *within* the region on every byte read.
        #: Returns the byte value.  This is how the Profiler taps the socket.
        self.on_read = on_read

    @property
    def end(self) -> int:
        """One past the last mapped address."""
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        """True when *addr* decodes into this region."""
        return self.base <= addr < self.end

    def overlaps(self, other: "MemoryRegion") -> bool:
        """True when the two regions share any address."""
        return self.base < other.end and other.base < self.end


class Bus:
    """The machine's physical address decoder and timing oracle.

    Regions are registered at machine-build time; lookups are by address
    (for the trigger path) or by region handle (for bulk-copy costing).
    """

    def __init__(self, cost: CostModel) -> None:
        self.cost = cost
        self._regions: list[MemoryRegion] = []
        #: Total bytes moved across the ISA bus, for bandwidth reports.
        self.isa_bytes_moved = 0
        #: Bumped on every map/unmap; lets callers that pre-resolve a
        #: region (the kernel's trigger path) detect a stale resolution
        #: with one integer compare instead of re-decoding per access.
        self.generation = 0
        #: Last region a ``find`` decoded to.  Trigger storms hit the
        #: same EPROM window millions of times in a row, so this turns
        #: the linear decode into one range check.  Set ``decode_cache``
        #: False to force the original linear scan (baseline runs).
        self.decode_cache = True
        self._hit: Optional[MemoryRegion] = None

    # -- mapping -----------------------------------------------------------

    def map(self, region: MemoryRegion) -> MemoryRegion:
        """Register *region*; reject overlaps with existing mappings."""
        for existing in self._regions:
            if existing.overlaps(region):
                raise BusError(
                    f"region {region.name!r} [{region.base:#x},{region.end:#x}) "
                    f"overlaps {existing.name!r} "
                    f"[{existing.base:#x},{existing.end:#x})"
                )
        self._regions.append(region)
        self.generation += 1
        return region

    def unmap(self, region: MemoryRegion) -> None:
        """Remove a previously mapped region."""
        try:
            self._regions.remove(region)
        except ValueError:
            raise BusError(f"region {region.name!r} is not mapped") from None
        if self._hit is region:
            self._hit = None
        self.generation += 1

    def find(self, addr: int) -> MemoryRegion:
        """Decode *addr* to its region; raise :class:`BusError` if unmapped.

        Regions never overlap and never move, so the last-hit cache can
        answer repeat decodes of the same window with one range check.
        """
        if self.decode_cache:
            hit = self._hit
            if hit is not None and hit.base <= addr < hit.end:
                return hit
        for region in self._regions:
            if region.contains(addr):
                if self.decode_cache:
                    self._hit = region
                return region
        raise BusError(f"bus error: no region maps address {addr:#x}")

    def region_named(self, name: str) -> MemoryRegion:
        """Look a region up by name."""
        for region in self._regions:
            if region.name == name:
                return region
        raise BusError(f"no region named {name!r}")

    @property
    def regions(self) -> tuple[MemoryRegion, ...]:
        """All mapped regions, in registration order."""
        return tuple(self._regions)

    # -- accesses ----------------------------------------------------------

    def read8(self, addr: int) -> tuple[int, int]:
        """Perform one byte read at *addr*.

        Returns ``(value, cost_ns)``.  A read of a region with an
        ``on_read`` tap (the EPROM window with the Profiler piggy-backed)
        invokes the tap — this is the hardware event-store strobe.
        """
        region = self.find(addr)
        value = 0xFF
        if region.on_read is not None:
            value = region.on_read(addr - region.base) & 0xFF
        return value, self._read_ns(region.kind)

    def copy_ns(self, src: Region, dst: Region, nbytes: int) -> int:
        """Cost of copying *nbytes* from a *src*-class to a *dst*-class region."""
        if nbytes < 0:
            raise ValueError(f"negative byte count: {nbytes}")
        if src in (Region.ISA8, Region.ISA16, Region.EPROM) or dst in (
            Region.ISA8,
            Region.ISA16,
        ):
            self.isa_bytes_moved += nbytes
        return nbytes * (self._read_ns(src) + self._write_ns(dst))

    def fill_ns(self, dst: Region, nbytes: int) -> int:
        """Cost of zero-filling *nbytes* in a *dst*-class region (``bzero``)."""
        if nbytes < 0:
            raise ValueError(f"negative byte count: {nbytes}")
        return nbytes * self._write_ns(dst)

    def slowdown(self, kind: Region) -> float:
        """How many times slower a transfer out of a *kind* region is than
        a main-to-main transfer.

        The paper's headline bus number: "To transfer similar amounts of
        data, the ISA bus is up to 20 times slower than main memory
        transfers."
        """
        isa_copy = self._read_ns(kind) + self._write_ns(Region.MAIN)
        main_copy = self._read_ns(Region.MAIN) + self._write_ns(Region.MAIN)
        return isa_copy / main_copy

    # -- internals ----------------------------------------------------------

    def _read_ns(self, kind: Region) -> int:
        if kind is Region.MAIN:
            return self.cost.main_read_ns
        if kind in (Region.ISA8, Region.EPROM):
            return self.cost.isa8_read_ns
        if kind is Region.ISA16:
            return self.cost.isa16_read_ns
        raise BusError(f"unknown region kind {kind!r}")

    def _write_ns(self, kind: Region) -> int:
        if kind is Region.MAIN:
            return self.cost.main_write_ns
        if kind in (Region.ISA8, Region.EPROM):
            return self.cost.isa8_write_ns
        if kind is Region.ISA16:
            return self.cost.isa16_write_ns
        raise BusError(f"unknown region kind {kind!r}")
