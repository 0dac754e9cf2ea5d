"""CPU timing model for the simulated 40 MHz 386 target.

The paper's quantitative results are dominated by a handful of memory-path
and call-overhead costs.  This module centralises them in :class:`CostModel`
so every kernel function draws its simulated execution time from one
calibrated table, and so the paper's two counterfactual analyses ("make the
controller RAM external mbuf storage", "recode ``in_cksum`` in assembler")
become parameter changes rather than hand arithmetic.

Calibration sources (all from the paper text):

===========================  =======================  =====================
Constant                     Paper evidence           Derived value
===========================  =======================  =====================
main-memory copy             ``copyout`` of a 1 KB    39 ns/byte
                             mbuf cluster = 40 us
ISA-bus byte read (8-bit     ``bcopy`` of a 1500 B    745 ns/byte read;
controller RAM)              frame = 1045 us          copy ISA->main =
                                                      ~771 ns/byte
                                                      (~20x main memory;
                                                      paper: "up to 20
                                                      times slower";
                                                      +10% over the single
                                                      quoted copy so the
                                                      Figure 3 ordering
                                                      bcopy > in_cksum
                                                      holds)
checksum, unoptimised C      1 KB checksum = 843 us   740 ns/byte (-9% of
                                                      the single quote,
                                                      same Figure 3
                                                      ordering rationale)
checksum, recoded (asm)      packet cost would drop   55 ns/byte
                             2000 us -> ~1200 us
profiling trigger            "about 400 nanoseconds   400 ns per trigger
                             per function for a
                             40 MHz 386"
function call+return         "1 to 1.2% extra CPU     ~2.5 us average
                             cycles" for two          function body between
                             triggers per call        triggers
===========================  =======================  =====================

Times are integer nanoseconds throughout the simulator; the Profiler's own
1 MHz counter quantises to microseconds only at the capture boundary,
exactly as the hardware does.
"""

from __future__ import annotations

from typing import Optional

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000


class CostModel:
    """Calibrated per-operation costs, in nanoseconds.

    A single instance is shared by the whole machine.  Kernel code never
    hard-codes a latency; it asks the cost model, which keeps the paper's
    counterfactual experiments honest: re-running the same workload with a
    modified :class:`CostModel` is the simulated equivalent of recoding the
    routine on real hardware.
    """

    def __init__(
        self,
        clock_hz: int = 40_000_000,
        main_read_ns: int = 13,
        main_write_ns: int = 26,
        isa8_read_ns: int = 745,
        isa8_write_ns: int = 700,
        isa16_read_ns: int = 260,
        isa16_write_ns: int = 280,
        trigger_ns: int = 200,
        cksum_c_ns_per_byte: int = 740,
        cksum_asm_ns_per_byte: int = 55,
        cksum_setup_ns: int = 6_000,
        call_ns: int = 550,
        spl_mask_update_ns: int = 3_400,
        ast_emulation_ns: int = 24_000,
        mbufs_in_controller_ram: bool = False,
        asm_cksum: bool = False,
        naive_driver: bool = False,
    ) -> None:
        #: CPU core clock, Hz.  The paper's target is a 40 MHz 386.
        self.clock_hz = clock_hz

        # -- memory paths -------------------------------------------------
        #: Read one byte from main (cached) DRAM.
        self.main_read_ns = main_read_ns
        #: Write one byte to main DRAM.
        self.main_write_ns = main_write_ns
        #: Read one byte from an 8-bit device RAM across the ISA bus
        #: (the WD8003E on-board packet buffer).
        self.isa8_read_ns = isa8_read_ns
        #: Write one byte to 8-bit ISA device RAM.
        self.isa8_write_ns = isa8_write_ns
        #: Read one byte from a 16-bit ISA device (an EISA-class card would
        #: be wider still; kept for the paper's "try other controllers" note).
        self.isa16_read_ns = isa16_read_ns
        #: Write one byte to 16-bit ISA device RAM.
        self.isa16_write_ns = isa16_write_ns

        # -- routine-level constants --------------------------------------
        #: One profiling trigger: a single ``movb _ProfileBase+tag`` read of
        #: the EPROM window.  Paper: "about 400 nanoseconds per function"
        #: covers the prologue+epilogue pair, i.e. 400 ns per function call
        #: total.
        self.trigger_ns = trigger_ns
        #: Checksum cost per byte for the stock (unoptimised C) ``in_cksum``.
        self.cksum_c_ns_per_byte = cksum_c_ns_per_byte
        #: Checksum cost per byte after the paper's proposed assembler recode.
        self.cksum_asm_ns_per_byte = cksum_asm_ns_per_byte
        #: Fixed entry overhead of a checksum call (loop setup, mbuf walk).
        self.cksum_setup_ns = cksum_setup_ns
        #: Function call + return overhead (push/ret, frame link).
        self.call_ns = call_ns
        #: One CLI/STI-style interrupt mask update inside the spl* routines.
        self.spl_mask_update_ns = spl_mask_update_ns
        #: Extra work the 386 interrupt epilogue does to emulate Asynchronous
        #: System Traps ("around 24 microseconds per interrupt").
        self.ast_emulation_ns = ast_emulation_ns

        # -- feature switches for counterfactual runs ---------------------
        #: When True the Ethernet driver leaves received frames in
        #: controller RAM as external mbufs (the paper's rejected
        #: optimisation) instead of copying them to main memory immediately.
        self.mbufs_in_controller_ram = mbufs_in_controller_ram
        #: When True ``in_cksum`` uses the assembler-recode cost.
        self.asm_cksum = asm_cksum
        #: When True the Ethernet driver runs its original, un-recoded
        #: receive path: frames bounce through a staging buffer before the
        #: mbuf copy (the paper's 68020 case study: "the recoding of an
        #: Ethernet driver doubled the network throughput").
        self.naive_driver = naive_driver

    def cycles(self, n: int) -> int:
        """Return the duration of *n* CPU clock cycles in nanoseconds."""
        if n < 0:
            raise ValueError(f"negative cycle count: {n}")
        return (n * NS_PER_SEC) // self.clock_hz

    def cksum_ns(self, nbytes: int) -> int:
        """Cost of checksumming *nbytes* of main-memory data."""
        if nbytes < 0:
            raise ValueError(f"negative byte count: {nbytes}")
        per_byte = (
            self.cksum_asm_ns_per_byte if self.asm_cksum else self.cksum_c_ns_per_byte
        )
        return self.cksum_setup_ns + nbytes * per_byte

    def cksum_isa_ns(self, nbytes: int) -> int:
        """Cost of checksumming data that still sits in 8-bit ISA RAM.

        Every byte must cross the bus, so the memory fetch dominates; this
        is the number behind the paper's conclusion that checksumming in
        controller memory "would add at least an extra 980 microseconds".
        """
        if nbytes < 0:
            raise ValueError(f"negative byte count: {nbytes}")
        per_byte = (
            self.cksum_asm_ns_per_byte if self.asm_cksum else self.cksum_c_ns_per_byte
        )
        return self.cksum_setup_ns + nbytes * (per_byte + self.isa8_read_ns)

    def counterfactual(self, **changes: object) -> "CostModel":
        """Return a copy with *changes* applied.

        This is the programmatic form of the paper's "would this help?"
        analyses: build a counterfactual cost model, re-run the identical
        workload, compare packet times.
        """
        return CostModel(**{**vars(self), **changes})  # type: ignore[arg-type]


class Cpu:
    """Thin CPU facade: a cost model plus identification strings.

    The simulated kernel does not interpret instructions; the "CPU" exists
    so the machine has a place to hang the clock rate, the cost model and
    the architecture name used in reports.
    """

    def __init__(
        self, model: Optional[CostModel] = None, name: str = "i386", mhz: int = 40
    ) -> None:
        self.model = CostModel() if model is None else model
        self.name = name
        self.mhz = mhz

    @classmethod
    def i386_40mhz(cls) -> "Cpu":
        """The paper's case-study target: 40 MHz 386, 64 KB external cache."""
        return cls(model=CostModel(clock_hz=40_000_000), name="i386", mhz=40)

    @classmethod
    def m68020_25mhz(cls) -> "Cpu":
        """The paper's first target: a Megadata 68020 embedded board.

        Slower clock, but a multi-priority interrupt architecture, so the
        spl* routines are a single move-to-SR instruction.
        """
        model = CostModel(
            clock_hz=25_000_000,
            main_read_ns=21,
            main_write_ns=42,
            spl_mask_update_ns=100,
            ast_emulation_ns=0,
        )
        return cls(model=model, name="m68020", mhz=25)
