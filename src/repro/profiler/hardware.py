"""The assembled Profiler board.

Block diagram (paper Figure 1): the EPROM-socket tap feeds 16 address
lines into the tag side of a 40-bit-wide RAM; a free-running 1 MHz 24-bit
counter feeds the time side; a PAL gates the store strobe with the start
switch and the address-counter overflow latch; the address counter
increments after every store.

The board is completely passive from the host's point of view — a read of
the EPROM window returns whatever the piggy-backed boot EPROM holds (or
floating 0xFF) and, as a side effect invisible to software, latches
``(address offset, counter)`` into the next RAM slot.
"""

from __future__ import annotations

from typing import Optional

from repro.profiler.counter import MicrosecondCounter
from repro.profiler.pal import ControlLogic
from repro.profiler.ram import DEFAULT_DEPTH, TAG_MASK, TraceRam


class ProfilerBoard:
    """Counter + trace RAM + PAL, on one wire-wrapped card.

    ``now_ns`` is supplied per strobe by whoever wires the board to a
    machine (the EPROM socket adapter) — the board has its own crystal but
    the simulation keeps a single time base.
    """

    #: Bill of materials, for the cost story ("less than $100").
    CHIP_COUNT = {"sram": 5, "counter": 5, "pal": 1, "oscillator": 1, "delay_line": 1}

    def __init__(
        self,
        depth: int = DEFAULT_DEPTH,
        counter: Optional[MicrosecondCounter] = None,
    ) -> None:
        self.counter = counter if counter is not None else MicrosecondCounter()
        self.ram = TraceRam(depth=depth)
        self.logic = ControlLogic()

    # -- front panel ---------------------------------------------------------

    def arm(self) -> None:
        """Press the start switch."""
        self.logic.arm()

    def disarm(self) -> None:
        """Stop recording (data retained in the battery-backed RAM)."""
        self.logic.disarm()

    def reset(self) -> None:
        """Power-cycle: clear the RAM, the latch and the counters."""
        self.ram.erase()
        self.logic.reset()

    # -- the store strobe ------------------------------------------------------

    def eprom_strobe(self, offset: int, now_ns: int) -> bool:
        """One chip-enable pulse at EPROM-window *offset*, at time *now_ns*.

        The low 16 address lines are the event tag; the counter is latched
        simultaneously.  Returns whether the word was stored: ``False``
        when the PAL suppressed the store (disarmed or overflowed).

        This is the per-event hardware path — millions of strobes per
        capture — so the PAL gating and RAM store are flattened inline
        here (semantics identical to ``logic.strobe`` + ``ram.store``,
        which remain the spec for component-level use).  The counter
        already truncates its snapshot to the counter width.
        """
        logic = self.logic
        if not (logic._armed and not logic._overflowed):
            logic.suppressed_strobes += 1
            return False
        ram = self.ram
        tags = ram._tags
        if len(tags) >= ram.depth:
            # Address-counter carry-out: trip the overflow latch.
            logic._overflowed = True
            logic.suppressed_strobes += 1
            return False
        logic.stored_strobes += 1
        tags.append(offset & TAG_MASK)
        ram._times.append(self.counter.sample(now_ns))
        return True

    # -- status ------------------------------------------------------------------

    @property
    def active_led(self) -> bool:
        """Front-panel "storing" LED."""
        return self.logic.active_led

    @property
    def overflow_led(self) -> bool:
        """Front-panel "overflowed, stopped" LED."""
        return self.logic.overflow_led

    @property
    def events_stored(self) -> int:
        """Address-counter value (records written this capture)."""
        return len(self.ram)

    def pull_rams(self) -> TraceRam:
        """Remove the battery-backed RAMs for transfer to the upload host."""
        self.logic.disarm()
        return self.ram.remove_for_transfer()
