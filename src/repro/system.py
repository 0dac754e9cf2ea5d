"""Top-level assembly: the paper's complete case-study rig in one call.

``build_case_study()`` gives you what McRae had on the bench: a 40 MHz
386 PC running the miniature 386BSD, with the Profiler piggy-backed into
the WD8003E's spare EPROM socket and the kernel compiled with profiling
triggers.  ``CaseStudySystem.profile(...)`` is "press the switch, run the
test, pull the RAMs".
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.analysis.summary import ProfileSummary, summarize_capture
from repro.instrument.compiler import InstrumentedImage, InstrumentingCompiler
from repro.instrument.namefile import NameTable
from repro.kernel import import_all as _import_all_kernel_modules
from repro.kernel.kernel import Kernel
from repro.kernel.kfunc import registered_functions
from repro.profiler.capture import Capture, CaptureSession
from repro.profiler.eprom import PiggyBackAdapter
from repro.profiler.hardware import ProfilerBoard
from repro.sim.cpu import CostModel, Cpu
from repro.sim.machine import Machine
from repro.telemetry import TELEMETRY as _TELEMETRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.callstack import CallTreeAnalysis

#: Inline (``=``) trigger points planted by hand, per the paper's sample.
INLINE_POINTS = ("MGET",)

#: The kernel's name/tag file.  As in the paper it persists between
#: builds: each build extends a fresh read of it, so a function keeps its
#: tags whatever order the kernel modules happened to be imported in.
NAME_FILE = Path(__file__).parent / "kernel" / "case_study.tags"


@dataclasses.dataclass
class CaseStudySystem:
    """A booted machine+kernel with the Profiler attached and armed-able."""

    machine: Machine
    kernel: Kernel
    board: ProfilerBoard
    adapter: PiggyBackAdapter
    image: InstrumentedImage

    @property
    def names(self) -> NameTable:
        """The name/tag file contents for this build."""
        return self.image.names

    def profile(self, run: Callable[[], object], label: str = "") -> Capture:
        """Arm the board, run the workload callable, retrieve the capture.

        With telemetry enabled, the kernel's and engine's free-running
        statistics are read out once the board disarms (boundary sampling
        — the per-event hot path carries no probes): triggers fired,
        interrupts taken, kstack desyncs, interrupt-queue posts/pops, and
        the simulated clock.
        """
        session = CaptureSession(self.board, self.names, label=label)
        with session:
            run()
        if _TELEMETRY.enabled:
            stats = self.kernel.stats
            _TELEMETRY.set_gauge("sim.kernel.triggers", stats["triggers"])
            _TELEMETRY.set_gauge("sim.kernel.intr", stats["intr"])
            _TELEMETRY.set_gauge("sim.kernel.kstack_desync", stats["kstack_desync"])
            queue = self.machine.interrupts
            _TELEMETRY.set_gauge("sim.intrq.posted", queue.posted)
            _TELEMETRY.set_gauge("sim.intrq.popped", queue.popped)
            _TELEMETRY.set_gauge("sim.clock.now_us", self.machine.clock.now_us)
        return session.capture

    def analyze(self, capture: Capture) -> CallTreeAnalysis:
        """Reconstruct the capture's call forest."""
        from repro.analysis.callstack import analyze_capture

        return analyze_capture(capture)

    def summarize(self, capture: Capture) -> ProfileSummary:
        """The Figure 3 function summary."""
        return summarize_capture(capture)

    def report(self, capture: Capture, **kwargs: object) -> str:
        """The full two-part report."""
        from repro.analysis.reports import full_report

        return full_report(capture, **kwargs)


def build_case_study(
    profiled_modules: Optional[Sequence[str]] = None,
    board_depth: int = 16384,
    cost: Optional[CostModel] = None,
    with_network: bool = True,
    with_disk: bool = True,
    with_console: bool = True,
    instrument: bool = True,
    names: Optional[NameTable] = None,
) -> CaseStudySystem:
    """Build the full rig.

    ``profiled_modules`` selects micro-profiling (``None`` = compile the
    whole kernel with profiling, the macro-profile).  ``cost`` swaps in a
    counterfactual :class:`CostModel` (e.g. ``asm_cksum=True``).
    ``instrument=False`` builds the non-profiled kernel of the overhead
    experiment — triggers absent entirely.  ``names`` is the table the
    compiler extends (default: a fresh read of :data:`NAME_FILE`), so
    ``system.names`` always holds the whole kernel's tags, whichever
    modules were micro-profiled.
    """
    _import_all_kernel_modules()
    cpu = Cpu.i386_40mhz()
    if cost is not None:
        cpu = Cpu(model=cost, name=cpu.name, mhz=cpu.mhz)
    machine = Machine(cpu=cpu)
    kernel = Kernel(machine)

    board = ProfilerBoard(depth=board_depth)
    adapter = PiggyBackAdapter(board)
    kernel.attach_profiler(adapter)

    compiler = InstrumentingCompiler(
        names=NameTable.read(NAME_FILE) if names is None else names
    )
    image = compiler.compile(
        registered_functions(),
        modules=list(profiled_modules) if profiled_modules is not None else None,
        inline_points=INLINE_POINTS if instrument else (),
    )
    if instrument:
        image.install(kernel)

    kernel.boot(
        with_network=with_network,
        with_disk=with_disk,
        with_console=with_console,
    )
    return CaseStudySystem(
        machine=machine, kernel=kernel, board=board, adapter=adapter, image=image
    )
