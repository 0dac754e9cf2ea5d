"""The instrumentation pass — the reproduction's "modified gcc 1.39".

The real system recompiles kernel source with a compiler option naming the
tag file; the compiler plants one trigger instruction in every function
prologue and epilogue and auto-extends the tag file.  Here the "source" is
the simulated kernel's function registry, and "compiling a module with
profiling enabled" means selecting that module in the pass.  Everything
else follows the paper:

* selective compilation per module — the macro- vs micro-profiling knob
  ("compile those modules of interest with profiling enabled, and ...
  the rest of the kernel without");
* assembler routines get their triggers via an include-file macro (they
  are flagged in the registry and counted separately — the case study had
  "35 assembler routines");
* inline triggers inside functions use the ``=`` modifier;
* the pass reports size and speed overhead ("around 1 to 1.2% extra CPU
  cycles ... about 400 nanoseconds per function for a 40 MHz 386", two
  instructions of code growth per function).
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional, Protocol, Sequence

from repro.instrument.namefile import NameTable
from repro.instrument.tags import TagEntry


class FunctionSymbol(Protocol):
    """What the pass needs to know about a compilable function."""

    name: str
    module: str
    is_asm: bool
    context_switch: bool


#: Encoded size of one x86 trigger instruction, ``movb _ProfileBase+tag,%al``
#: (opcode + modrm + disp32): 6 bytes.
TRIGGER_INSN_BYTES = 6

#: Triggers per instrumented C function: prologue + epilogue.
TRIGGERS_PER_FUNCTION = 2


class InstrumentedImage(NamedTuple):
    """The output of one instrumentation pass over the kernel.

    Holds the tag assignment actually compiled in, plus the bookkeeping
    the paper reports (trigger-point counts, size overhead).  ``install``
    arms a kernel with this assignment; running the same kernel without
    calling it is the "non-profiled kernel" of the overhead experiment.
    """

    names: NameTable
    instrumented: dict[str, TagEntry]
    c_functions: int
    asm_functions: int
    inline_points: int

    @property
    def trigger_points(self) -> int:
        """Total trigger instructions planted."""
        return (
            self.c_functions * TRIGGERS_PER_FUNCTION
            + self.asm_functions * TRIGGERS_PER_FUNCTION
            + self.inline_points
        )

    @property
    def profiled_functions(self) -> int:
        """Distinct profileable functions (C plus assembler)."""
        return self.c_functions + self.asm_functions

    @property
    def code_growth_bytes(self) -> int:
        """Bytes of code added by the triggers."""
        return self.trigger_points * TRIGGER_INSN_BYTES

    def install(self, kernel: "object") -> None:
        """Arm *kernel* with this tag assignment.

        The kernel exposes ``set_profile_map``; keeping the coupling to a
        single method lets tests install onto stubs.
        """
        entry_tags = {
            name: entry.entry_value
            for name, entry in self.instrumented.items()
            if not entry.inline
        }
        inline_tags = {
            name: entry.entry_value
            for name, entry in self.instrumented.items()
            if entry.inline
        }
        kernel.set_profile_map(entry_tags, inline_tags)  # type: ignore[attr-defined]


class InstrumentingCompiler:
    """Drives tag allocation and trigger planting over a function registry."""

    def __init__(self, names: Optional[NameTable] = None, first_tag: int = 500) -> None:
        if names is None:
            names = NameTable()
            names.seed(first_tag)
        self.names = names

    def compile(
        self,
        functions: Iterable[FunctionSymbol],
        modules: Optional[Sequence[str]] = None,
        inline_points: Sequence[str] = (),
        predicate: Optional[Callable[[FunctionSymbol], bool]] = None,
    ) -> InstrumentedImage:
        """Run the pass.

        *modules* selects which "source modules" are compiled with
        profiling enabled; ``None`` means all of them (macro-profiling of
        the whole kernel).  Module selection matches on exact name or
        prefix, so ``"net"`` selects ``net/tcp``, ``net/ip``, ...
        *inline_points* are hand-placed ``=`` triggers (``asm`` macro or
        assembler include file) to allocate alongside.  *predicate* is an
        escape hatch for arbitrary selection.
        """
        instrumented: dict[str, TagEntry] = {}
        c_count = 0
        asm_count = 0
        for function in functions:
            if not self._selected(function, modules, predicate):
                continue
            entry = self.names.allocate(
                function.name, context_switch=function.context_switch
            )
            instrumented[function.name] = entry
            if function.is_asm:
                asm_count += 1
            else:
                c_count += 1
        for point in inline_points:
            entry = self.names.allocate(point, inline=True)
            instrumented[point] = entry
        return InstrumentedImage(
            names=self.names,
            instrumented=instrumented,
            c_functions=c_count,
            asm_functions=asm_count,
            inline_points=len(inline_points),
        )

    @staticmethod
    def _selected(
        function: FunctionSymbol,
        modules: Optional[Sequence[str]],
        predicate: Optional[Callable[[FunctionSymbol], bool]],
    ) -> bool:
        if predicate is not None and not predicate(function):
            return False
        if modules is None:
            return True
        for module in modules:
            if function.module == module or function.module.startswith(module + "/"):
                return True
        return False

    # -- demonstration output ------------------------------------------------

    @staticmethod
    def asm_listing(function_name: str, entry: TagEntry) -> str:
        """Render the instrumented i386 prologue/epilogue from the paper.

        Matches the paper's 386BSD example::

            .globl _myfunction
            _myfunction:
                movb _ProfileBase+1386,%al
                pushl %ebp
                ...
        """
        if entry.inline:
            return (
                f"    /* inline trigger {entry.value} */\n"
                f"    movb _ProfileBase+{entry.value},%al\n"
            )
        return (
            f".globl _{function_name}\n"
            f"_{function_name}:\n"
            f"    movb _ProfileBase+{entry.entry_value},%al\n"
            f"    pushl %ebp\n"
            f"    movl %esp,%ebp\n"
            f"    ...\n"
            f"    leave\n"
            f"    movb _ProfileBase+{entry.exit_value},%cl\n"
            f"    ret\n"
        )

    def overhead_estimate(
        self,
        image: InstrumentedImage,
        trigger_ns: int,
        mean_function_ns: int,
    ) -> float:
        """Fractional CPU overhead of the planted triggers.

        With the paper's numbers (two ~200 ns triggers per call against a
        mean instrumented-function body of tens of microseconds) this lands
        in the ~1% band the paper reports.
        """
        if mean_function_ns <= 0:
            raise ValueError("mean function time must be positive")
        per_call = TRIGGERS_PER_FUNCTION * trigger_ns
        return per_call / (mean_function_ns + per_call)
