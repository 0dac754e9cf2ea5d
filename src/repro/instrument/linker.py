"""The two-stage kernel link that resolves ``_ProfileBase``.

The snag the paper hits (its Figure 2): after boot, 386BSD remaps itself
to virtual ``0xFE000000`` and then remaps the ISA memory hole *after* the
kernel image — so the virtual address of the Profiler's EPROM window
depends on the size of the kernel being linked.  The fix: link once with a
dummy ``_ProfileBase``, measure the kernel, compute the real value, and
relink only the one assembler file that defines the symbol.

This module reproduces the address arithmetic and the two-pass procedure,
including the fixed allocations between the kernel image and the ISA
window (kernel stack pages, the "proto udot area and other virtual memory
requirements").
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from repro.sim.bus import ISA_HOLE_END, ISA_HOLE_START

#: 386BSD relocates the kernel to this virtual base after initial loading.
KERNBASE = 0xFE000000

#: i386 page size.
PAGE_SIZE = 4096

#: Pages reserved between the kernel image and the ISA window: kernel
#: stack + proto udot area + "other virtual memory requirements".
FIXED_PAGES_AFTER_KERNEL = 4


class LinkError(Exception):
    """Unresolvable symbol or inconsistent two-pass result."""


def round_page(nbytes: int) -> int:
    """Round *nbytes* up to a page boundary."""
    if nbytes < 0:
        raise ValueError(f"negative size {nbytes}")
    return (nbytes + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


@dataclasses.dataclass(frozen=True)
class ObjectModule:
    """One relocatable object going into the kernel link."""

    name: str
    text_bytes: int
    data_bytes: int

    def __post_init__(self) -> None:
        if self.text_bytes < 0 or self.data_bytes < 0:
            raise LinkError(f"module {self.name!r} has negative section size")

    @property
    def size(self) -> int:
        return self.text_bytes + self.data_bytes


@dataclasses.dataclass(frozen=True)
class KernelLayout:
    """The post-remap virtual memory picture (paper Figure 2)."""

    kernel_size: int
    isa_window_va: int
    profile_base_va: int
    eprom_phys: int


def layout_for(kernel_size: int, eprom_phys: int) -> KernelLayout:
    """Compute the ISA remap and ``_ProfileBase`` for a kernel of a size.

    The ISA hole (physical ``0xA0000 .. 0x100000``) is mapped contiguously
    at the first page boundary after the kernel image plus the fixed
    pages; the EPROM window keeps its offset within the hole.
    """
    if not (ISA_HOLE_START <= eprom_phys < ISA_HOLE_END):
        raise LinkError(
            f"EPROM physical address {eprom_phys:#x} is outside the ISA hole"
        )
    isa_va = KERNBASE + round_page(kernel_size) + FIXED_PAGES_AFTER_KERNEL * PAGE_SIZE
    profile_base = isa_va + (eprom_phys - ISA_HOLE_START)
    return KernelLayout(
        kernel_size=kernel_size,
        isa_window_va=isa_va,
        profile_base_va=profile_base,
        eprom_phys=eprom_phys,
    )


@dataclasses.dataclass
class LinkedKernel:
    """The product of a completed link."""

    modules: tuple[ObjectModule, ...]
    layout: KernelLayout
    passes: int

    @property
    def profile_base(self) -> int:
        """The resolved run-time virtual address of the EPROM window."""
        return self.layout.profile_base_va


class TwoStageLinker:
    """The shell-script-driven two-pass link from the paper.

    Pass 1 links with a dummy ``_ProfileBase`` (the assembler stub holds
    0), which fixes the kernel's size.  The script extracts the size,
    rewrites the stub with the real value and relinks.  Because the stub
    is one constant in an already-sized assembler module, the second link
    cannot change the kernel size — the procedure converges in exactly two
    passes, which :meth:`link` verifies.
    """

    #: Size of the assembler stub module that defines ``_ProfileBase``.
    STUB_BYTES = 16

    def __init__(self, eprom_phys: int) -> None:
        if not (ISA_HOLE_START <= eprom_phys < ISA_HOLE_END):
            raise LinkError(
                f"EPROM physical address {eprom_phys:#x} is outside the ISA hole"
            )
        self.eprom_phys = eprom_phys

    def kernel_size(self, modules: Iterable[ObjectModule]) -> int:
        """Total image size: all modules plus the ``_ProfileBase`` stub."""
        return sum(m.size for m in modules) + self.STUB_BYTES

    def link(self, modules: Iterable[ObjectModule]) -> LinkedKernel:
        """Run the two-pass procedure and verify convergence."""
        module_tuple = tuple(modules)
        if not module_tuple:
            raise LinkError("cannot link an empty kernel")
        seen = set()
        for module in module_tuple:
            if module.name in seen:
                raise LinkError(f"duplicate object module {module.name!r}")
            seen.add(module.name)

        # Pass 1: dummy _ProfileBase, measure the kernel.
        size_pass1 = self.kernel_size(module_tuple)
        layout_pass1 = layout_for(size_pass1, self.eprom_phys)

        # Pass 2: real _ProfileBase; the stub size is unchanged, so the
        # image size — and therefore the layout — must be identical.
        size_pass2 = self.kernel_size(module_tuple)
        if size_pass2 != size_pass1:
            raise LinkError(
                f"two-stage link did not converge: pass1 size {size_pass1}, "
                f"pass2 size {size_pass2}"
            )
        layout = layout_for(size_pass2, self.eprom_phys)
        if layout != layout_pass1:
            raise LinkError("two-stage link produced inconsistent layouts")
        return LinkedKernel(modules=module_tuple, layout=layout, passes=2)

    def relocate_for_new_socket(
        self, linked: LinkedKernel, new_eprom_phys: int
    ) -> LinkedKernel:
        """Move the Profiler to a different ROM socket.

        The paper: "If the physical address of the Profiler EPROM location
        is changed, then only this assembler file has to be modified" —
        i.e. no recompilation of the kernel proper, just a relink.
        """
        return TwoStageLinker(new_eprom_phys).link(linked.modules)
