"""The glue between processes and the VM system: fork, exec, exit.

This is where the paper locates the "fairly abysmal" numbers — ~24 ms for
a vfork, ~28 ms for an execve, with over half the time in the pmap/vm
routines and "a major amount of cross-calling between the pmap module and
the rest of the virtual memory subsystem".  The cross-calling is
reproduced deliberately: fork walks every mapped range through
``pmap_copy`` (the ~1053 ``pmap_pte`` calls per fork), write-protects the
writable ranges for COW, and exec/exit funnel whole-address-space
teardowns into giant ``pmap_remove`` calls.

Exec maps the cached image's VM objects copy-on-write and *faults* the
startup working set in — matching Figure 5, where ``vm_fault``,
``vm_page_lookup`` and ``pmap_enter`` all rank while ``bcopy`` stays
small even though the image is warm.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.kernel.kfunc import kfunc
from repro.kernel.libkern import bcopy
from repro.kernel.proc import Proc
from repro.kernel.vm.pmap import (
    PROT_READ,
    PROT_RW,
    pmap_copy,
    pmap_enter,
    pmap_protect,
)
from repro.kernel.vm.vm_map import Vmspace, VmMapEntry, vm_map_delete, vm_map_find
from repro.kernel.vm.vm_page import VmObject, vm_page_alloc, vm_page_free

PAGE_SIZE = 4096

#: User text starts at the traditional 386BSD base.
USRTEXT = 0x0000_1000
#: Top of the user stack.
USRSTACK = 0xFDBF_E000


class ExecImage(NamedTuple):
    """A program image as exec sees it (sizes in pages).

    ``data_reserve`` and ``stack_reserve`` are the *mapped ranges* (brk
    headroom, stack headroom) — mostly non-resident, but every fork and
    every exec-teardown walks them page by page, which is exactly how the
    paper's pmap call counts arise.  ``prefault_pages`` is how much of
    the (cached) image exec touches before returning — the rest demand
    faults as the program runs, matching Figure 5's vm_fault counts.
    """

    name: str
    text_pages: int = 70
    data_pages: int = 25
    bss_pages: int = 8
    data_reserve: int = 384
    stack_pages: int = 4
    stack_reserve: int = 600
    prefault_pages: int = 42

    @property
    def resident_pages(self) -> int:
        """Pages materialised by exec itself."""
        return self.text_pages + self.data_pages + self.stack_pages

    @property
    def mapped_pages(self) -> int:
        """Total range pages walked by fork/teardown."""
        return self.text_pages + self.data_reserve + self.stack_reserve

    @property
    def text_start(self) -> int:
        return USRTEXT

    @property
    def data_start(self) -> int:
        return USRTEXT + self.text_pages * PAGE_SIZE

    @property
    def stack_start(self) -> int:
        return USRSTACK - self.stack_reserve * PAGE_SIZE


#: The default image approximates a mid-size 386BSD binary (the shell).
DEFAULT_IMAGE = ExecImage(name="sh")


@kfunc(module="vm/vm_glue", base_us=220.0, name="vmspace_alloc")
def vmspace_alloc(k, name: str) -> Vmspace:
    """Allocate a fresh vmspace (map + pmap + u-area pages)."""
    vmspace = Vmspace(name=name)
    from repro.kernel.vm.kmem import kmem_alloc

    # The u-area (kernel stack + user struct) is wired kernel memory.
    kmem_alloc(k, Vmspace.UPAGES * PAGE_SIZE)
    return vmspace


def _cached_image_objects(k, image: ExecImage) -> tuple[VmObject, VmObject]:
    """The per-image cached text/data VM objects ("image already cached").

    Built once per kernel per image name; afterwards an exec finds every
    file page already resident and only pays mapping faults — the
    premise of the paper's fork/exec timing ("these times do not include
    any disk activity, as the process image was already cached").
    """
    cache: dict[str, tuple[VmObject, VmObject]] = getattr(k, "_image_cache", {})
    if not hasattr(k, "_image_cache"):
        k._image_cache = cache
    cached = cache.get(image.name)
    if cached is not None:
        return cached
    text_obj = VmObject(kind="text", size_pages=image.text_pages)
    data_obj = VmObject(kind="file-data", size_pages=image.data_pages)
    for i in range(image.text_pages):
        page = vm_page_alloc(k, text_obj, i * PAGE_SIZE)
        bcopy(k, PAGE_SIZE)  # first load: buffer cache -> page
        del page
    for i in range(image.data_pages):
        page = vm_page_alloc(k, data_obj, i * PAGE_SIZE)
        bcopy(k, PAGE_SIZE)
        del page
    cache[image.name] = (text_obj, data_obj)
    return text_obj, data_obj


@kfunc(module="vm/vm_glue", base_us=420.0)
def vmspace_exec(k, proc: Proc, image: ExecImage) -> Vmspace:
    """Replace *proc*'s address space with *image* (execve's VM half).

    Teardown of the old space is the giant ``pmap_remove``; the new space
    maps the cached image objects copy-on-write and *faults* its working
    set in (``prefault_pages`` now, the rest as the program runs) — which
    is why ``vm_fault``/``vm_page_lookup``/``pmap_enter`` all appear in
    the paper's Figure 5 while ``bcopy`` stays small.
    """
    from repro.kernel.vm.vm_fault import vm_fault

    old = proc.vmspace
    if old is not None:
        vmspace_teardown(k, old)
    vmspace = vmspace_alloc(k, f"{image.name}.{proc.pid}")
    proc.vmspace = vmspace

    text_obj, data_obj = _cached_image_objects(k, image)
    text_obj.ref_count += 1
    vm_map_find(
        k,
        vmspace,
        image.text_start,
        image.text_pages,
        obj=text_obj,
        prot=PROT_READ,
    )
    data_shadow = VmObject(kind="shadow", size_pages=image.data_reserve)
    data_shadow.shadow = data_obj
    data_obj.ref_count += 1
    data_entry = vm_map_find(
        k,
        vmspace,
        image.data_start,
        image.data_reserve,
        obj=data_shadow,
        prot=PROT_RW,
    )
    data_entry.needs_copy = True
    data_entry.copy_on_write = True
    stack_entry = vm_map_find(
        k, vmspace, image.stack_start, image.stack_reserve, prot=PROT_RW
    )

    # Fault in the startup working set: text read-only, initialised data
    # copy-on-write, stack zero-fill.
    remaining = image.prefault_pages
    for i in range(min(image.text_pages, (2 * remaining) // 3)):
        vm_fault(k, vmspace, image.text_start + i * PAGE_SIZE, write=False)
        remaining -= 1
    for i in range(min(image.data_pages, remaining)):
        vm_fault(k, vmspace, image.data_start + i * PAGE_SIZE, write=True)
    for i in range(image.stack_pages):
        va = stack_entry.end - (i + 1) * PAGE_SIZE
        vm_fault(k, vmspace, va, write=True)
    k.stat("execs_vm", 1)
    return vmspace


@kfunc(module="vm/vm_glue", base_us=700.0)
def vmspace_fork(k, parent: Proc, child: Proc) -> Vmspace:
    """Duplicate *parent*'s address space into *child* (fork's VM half).

    Text is shared; writable entries are marked copy-on-write behind
    fresh shadow objects on both sides, the parent's mappings are
    write-protected, and the child's page tables are built by walking
    every mapped range through ``pmap_copy``/``pmap_pte``.
    """
    src: Vmspace = parent.vmspace
    vmspace = vmspace_alloc(k, f"fork.{child.pid}")
    child.vmspace = vmspace
    for entry in src.map.entries:
        if entry.prot == PROT_READ:
            # Shared text: bump the object reference.
            entry.object.ref_count += 1
            vmspace.map.insert(
                VmMapEntry(
                    start=entry.start,
                    end=entry.end,
                    object=entry.object,
                    offset=entry.offset,
                    prot=entry.prot,
                )
            )
            k.work(35_000)  # entry dup + object reference juggling
        else:
            backing = entry.object
            child_obj = VmObject(kind="shadow", size_pages=entry.pages)
            child_obj.shadow = backing
            parent_obj = VmObject(kind="shadow", size_pages=entry.pages)
            parent_obj.shadow = backing
            vmspace.map.insert(
                VmMapEntry(
                    start=entry.start,
                    end=entry.end,
                    object=child_obj,
                    offset=entry.offset,
                    prot=entry.prot,
                    copy_on_write=True,
                    needs_copy=True,
                )
            )
            entry.object = parent_obj
            entry.copy_on_write = True
            entry.needs_copy = True
            k.work(95_000)  # two shadow allocations + map bookkeeping
            # COW write-protect of the parent's resident pages.
            pmap_protect(k, src.pmap, entry.start, entry.end, PROT_READ)
        # Build the child's page tables: the pmap_pte storm.
        pmap_copy(k, vmspace.pmap, src.pmap, entry.start, entry.end)
    # Copy the u-area (kernel stack + user struct).
    bcopy(k, Vmspace.UPAGES * PAGE_SIZE)
    k.stat("forks_vm", 1)
    return vmspace


@kfunc(module="vm/vm_glue", base_us=180.0)
def vmspace_teardown(k, vmspace: Vmspace) -> int:
    """Destroy an address space: the giant ``pmap_remove`` of exec/exit."""
    start, end = vmspace.map.span
    if end <= start:
        return 0
    resident = [
        page
        for entry in vmspace.map.entries
        for page in entry.object.pages.values()
        if entry.object.ref_count == 1
    ]
    removed = vm_map_delete(k, vmspace, start, end)
    for page in resident:
        vm_page_free(k, page)
    return removed


def vmspace_free(k, proc: Proc) -> None:
    """Exit-time address-space release."""
    if proc.vmspace is not None:
        vmspace_teardown(k, proc.vmspace)
        proc.vmspace = None
