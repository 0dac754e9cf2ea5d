"""Machine-independent address maps and the per-process vmspace."""

from __future__ import annotations

from typing import Optional

from repro.kernel.kfunc import kfunc
from repro.kernel.vm.pmap import PROT_ALL, Pmap, pmap_protect, pmap_remove
from repro.kernel.vm.vm_page import VmObject

PAGE_SIZE = 4096


class VmMapError(Exception):
    """Overlapping or malformed map operations."""


class VmMapEntry:
    """One contiguous mapping: ``[start, end)`` backed by an object."""

    def __init__(
        self,
        start: int,
        end: int,
        object: VmObject,
        offset: int = 0,
        prot: int = PROT_ALL,
        copy_on_write: bool = False,
        needs_copy: bool = False,
    ) -> None:
        if start % PAGE_SIZE or end % PAGE_SIZE:
            raise VmMapError(f"unaligned map entry {start:#x}..{end:#x}")
        if end <= start:
            raise VmMapError(f"empty/inverted map entry {start:#x}..{end:#x}")
        self.start = start
        self.end = end
        self.object = object
        self.offset = offset
        self.prot = prot
        self.copy_on_write = copy_on_write
        #: Entry may not be written until the COW fault materialises a copy.
        self.needs_copy = needs_copy

    @property
    def size(self) -> int:
        return self.end - self.start

    @property
    def pages(self) -> int:
        return self.size // PAGE_SIZE

    def contains(self, va: int) -> bool:
        return self.start <= va < self.end


class VmMap:
    """A sorted list of map entries over one pmap."""

    def __init__(self, pmap: Pmap) -> None:
        self.pmap = pmap
        self.entries: list[VmMapEntry] = []

    def lookup(self, va: int) -> Optional[VmMapEntry]:
        """Uncosted entry lookup (cost is charged by the kfunc wrappers)."""
        for entry in self.entries:
            if entry.contains(va):
                return entry
        return None

    def insert(self, entry: VmMapEntry) -> VmMapEntry:
        for existing in self.entries:
            if entry.start < existing.end and existing.start < entry.end:
                raise VmMapError(
                    f"mapping {entry.start:#x}..{entry.end:#x} overlaps "
                    f"{existing.start:#x}..{existing.end:#x}"
                )
        self.entries.append(entry)
        self.entries.sort(key=lambda e: e.start)
        return entry

    @property
    def span(self) -> tuple[int, int]:
        """Lowest start and highest end across all entries."""
        if not self.entries:
            return (0, 0)
        return (self.entries[0].start, self.entries[-1].end)


class Vmspace:
    """Per-process address space: map + pmap (+ the u-area pages)."""

    UPAGES = 2  # kernel stack + user structure

    def __init__(self, name: str = "") -> None:
        self.pmap = Pmap(name=name)
        self.map = VmMap(self.pmap)
        self.name = name

    def resident_pages(self) -> int:
        return len(self.pmap)


@kfunc(module="vm/vm_map", base_us=30.0)
def vm_map_find(
    k,
    vmspace: Vmspace,
    start: int,
    npages: int,
    obj: Optional[VmObject] = None,
    prot: int = PROT_ALL,
    copy_on_write: bool = False,
) -> VmMapEntry:
    """Create a mapping of *npages* at *start* (vm_map_find/vm_allocate)."""
    if npages <= 0:
        raise VmMapError(f"mapping of {npages} pages")
    if obj is None:
        obj = VmObject(kind="anon", size_pages=npages)
    entry = VmMapEntry(
        start=start,
        end=start + npages * PAGE_SIZE,
        object=obj,
        prot=prot,
        copy_on_write=copy_on_write,
    )
    vmspace.map.insert(entry)
    k.work(len(vmspace.map.entries) * 900)  # sorted-list insertion walk
    return entry


@kfunc(module="vm/vm_map", base_us=45.0)
def vm_map_delete(k, vmspace: Vmspace, start: int, end: int) -> int:
    """Unmap ``[start, end)``: pmap teardown plus entry removal.

    The pmap walk covers each overlapping *entry's* range (the page
    tables for the unmapped gaps between entries don't exist, so the
    real remove skips them via the page directory).  Deleting a whole
    address space funnels into one giant ``pmap_remove`` per region —
    the paper's 14 ms outlier is the biggest of these.
    """
    removed_pages = 0
    survivors = []
    for entry in vmspace.map.entries:
        if entry.start >= end or entry.end <= start:
            survivors.append(entry)
            continue
        lo = max(start, entry.start)
        hi = min(end, entry.end)
        removed_pages += pmap_remove(k, vmspace.pmap, lo, hi)
        entry.object.ref_count -= 1
        k.work(22_000)  # entry unlink + object deallocation checks
    vmspace.map.entries = survivors
    return removed_pages


@kfunc(module="vm/vm_map", base_us=35.0)
def vm_map_protect(k, vmspace: Vmspace, start: int, end: int, prot: int) -> int:
    """Change protection over a range (fork's write-protect step)."""
    for entry in vmspace.map.entries:
        if entry.start >= end or entry.end <= start:
            continue
        entry.prot = prot
    return pmap_protect(k, vmspace.pmap, start, end, prot)
