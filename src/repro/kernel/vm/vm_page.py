"""Machine-independent pages and VM objects.

Pages live in VM objects keyed by byte offset; COW is implemented with
shadow objects, exactly the Mach structure the paper's kernel inherited.
Figure 5 calibration: ``vm_page_lookup`` averages ~18 us per call.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.kernel.kfunc import kfunc

PAGE_SIZE = 4096

_object_ids = itertools.count(1)
_frame_numbers = itertools.count(0x100)


class VmPage:
    """One physical page frame's bookkeeping."""

    def __init__(
        self,
        frame: int,
        object: Optional["VmObject"],
        offset: int,
        busy: bool = False,
        dirty: bool = False,
    ) -> None:
        self.frame = frame
        self.object = object
        self.offset = offset
        self.busy = busy
        self.dirty = dirty


class VmObject:
    """A Mach VM object: a pager-backed collection of pages.

    ``shadow`` points at the object this one copy-on-writes over; reads
    fall through the shadow chain, writes materialise pages at the top.
    """

    def __init__(self, kind: str = "anon", size_pages: int = 0) -> None:
        self.id = next(_object_ids)
        self.kind = kind
        self.size_pages = size_pages
        self.pages: dict[int, VmPage] = {}
        self.shadow: Optional["VmObject"] = None
        self.ref_count = 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VmObject(id={self.id}, kind={self.kind!r}, "
            f"pages={len(self.pages)}/{self.size_pages})"
        )

    def chain_lookup(self, offset: int) -> Optional[tuple["VmObject", VmPage]]:
        """Walk the shadow chain for the page at *offset* (no costing)."""
        obj: Optional[VmObject] = self
        while obj is not None:
            page = obj.pages.get(offset)
            if page is not None:
                return obj, page
            obj = obj.shadow
        return None


@kfunc(module="vm/vm_page", base_us=13.0)
def vm_page_lookup(k, obj: VmObject, offset: int) -> Optional[VmPage]:
    """Find the page at *offset* in *obj* (one level, no shadow walk)."""
    if offset % PAGE_SIZE:
        raise ValueError(f"unaligned page offset {offset:#x}")
    k.work(1_500)  # bucket hash probe
    return obj.pages.get(offset)


@kfunc(module="vm/vm_page", base_us=16.0)
def vm_page_alloc(k, obj: VmObject, offset: int) -> VmPage:
    """Allocate a frame and insert it into *obj* at *offset*."""
    if offset % PAGE_SIZE:
        raise ValueError(f"unaligned page offset {offset:#x}")
    if offset in obj.pages:
        raise ValueError(
            f"object {obj.id} already has a page at offset {offset:#x}"
        )
    page = VmPage(frame=next(_frame_numbers), object=obj, offset=offset)
    obj.pages[offset] = page
    k.stat("v_pages_allocated", 1)
    return page


@kfunc(module="vm/vm_page", base_us=14.0)
def vm_page_free(k, page: VmPage) -> None:
    """Return a page to the free list and unlink it from its object."""
    if page.object is not None:
        page.object.pages.pop(page.offset, None)
        page.object = None
    k.stat("v_pages_freed", 1)
