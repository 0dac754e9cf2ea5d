"""The i386 pmap module: machine-dependent page tables.

The paper's fork/exec bottleneck lives here.  ``pmap_pte`` — the routine
that resolves a virtual address to its page-table entry — "is called 1053
times when a fork is executed, and a similar amount when an exec is
done", at ~3 us per call (Figure 5), because every range operation
(remove/protect/copy) walks its range page by page through ``pmap_pte``
rather than skipping unmapped page-table pages.  That walk structure is
reproduced literally below.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.kfunc import kfunc

PAGE_SIZE = 4096

#: Protection bits.
PROT_READ = 0x1
PROT_WRITE = 0x2
PROT_EXEC = 0x4
PROT_RW = PROT_READ | PROT_WRITE
PROT_ALL = PROT_READ | PROT_WRITE | PROT_EXEC


class Pte:
    """One page-table entry."""

    def __init__(self, frame: int, prot: int, wired: bool = False) -> None:
        self.frame = frame
        self.prot = prot
        self.wired = wired


class Pmap:
    """One address space's page tables."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._ptes: dict[int, Pte] = {}
        #: Updates since the last TLB flush (statistics only).
        self.tlb_flushes = 0

    def __len__(self) -> int:
        return len(self._ptes)

    @staticmethod
    def vpn(va: int) -> int:
        """Virtual page number for *va*."""
        if va < 0:
            raise ValueError(f"negative virtual address {va:#x}")
        return va // PAGE_SIZE

    def raw_get(self, va: int) -> Optional[Pte]:
        """Uncosted PTE peek (assertions and tests only)."""
        return self._ptes.get(self.vpn(va))


@kfunc(module="i386/pmap", base_us=2.6)
def pmap_pte(k, pmap: Pmap, va: int) -> Optional[Pte]:
    """Resolve *va* to its PTE (the fork/exec hot spot: ~3 us a call)."""
    return pmap._ptes.get(pmap.vpn(va))


@kfunc(module="i386/pmap", base_us=8.0)
def pmap_enter(k, pmap: Pmap, va: int, frame: int, prot: int) -> Pte:
    """Install a mapping (Figure 5: ~29 us inclusive per call).

    The pv-list update is interrupt-shared state, protected by a raised
    spl in the real pmap — one source of the surprising number of
    ``splnet``-class calls in the paper's fork/exec profile.
    """
    from repro.kernel.intr import splnet, splx

    existing = pmap_pte(k, pmap, va)
    s = splnet(k)
    if existing is not None:
        k.work(4_000)  # modify + single-page TLB invalidate
        existing.frame = frame
        existing.prot = prot
        splx(k, s)
        return existing
    pte = Pte(frame=frame, prot=prot)
    pmap._ptes[pmap.vpn(va)] = pte
    k.work(6_000)  # PT page presence check + entry store
    splx(k, s)
    return pte


@kfunc(module="i386/pmap", base_us=24.0)
def pmap_remove(k, pmap: Pmap, sva: int, eva: int) -> int:
    """Tear mappings out of ``[sva, eva)``, walking page by page.

    The whole-address-space removes at exec/exit are the paper's Figure 5
    peak (max 14061 us for one call).  Returns pages actually removed.
    """
    if eva < sva:
        raise ValueError(f"pmap_remove range inverted: {sva:#x}..{eva:#x}")
    removed = 0
    for va in range(sva, eva, PAGE_SIZE):
        pte = pmap_pte(k, pmap, va)
        # Per-page loop glue around the pmap_pte call: range clipping,
        # pv-list lock juggling, the Mach<->pmap "hot glue" the paper
        # complains about.  It is charged even for absent pages — the
        # walk does not skip.
        k.work(7_500)
        if pte is None:
            continue
        del pmap._ptes[pmap.vpn(va)]
        removed += 1
        k.work(5_500)  # invalidate entry, pv unlink, page attributes
    if removed:
        k.work(12_000)  # TLB flush
        pmap.tlb_flushes += 1
    return removed


@kfunc(module="i386/pmap", base_us=22.0)
def pmap_protect(k, pmap: Pmap, sva: int, eva: int, prot: int) -> int:
    """Change protection across ``[sva, eva)`` — the fork write-protect walk.

    Unlike remove/copy, the real i386 ``pmap_protect`` inlines its own
    PTE walk instead of calling ``pmap_pte`` per page (which is why the
    paper counts ~1053 ``pmap_pte`` calls per fork, not ~2000); the walk
    cost is charged directly.
    """
    if eva < sva:
        raise ValueError(f"pmap_protect range inverted: {sva:#x}..{eva:#x}")
    changed = 0
    for va in range(sva, eva, PAGE_SIZE):
        k.work(2_200)  # inline PTE probe + pv lock juggling
        pte = pmap._ptes.get(pmap.vpn(va))
        if pte is None:
            continue
        pte.prot = prot
        changed += 1
        k.work(1_800)
    if changed:
        k.work(12_000)  # TLB flush
        pmap.tlb_flushes += 1
    return changed


@kfunc(module="i386/pmap", base_us=20.0)
def pmap_copy(k, dst: Pmap, src: Pmap, sva: int, eva: int) -> int:
    """Copy mappings from *src* to *dst* for a fork, page by page.

    This is the walk that makes ``pmap_pte`` the second-highest net-time
    function in the fork/exec profile: every page of every copied range
    goes through it, mapped or not.
    """
    if eva < sva:
        raise ValueError(f"pmap_copy range inverted: {sva:#x}..{eva:#x}")
    copied = 0
    for va in range(sva, eva, PAGE_SIZE):
        pte = pmap_pte(k, src, va)
        k.work(8_500)  # per-page loop glue (see pmap_remove)
        if pte is None:
            continue
        dst._ptes[dst.vpn(va)] = Pte(frame=pte.frame, prot=pte.prot)
        copied += 1
        k.work(11_000)  # pte store + pv_entry duplication
    return copied
