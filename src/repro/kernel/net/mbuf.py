"""Mbufs: the BSD network memory buffers.

4.3BSD-era geometry: 128-byte mbufs with ~100 bytes of payload, and
1 Kbyte external clusters — the paper's "1Kbyte mbuf cluster" that
``copyout`` moves in ~40 us.  Each mbuf records which memory region its
payload lives in: normally main memory, but the paper's rejected
optimisation ("make the buffers on the controller memory external mbuf
memory") is modelled by mbufs whose data stays in the controller's 8-bit
ISA RAM — every later touch of those bytes (checksum, copyout) then pays
the bus penalty, which is how the counterfactual run shows the loss.

``MGET`` is the classic allocation macro; the paper's name-file sample
shows it as an inline (``=``) trigger, and :func:`m_get` fires it.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.kernel.kfunc import kfunc
from repro.sim.bus import Region

MSIZE = 128
#: Payload bytes in an ordinary mbuf.
MLEN = 112
#: Payload bytes in a packet-header mbuf.
MHLEN = 100
#: External cluster size (1 KB in this era).
MCLBYTES = 1024


class Mbuf:
    """One mbuf: real payload bytes plus chain linkage."""

    def __init__(
        self,
        data: bytes = b"",
        region: Region = Region.MAIN,
        cluster: bool = False,
        pkthdr: bool = False,
        m_next: Optional["Mbuf"] = None,
        m_nextpkt: Optional["Mbuf"] = None,
    ) -> None:
        self.data = data
        self.region = region
        self.cluster = cluster
        self.pkthdr = pkthdr
        self.m_next = m_next
        self.m_nextpkt = m_nextpkt

    @property
    def m_len(self) -> int:
        return len(self.data)

    @property
    def capacity(self) -> int:
        if self.cluster:
            return MCLBYTES
        return MHLEN if self.pkthdr else MLEN

    def chain(self) -> Iterator["Mbuf"]:
        """This mbuf and everything linked through ``m_next``."""
        m: Optional[Mbuf] = self
        while m is not None:
            yield m
            m = m.m_next


def m_length(m: Mbuf) -> int:
    """Total bytes in a chain (uncosted helper)."""
    return sum(seg.m_len for seg in m.chain())


def m_copydata_bytes(m: Mbuf, off: int = 0, length: Optional[int] = None) -> bytes:
    """Gather chain payload into one bytes object (uncosted helper).

    Analysis-side convenience; kernel code that *copies* data charges an
    explicit ``bcopy``/``copyout``.
    """
    joined = b"".join(seg.data for seg in m.chain())
    if length is None:
        return joined[off:]
    if off + length > len(joined):
        raise ValueError(
            f"m_copydata beyond chain: off={off} len={length} have={len(joined)}"
        )
    return joined[off : off + length]


@kfunc(module="kern/uipc_mbuf", base_us=6.0)
def m_get(k, pkthdr: bool = False) -> Mbuf:
    """Allocate one mbuf (fires the ``MGET`` inline trigger).

    Like the real ``MGET`` macro, the free-list pop is protected by a
    raised spl — mbufs are allocated from interrupt level too.  These
    per-mbuf spl pairs are a big part of the paper's "9% of the total CPU
    time was spent in spl*" observation.
    """
    from repro.kernel.intr import splnet, splx

    k.inline_trigger("MGET")
    s = splnet(k)
    k.work(4_000)  # free-list pop (mbufs come from their own pool)
    splx(k, s)
    k.stat("mbufs_allocated", 1)
    return Mbuf(pkthdr=pkthdr)


@kfunc(module="kern/uipc_mbuf", base_us=9.0)
def m_getclust(k, pkthdr: bool = False, region: Region = Region.MAIN) -> Mbuf:
    """Allocate an mbuf with a 1 KB external cluster attached."""
    from repro.kernel.intr import splnet, splx

    k.inline_trigger("MGET")
    s = splnet(k)
    k.work(7_000)  # mbuf pop + cluster pop + ext bookkeeping
    splx(k, s)
    k.stat("mbufs_allocated", 1)
    k.stat("clusters_allocated", 1)
    return Mbuf(pkthdr=pkthdr, cluster=True, region=region)


@kfunc(module="kern/uipc_mbuf", base_us=5.0)
def m_free(k, m: Mbuf) -> Optional[Mbuf]:
    """Free one mbuf; returns its successor."""
    from repro.kernel.intr import splnet, splx

    s = splnet(k)
    k.stat("mbufs_freed", 1)
    if m.cluster:
        k.work(3_000)
        k.stat("clusters_freed", 1)
    successor = m.m_next
    m.m_next = None
    m.data = b""
    splx(k, s)
    return successor


@kfunc(module="kern/uipc_mbuf", base_us=4.0)
def m_freem(k, m: Optional[Mbuf]) -> None:
    """Free an entire chain."""
    while m is not None:
        m = m_free(k, m)


@kfunc(module="kern/uipc_mbuf", base_us=8.0)
def m_pullup(k, m: Mbuf, length: int) -> Mbuf:
    """Make the first *length* bytes contiguous in the first mbuf."""
    from repro.kernel.libkern import bcopy

    if length > m.capacity and not m.cluster:
        raise ValueError(f"m_pullup of {length} exceeds mbuf capacity")
    have = m.m_len
    while have < length:
        nxt = m.m_next
        if nxt is None:
            raise ValueError(
                f"m_pullup of {length} bytes but chain holds only {have}"
            )
        take = min(length - have, nxt.m_len)
        bcopy(k, take, nxt.region, m.region)
        m.data += nxt.data[:take]
        nxt.data = nxt.data[take:]
        if nxt.m_len == 0:
            m.m_next = m_free(k, nxt)
        have = m.m_len
    return m


@kfunc(module="kern/uipc_mbuf", base_us=6.0)
def m_adj(k, m: Mbuf, count: int) -> None:
    """Trim *count* bytes: positive from the front, negative from the back."""
    if count >= 0:
        remaining = count
        for seg in m.chain():
            take = min(remaining, seg.m_len)
            seg.data = seg.data[take:]
            remaining -= take
            if remaining == 0:
                break
        if remaining:
            raise ValueError(f"m_adj({count}) exceeds chain length")
    else:
        remaining = -count
        segs = list(m.chain())
        for seg in reversed(segs):
            take = min(remaining, seg.m_len)
            seg.data = seg.data[: seg.m_len - take]
            remaining -= take
            if remaining == 0:
                break
        if remaining:
            raise ValueError(f"m_adj({count}) exceeds chain length")


@kfunc(module="kern/uipc_mbuf", base_us=10.0)
def m_devget(
    k, frame: bytes, region_of_copy: Region = Region.MAIN
) -> Mbuf:
    """Build an mbuf chain for a device-received frame (already copied).

    The *driver* pays the ISA copy (``weget``'s big ``bcopy``); this
    routine only carves the bytes into a header mbuf plus clusters.
    """
    head = m_get(k, pkthdr=True)
    head.region = region_of_copy
    head.data = frame[:MHLEN]
    rest = frame[MHLEN:]
    tail = head
    while rest:
        seg = m_getclust(k, region=region_of_copy)
        seg.data = rest[:MCLBYTES]
        rest = rest[MCLBYTES:]
        tail.m_next = seg
        tail = seg
    return head


@kfunc(module="kern/uipc_mbuf", base_us=7.0)
def m_prepend(k, m: Mbuf, length: int) -> Mbuf:
    """Gain *length* bytes of header space in front of the chain."""
    head = m_get(k, pkthdr=m.pkthdr)
    m.pkthdr = False
    head.m_next = m
    head.data = bytes(length)
    return head
