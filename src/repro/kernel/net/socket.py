"""The socket layer: buffers, blocking receive, connection hand-off.

``soreceive`` is the top-level routine of the paper's network test
(Figure 3: 166 calls, enormous elapsed time because back-to-back packet
interrupts nest inside it, tiny net time).  Its structure is the
original's: raise ``splnet``, sleep in ``sbwait`` until the protocol
appends data, then dequeue mbufs and ``copyout`` each one to user space.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.kernel.intr import splnet, splx
from repro.kernel.kfunc import kfunc
from repro.kernel.net.mbuf import Mbuf, m_free
from repro.kernel.net.tcp import InPcb, Tcpcb, TcpState
from repro.kernel.sched import tsleep, wakeup


class SocketError(Exception):
    """Protocol misuse at the socket layer."""


@dataclasses.dataclass
class Sockbuf:
    """One direction's buffered data: a chain of mbuf chains."""

    mbufs: list[Mbuf] = dataclasses.field(default_factory=list)
    cc: int = 0
    hiwat: int = 16 * 1024


class Socket:
    """A (simplified) BSD socket."""

    SOCK_STREAM = 1
    SOCK_DGRAM = 2

    def __init__(self, sotype: int) -> None:
        self.sotype = sotype
        self.so_rcv = Sockbuf()
        self.so_snd = Sockbuf()
        self.pcb: Optional[InPcb] = None
        #: Completed connections awaiting accept (listener only).
        self.so_q: list["Socket"] = []
        self.so_qlimit = 0
        self.listening = False
        #: Source of the most recent datagram (UDP).
        self.last_from: Optional[tuple[int, int]] = None

    def so_q_chan(self) -> tuple:
        """Wait channel for accept() sleepers."""
        return ("so_q", id(self))


@kfunc(module="kern/uipc_socket", base_us=35.0)
def socreate(k, sotype: int) -> Socket:
    """Create a socket and its protocol control block."""
    from repro.kernel.malloc import malloc

    malloc(k, 192, "socket")
    so = Socket(sotype)
    pcb = InPcb(lport=0, laddr=k.netstack.local_addr, socket=so)
    so.pcb = pcb
    if sotype == Socket.SOCK_STREAM:
        pcb.ppcb = Tcpcb(inpcb=pcb)
        k.netstack.tcb.append(pcb)
    else:
        k.netstack.udb.append(pcb)
    return so


@kfunc(module="kern/uipc_socket", base_us=18.0)
def sobind(k, so: Socket, port: int) -> None:
    """Bind the local port."""
    if so.pcb is None:
        raise SocketError("bind on a detached socket")
    so.pcb.lport = port


@kfunc(module="kern/uipc_socket", base_us=14.0)
def solisten(k, so: Socket, backlog: int = 5) -> None:
    """Mark a stream socket as accepting connections."""
    if so.sotype != Socket.SOCK_STREAM:
        raise SocketError("listen on a non-stream socket")
    so.listening = True
    so.so_qlimit = backlog
    if so.pcb is not None and so.pcb.ppcb is not None:
        so.pcb.ppcb.state = TcpState.LISTEN


@kfunc(module="kern/uipc_socket", base_us=45.0)
def sonewconn(k, listener: Socket, faddr: int, fport: int) -> InPcb:
    """Clone a connection socket off a listener (SYN arrival)."""
    from repro.kernel.malloc import malloc

    malloc(k, 192, "socket")
    so = Socket(Socket.SOCK_STREAM)
    pcb = InPcb(
        lport=listener.pcb.lport if listener.pcb else 0,
        laddr=k.netstack.local_addr,
        faddr=faddr,
        fport=fport,
        socket=so,
    )
    pcb.ppcb = Tcpcb(inpcb=pcb)
    so.pcb = pcb
    k.netstack.tcb.append(pcb)
    listener.so_q.append(so)
    wakeup(k, listener.so_q_chan())
    return pcb


@kfunc(module="kern/uipc_socket", base_us=25.0, can_sleep=True)
def soaccept(k, so: Socket):
    """Block until a completed connection is available; return it."""
    if not so.listening:
        raise SocketError("accept on a non-listening socket")
    s = splnet(k)
    while not so.so_q:
        yield from tsleep(k, so.so_q_chan(), wmesg="netcon")
    conn = so.so_q.pop(0)
    splx(k, s)
    return conn


@kfunc(module="kern/uipc_socket", base_us=16.0)
def sbappend(k, sb: Sockbuf, m: Mbuf) -> None:
    """Append an mbuf chain to a socket buffer (links, no copy).

    Buffer bookkeeping is interrupt-shared state, so it sits inside a
    splnet pair — one more contribution to the paper's spl* tax.
    """
    s = splnet(k)
    length = sum(seg.m_len for seg in m.chain())
    sb.mbufs.append(m)
    sb.cc += length
    k.work(2_500)
    splx(k, s)


@kfunc(module="kern/uipc_socket", base_us=9.0)
def sorwakeup(k, so: Socket) -> None:
    """Wake readers blocked on the receive buffer."""
    s = splnet(k)
    wakeup(k, ("so_rcv", id(so)))
    splx(k, s)


@kfunc(module="kern/uipc_socket", base_us=8.0, can_sleep=True)
def sbwait(k, so: Socket):
    """Sleep until the receive buffer has data."""
    yield from tsleep(k, ("so_rcv", id(so)), wmesg="sbwait")


@kfunc(module="kern/uipc_socket", base_us=40.0, can_sleep=True)
def soreceive(k, so: Socket, length: int):
    """Receive up to *length* bytes (blocking); returns the bytes.

    Structure per the original: splnet, wait for data, then dequeue and
    ``copyout`` mbuf by mbuf — the per-cluster ~40 us copies of the
    paper's what-if arithmetic.
    """
    from repro.kernel.libkern import copyout
    from repro.sim.bus import Region

    if length <= 0:
        raise SocketError(f"soreceive of {length} bytes")
    s = splnet(k)
    while so.so_rcv.cc == 0:
        yield from sbwait(k, so)
    received = bytearray()
    while so.so_rcv.mbufs and len(received) < length:
        chain: Optional[Mbuf] = so.so_rcv.mbufs.pop(0)
        while chain is not None:
            take = min(chain.m_len, length - len(received))
            if take > 0:
                if chain.region is Region.MAIN:
                    copyout(k, take, chain.data[:take])
                else:
                    # External mbuf in controller RAM: the copyout reads
                    # across the ISA bus (the counterfactual's penalty).
                    from repro.kernel.libkern import bcopy

                    bcopy(k, take, src=chain.region, dst=Region.MAIN)
                received += chain.data[:take]
                so.so_rcv.cc -= take
            if take < chain.m_len:
                # Partially consumed: keep the tail buffered for the
                # next read instead of freeing it.
                chain.data = chain.data[take:]
                so.so_rcv.mbufs.insert(0, chain)
                break
            chain = m_free(k, chain)
        if len(received) >= length:
            break
    splx(k, s)
    k.stat("soreceive_bytes", len(received))
    return bytes(received)


@kfunc(module="kern/uipc_socket", base_us=45.0, can_sleep=True)
def sosend_dgram(k, so: Socket, payload: bytes, dst: int, dport: int):
    """Send one datagram (UDP): copyin, cluster fill, udp_output."""
    from repro.kernel.libkern import copyin
    from repro.kernel.net.mbuf import MCLBYTES, m_getclust
    from repro.kernel.net.udp import udp_output

    if so.pcb is None:
        raise SocketError("send on a detached socket")
    copyin(k, len(payload), payload)
    head: Optional[Mbuf] = None
    tail: Optional[Mbuf] = None
    rest = payload
    while True:
        seg = m_getclust(k, pkthdr=head is None)
        seg.data = rest[:MCLBYTES]
        rest = rest[MCLBYTES:]
        if head is None:
            head = seg
        else:
            assert tail is not None
            tail.m_next = seg
        tail = seg
        if not rest:
            break
    udp_output(k, so.pcb, head, dst=dst, dport=dport)
    if False:  # pragma: no cover - generator marker (sosend may block on sb space)
        yield
    return len(payload)


@kfunc(module="kern/uipc_socket", base_us=30.0, can_sleep=True)
def soconnect(k, so: Socket, faddr: int, fport: int):
    """Active open: send the SYN, sleep until the handshake completes.

    This is the measurable answer to the paper's macro-profiling question
    "How long does it take to open a TCP connection?"
    """
    from repro.kernel.net.tcp import TcpState, tcp_connect, tcp_est_chan

    if so.sotype != Socket.SOCK_STREAM or so.pcb is None or so.pcb.ppcb is None:
        raise SocketError("connect on a non-stream socket")
    tp = so.pcb.ppcb
    tcp_connect(k, tp, faddr, fport)
    s = splnet(k)
    while tp.state != TcpState.ESTABLISHED:
        yield from tsleep(k, tcp_est_chan(tp), wmesg="netcon")
    splx(k, s)
    return 0


@kfunc(module="kern/uipc_socket", base_us=42.0, can_sleep=True)
def sosend_stream(k, so: Socket, data: bytes, mss: int = 1024):
    """Stream *data* out a connected socket, honouring the send window.

    copyin from user space, chop into <=*mss* segments, block while a
    full window is unacknowledged — the transmit-side mirror of
    ``soreceive``.
    """
    from repro.kernel.libkern import copyin
    from repro.kernel.net.tcp import TcpState, tcp_output, tcp_snd_chan

    if so.pcb is None or so.pcb.ppcb is None:
        raise SocketError("send on a detached socket")
    tp = so.pcb.ppcb
    if tp.state != TcpState.ESTABLISHED:
        raise SocketError("send on an unconnected socket")
    copyin(k, len(data))
    offset = 0
    while offset < len(data):
        s = splnet(k)
        while (tp.snd_nxt - tp.snd_una) & 0xFFFFFFFF >= tp.snd_wnd:
            yield from tsleep(k, tcp_snd_chan(tp), wmesg="sbwait")
        splx(k, s)
        chunk = data[offset : offset + mss]
        tcp_output(k, tp, payload=chunk)
        offset += len(chunk)
    k.stat("sosend_bytes", len(data))
    return len(data)
