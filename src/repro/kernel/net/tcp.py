"""TCP input/output and the protocol control blocks.

A deliberately small but *real* TCP: checksums verify over the actual
segment bytes, sequence numbers advance, out-of-order segments are
dropped (the era's fast path), and ACKs go back down the full output path
(header build, checksum, IP, driver copy to controller RAM) so transmit
costs show up in the profile just as they do in the paper's Figure 3
(``westart`` in the top ten).

``in_pcblookup`` is the linear PCB-list search the paper measures at
~9 us.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.kfunc import kfunc
from repro.kernel.net.headers import (
    IPPROTO_TCP,
    IP_HDR_LEN,
    TCP_HDR_LEN,
    TH_ACK,
    TH_SYN,
    IpHeader,
    TcpHeader,
    cksum_bytes,
    cksum_fold,
    pseudo_header,
)
from repro.kernel.net.in_cksum import in_cksum
from repro.kernel.net.mbuf import Mbuf, m_adj, m_freem, m_getclust, m_length, m_pullup


class TcpState:
    """The states this miniature TCP distinguishes."""

    LISTEN = "listen"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    CLOSED = "closed"


class InPcb:
    """An Internet protocol control block (one per socket)."""

    def __init__(
        self,
        lport: int,
        laddr: int = 0,
        fport: int = 0,
        faddr: int = 0,
        socket: Optional[object] = None,
        ppcb: Optional["Tcpcb"] = None,
    ) -> None:
        self.lport = lport
        self.laddr = laddr
        self.fport = fport
        self.faddr = faddr
        self.socket = socket
        self.ppcb = ppcb


class Tcpcb:
    """Per-connection TCP state."""

    def __init__(
        self,
        state: str = TcpState.LISTEN,
        iss: int = 1000,
        snd_nxt: int = 1001,
        snd_una: int = 1001,
        snd_wnd: int = 4096,
        rcv_nxt: int = 0,
        delack: int = 0,
        delack_timer_armed: bool = False,
        inpcb: Optional[InPcb] = None,
    ) -> None:
        self.state = state
        self.iss = iss
        self.snd_nxt = snd_nxt
        #: Oldest unacknowledged sequence number (send side).
        self.snd_una = snd_una
        #: Peer's advertised window, bytes.
        self.snd_wnd = snd_wnd
        self.rcv_nxt = rcv_nxt
        self.delack = delack
        #: A delayed-ACK flush callout is pending.
        self.delack_timer_armed = delack_timer_armed
        self.inpcb = inpcb


def tcp_snd_chan(tp: "Tcpcb") -> tuple:
    """Wait channel for senders blocked on the send window."""
    return ("tcpsnd", id(tp))


def tcp_est_chan(tp: "Tcpcb") -> tuple:
    """Wait channel for an active open awaiting the handshake."""
    return ("tcpest", id(tp))


def _tcp_delack_expire(k, tp: "Tcpcb") -> None:
    """The TCP fast-timer half: flush a still-pending delayed ACK.

    Without this the classic delayed-ACK deadlock occurs: the sender's
    window fills on an odd segment count and both ends wait forever.
    """
    tp.delack_timer_armed = False
    if tp.delack > 0 and tp.state in (TcpState.ESTABLISHED, TcpState.SYN_RCVD):
        tp.delack = 0
        tcp_output(k, tp, flags=TH_ACK)


@kfunc(module="netinet/in_pcb", base_us=4.0)
def in_pcblookup(
    k, pcbs: list[InPcb], faddr: int, fport: int, laddr: int, lport: int
) -> Optional[InPcb]:
    """Linear PCB search with wildcard fallback (~9 us in the paper)."""
    wildcard_match: Optional[InPcb] = None
    for pcb in pcbs:
        k.work(1_100)  # one list element compare
        if pcb.lport != lport:
            continue
        if pcb.faddr == faddr and pcb.fport == fport:
            return pcb
        if pcb.faddr == 0 and pcb.fport == 0:
            wildcard_match = pcb
    return wildcard_match


@kfunc(module="netinet/tcp_input", base_us=42.0)
def tcp_input(k, m: Mbuf, ip: IpHeader) -> None:
    """Process one TCP segment addressed to us."""
    from repro.kernel.net.socket import sbappend, sonewconn, sorwakeup

    stack = k.netstack
    segment_len = ip.total_len - IP_HDR_LEN
    # Checksum the whole segment (pseudo-header + header + data): the
    # paper's 843-us-per-KB hot spot.
    m = m_pullup(k, m, min(IP_HDR_LEN + TCP_HDR_LEN, m_length(m)))
    pseudo = pseudo_header(ip.src, ip.dst, IPPROTO_TCP, segment_len)
    seg_bytes = b"".join(seg.data for seg in m.chain())[
        IP_HDR_LEN : IP_HDR_LEN + segment_len
    ]
    in_cksum(k, m, IP_HDR_LEN + segment_len)  # the measured cost
    if cksum_fold(cksum_bytes(pseudo + seg_bytes)) != 0:
        k.stat("tcp_badsum", 1)
        m_freem(k, m)
        return
    th = TcpHeader.unpack(seg_bytes)
    payload = seg_bytes[TCP_HDR_LEN:]

    pcb = in_pcblookup(
        k, stack.tcb, faddr=ip.src, fport=th.sport, laddr=ip.dst, lport=th.dport
    )
    if pcb is None or pcb.ppcb is None:
        k.stat("tcp_noport", 1)
        m_freem(k, m)
        return
    tp = pcb.ppcb

    if tp.state == TcpState.LISTEN:
        if not (th.flags & TH_SYN):
            k.stat("tcp_drops", 1)
            m_freem(k, m)
            return
        # Passive open: clone a connected socket off the listener.
        conn_pcb = sonewconn(k, pcb.socket, ip.src, th.sport)
        tp = conn_pcb.ppcb
        assert tp is not None
        tp.rcv_nxt = (th.seq + 1) & 0xFFFFFFFF
        tp.state = TcpState.SYN_RCVD
        # The SYN|ACK carries our iss (it consumes one sequence number;
        # the transition to ESTABLISHED advances snd_nxt past it).
        tp.snd_nxt = tp.iss
        tcp_output(k, tp, flags=TH_SYN | TH_ACK)
        m_freem(k, m)
        return

    if tp.state == TcpState.SYN_SENT:
        # Active open: expect the peer's SYN|ACK.
        if (th.flags & TH_SYN) and (th.flags & TH_ACK):
            from repro.kernel.sched import wakeup

            tp.rcv_nxt = (th.seq + 1) & 0xFFFFFFFF
            tp.snd_nxt = (tp.iss + 1) & 0xFFFFFFFF
            tp.snd_una = tp.snd_nxt
            tp.snd_wnd = th.win
            tp.state = TcpState.ESTABLISHED
            tcp_output(k, tp, flags=TH_ACK)
            wakeup(k, tcp_est_chan(tp))
        else:
            k.stat("tcp_drops", 1)
        m_freem(k, m)
        return

    if tp.state == TcpState.SYN_RCVD:
        if th.flags & TH_ACK:
            tp.state = TcpState.ESTABLISHED
            tp.snd_nxt = (tp.snd_nxt + 1) & 0xFFFFFFFF
            tp.snd_una = tp.snd_nxt
        if not payload:
            m_freem(k, m)
            return
        # Fall through: data may ride the handshake ACK.

    if tp.state not in (TcpState.ESTABLISHED, TcpState.SYN_RCVD):
        k.stat("tcp_drops", 1)
        m_freem(k, m)
        return

    # Send-side ACK processing: advance snd_una, open the window.
    if th.flags & TH_ACK:
        acked = (th.ack - tp.snd_una) & 0xFFFFFFFF
        if 0 < acked <= (tp.snd_nxt - tp.snd_una) & 0xFFFFFFFF:
            from repro.kernel.sched import wakeup

            tp.snd_una = th.ack & 0xFFFFFFFF
            tp.snd_wnd = th.win
            k.work(7_000)  # retransmit-queue trim
            wakeup(k, tcp_snd_chan(tp))

    if th.seq != tp.rcv_nxt:
        # Out of order: this era's input path drops and re-ACKs.
        k.stat("tcp_rcvoopack", 1)
        tcp_output(k, tp, flags=TH_ACK)
        m_freem(k, m)
        return

    if payload:
        tp.rcv_nxt = (tp.rcv_nxt + len(payload)) & 0xFFFFFFFF
        # Trim headers; what remains is the payload chain for the socket.
        m_adj(k, m, IP_HDR_LEN + TCP_HDR_LEN)
        so = pcb.socket
        sbappend(k, so.so_rcv, m)
        sorwakeup(k, so)
        k.stat("tcp_rcvpack", 1)
        k.stat("tcp_rcvbyte", len(payload))
        # Delayed ACK: every second segment (the era's behaviour), with
        # the fast-timer flush for a lone pending ACK.
        tp.delack += 1
        if tp.delack >= 2:
            tp.delack = 0
            tcp_output(k, tp, flags=TH_ACK)
        elif not tp.delack_timer_armed:
            tp.delack_timer_armed = True
            k.set_timeout(_tcp_delack_expire, tp, 2)
    else:
        m_freem(k, m)


@kfunc(module="netinet/tcp_usrreq", base_us=38.0)
def tcp_connect(k, tp: Tcpcb, faddr: int, fport: int) -> None:
    """Begin an active open: fill the pcb, send the SYN."""
    pcb = tp.inpcb
    if pcb is None:
        raise ValueError("connect on a detached tcpcb")
    pcb.faddr = faddr
    pcb.fport = fport
    if pcb.lport == 0:
        pcb.lport = 10_000 + (id(pcb) % 20_000)
    tp.state = TcpState.SYN_SENT
    # The SYN carries the initial sequence number; it consumes one.
    tp.snd_nxt = tp.iss
    tcp_output(k, tp, flags=TH_SYN)
    tp.snd_nxt = (tp.iss + 1) & 0xFFFFFFFF


@kfunc(module="netinet/tcp_output", base_us=55.0)
def tcp_output(k, tp: Tcpcb, flags: int = TH_ACK, payload: bytes = b"") -> None:
    """Emit one segment (header build, checksum, IP, driver)."""
    from repro.kernel.net.ip import ip_output

    pcb = tp.inpcb
    if pcb is None:
        raise ValueError("tcp_output on a detached tcpcb")
    header = TcpHeader(
        sport=pcb.lport,
        dport=pcb.fport,
        seq=tp.snd_nxt,
        ack=tp.rcv_nxt,
        flags=flags,
    )
    m = m_getclust(k, pkthdr=True)
    m.data = header.pack_with_checksum(pcb.laddr, pcb.faddr, payload) + payload
    in_cksum(k, m, m.m_len)  # the output-side checksum cost
    if payload:
        tp.snd_nxt = (tp.snd_nxt + len(payload)) & 0xFFFFFFFF
    k.stat("tcp_sndpack", 1)
    ip_output(k, m, src=pcb.laddr, dst=pcb.faddr, proto=IPPROTO_TCP)
