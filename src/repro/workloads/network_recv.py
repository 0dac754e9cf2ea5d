"""The network receive test (the paper's Figures 3 and 4).

"Profiling was performed on the TCP/IP and socket code by running a
program that listened on a socket and when another host connected, read
and discard the data.  A Sun Sparcstation 2 was used as the host to send
the data, as I was sure it could fill the available network bandwidth to
the PC over an ethernet.  This was the only test that caused the PC to be
totally CPU bound."

The SPARC sender is a reactive remote host: it opens the connection with
a real SYN, keeps a fixed window of full-size segments in flight, and
clocks new segments off the receiver's (delayed) ACKs — so the receiving
PC is saturated without overrunning the WD8003E's 8 KB ring.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from repro.kernel.net.headers import (
    IP_HDR_LEN,
    TCP_HDR_LEN,
    TH_ACK,
    TH_SYN,
    IpHeader,
    TcpHeader,
    build_tcp_frame,
)
from repro.kernel.net.if_we import RemoteHost, wire_time_ns
from repro.kernel.net.socket import Socket
from repro.kernel.proc import Proc
from repro.kernel.sched import user_mode
from repro.kernel.syscalls import syscall

SPARC_ADDR = 0x0A000002  # 10.0.0.2
LISTEN_PORT = 4000
SENDER_PORT = 1234


class SparcSender(RemoteHost):
    """The SPARCstation 2: connects, then streams data ACK-clocked."""

    def __init__(
        self,
        total_packets: int,
        payload_bytes: int = 1460,
        window_packets: int = 4,
        start_ns: int = 1_000_000,
    ) -> None:
        if total_packets <= 0 or payload_bytes <= 0:
            raise ValueError("sender needs positive packet count and size")
        self.total_packets = total_packets
        self.payload_bytes = payload_bytes
        self.window_packets = window_packets
        self.start_ns = start_ns
        self.iss = 9000
        self.snd_nxt = self.iss + 1
        self.sent_packets = 0
        self.acked_bytes = 0
        self.established = False
        self.ident = 100
        #: The sender's own NIC finishes one frame before the next: all
        #: transmissions serialise through this watermark (otherwise two
        #: closely-spaced ACKs would interleave two bursts on the wire
        #: and the receiver would see out-of-order segments).
        self._tx_free_ns = 0

    def start(self) -> None:
        """Put the SYN on the wire."""
        frame = build_tcp_frame(
            src=SPARC_ADDR,
            dst=0x0A000001,
            sport=SENDER_PORT,
            dport=LISTEN_PORT,
            seq=self.iss,
            ack=0,
            flags=TH_SYN,
            ident=self._ident(),
        )
        self.wire.send_to_host(frame, self.start_ns)

    def receive(self, frame: bytes, at_ns: int) -> None:
        """React to the receiver's SYN|ACK and ACKs."""
        ip = IpHeader.unpack(frame[14:34])
        if ip.proto != 6 or ip.src != 0x0A000001:
            return
        th = TcpHeader.unpack(frame[34 : 34 + TCP_HDR_LEN])
        if th.dport != SENDER_PORT:
            return
        cursor = at_ns + 50_000  # sender-side turnaround
        if (th.flags & TH_SYN) and (th.flags & TH_ACK) and not self.established:
            self.established = True
            # Complete the handshake, then open the window.
            ack_frame = build_tcp_frame(
                src=SPARC_ADDR,
                dst=0x0A000001,
                sport=SENDER_PORT,
                dport=LISTEN_PORT,
                seq=self.snd_nxt,
                ack=th.seq + 1,
                flags=TH_ACK,
                ident=self._ident(),
            )
            self.wire.send_to_host(ack_frame, cursor)
            cursor += wire_time_ns(len(ack_frame))
            self._tx_free_ns = max(self._tx_free_ns, cursor)
            self._send_burst(self.window_packets, th.seq + 1, cursor)
            return
        if th.flags & TH_ACK and self.established:
            newly_acked = (th.ack - (self.iss + 1)) - self.acked_bytes
            if newly_acked <= 0:
                return
            self.acked_bytes += newly_acked
            # Keep at most window_packets segments in flight: the ring on
            # the receiving card is only 8 KB and this TCP does not
            # retransmit (drops would deadlock the scenario, not model it).
            acked_packets = self.acked_bytes // self.payload_bytes
            in_flight = self.sent_packets - acked_packets
            burst = self.window_packets - in_flight
            if burst > 0:
                self._send_burst(burst, th.seq, cursor)

    def _send_burst(self, count: int, ack: int, start_ns: int) -> None:
        """Send up to *count* back-to-back full-size segments."""
        cursor = max(start_ns, self._tx_free_ns)
        for _ in range(count):
            if self.sent_packets >= self.total_packets:
                break
            payload = self._payload(self.sent_packets)
            frame = build_tcp_frame(
                src=SPARC_ADDR,
                dst=0x0A000001,
                sport=SENDER_PORT,
                dport=LISTEN_PORT,
                seq=self.snd_nxt,
                ack=ack,
                flags=TH_ACK,
                payload=payload,
                ident=self._ident(),
            )
            self.wire.send_to_host(frame, cursor)
            cursor += wire_time_ns(len(frame))
            self.snd_nxt += len(payload)
            self.sent_packets += 1
        self._tx_free_ns = cursor

    def _payload(self, index: int) -> bytes:
        pattern = bytes((index + i) & 0xFF for i in range(64))
        reps = (self.payload_bytes + len(pattern) - 1) // len(pattern)
        return (pattern * reps)[: self.payload_bytes]

    def _ident(self) -> int:
        self.ident += 1
        return self.ident


class NetworkReceiveResult(NamedTuple):
    """What the receive test measured."""

    bytes_received: int
    packets_sent: int
    elapsed_us: int
    reads: int

    @property
    def throughput_kbps(self) -> float:
        """Application-level throughput in kilobits per second."""
        if self.elapsed_us == 0:
            return 0.0
        return self.bytes_received * 8 / (self.elapsed_us / 1_000)


def network_receive(
    kernel: Any,
    total_packets: int = 60,
    payload_bytes: int = 1024,
    read_size: int = 4096,
) -> NetworkReceiveResult:
    """Run the listen/read/discard program against the SPARC sender."""
    # The SYN arrives after the listener has blocked in accept(), so the
    # capture includes the paper's Figure 4 context-switch fragment
    # (tsleep -> swtch -> idle -> interrupt -> "<- swtch" -> splx).
    sender = SparcSender(
        total_packets=total_packets,
        payload_bytes=payload_bytes,
        start_ns=2_500_000,
    )
    kernel.netstack.wire.attach_remote(sender)
    expected = total_packets * payload_bytes
    state = {"received": 0, "reads": 0}

    def server_body(k, proc: Proc):
        fd = yield from syscall(k, proc, "socket", Socket.SOCK_STREAM)
        yield from syscall(k, proc, "bind", fd, LISTEN_PORT)
        yield from syscall(k, proc, "listen", fd)
        conn_fd = yield from syscall(k, proc, "accept", fd)
        while state["received"] < expected:
            data = yield from syscall(k, proc, "read", conn_fd, read_size)
            state["received"] += len(data)
            state["reads"] += 1
            # "read and discard the data": a few user cycles per read.
            yield from user_mode(k, 15)
        yield from syscall(k, proc, "exit", 0)
        return 0

    start_us = kernel.now_us
    kernel.sched.spawn("ttcp-sink", server_body)
    sender.start()
    # The guard bound only matters if the scenario wedges (it should not).
    kernel.sched.run(until_ns=(start_us + 120_000_000) * 1_000)
    return NetworkReceiveResult(
        bytes_received=state["received"],
        packets_sent=sender.sent_packets,
        elapsed_us=kernel.now_us - start_us,
        reads=state["reads"],
    )
