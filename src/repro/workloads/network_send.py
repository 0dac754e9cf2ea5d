"""The transmit-side network test: ttcp -t from the PC.

The paper's receive test saturates the PC from a SPARC; this workload
runs the mirror image — the PC actively opens a connection and streams
data out — answering two of its macro-profiling questions with one
capture: "How long does it take to open a TCP connection?" and where the
transmit path's time goes (the ``westart`` copy into controller RAM and
the output-side ``in_cksum``).
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.kernel.net.headers import (
    TCP_HDR_LEN,
    TH_ACK,
    TH_SYN,
    IpHeader,
    TcpHeader,
    build_tcp_frame,
)
from repro.kernel.net.if_we import RemoteHost, wire_time_ns
from repro.kernel.net.socket import Socket, soconnect, socreate, sosend_stream
from repro.kernel.proc import Proc
from repro.kernel.sched import user_mode
from repro.kernel.syscalls import syscall

SINK_ADDR = 0x0A000003  # 10.0.0.3
SINK_PORT = 5001


class SinkReceiver(RemoteHost):
    """The remote discard server: completes the handshake, ACKs the data."""

    def __init__(self, window: int = 4096, ack_every: int = 2) -> None:
        self.window = window
        self.ack_every = ack_every
        self.iss = 40_000
        self.rcv_nxt = 0
        self.bytes_received = 0
        self.segments = 0
        self._unacked_segments = 0
        self._peer: tuple[int, int] | None = None
        self._tx_free_ns = 0

    def receive(self, frame: bytes, at_ns: int) -> None:
        ip = IpHeader.unpack(frame[14:34])
        if ip.proto != 6 or ip.dst != SINK_ADDR:
            return
        th = TcpHeader.unpack(frame[34 : 34 + TCP_HDR_LEN])
        if th.dport != SINK_PORT:
            return
        payload_len = ip.total_len - 20 - TCP_HDR_LEN
        cursor = max(at_ns + 60_000, self._tx_free_ns)
        if th.flags & TH_SYN:
            # Handshake: reply SYN|ACK.
            self._peer = (ip.src, th.sport)
            self.rcv_nxt = th.seq + 1
            reply = build_tcp_frame(
                src=SINK_ADDR,
                dst=ip.src,
                sport=SINK_PORT,
                dport=th.sport,
                seq=self.iss,
                ack=self.rcv_nxt,
                flags=TH_SYN | TH_ACK,
            )
            self.wire.send_to_host(reply, cursor)
            self._tx_free_ns = cursor + wire_time_ns(len(reply))
            return
        if payload_len > 0 and th.seq == self.rcv_nxt:
            self.rcv_nxt += payload_len
            self.bytes_received += payload_len
            self.segments += 1
            self._unacked_segments += 1
            if self._unacked_segments >= self.ack_every:
                self._unacked_segments = 0
                self._send_ack(cursor)
        elif payload_len > 0:
            # Out of order: immediate duplicate ACK.
            self._send_ack(cursor)

    def _send_ack(self, at_ns: int) -> None:
        if self._peer is None:
            return
        dst, dport = self._peer
        ack = build_tcp_frame(
            src=SINK_ADDR,
            dst=dst,
            sport=SINK_PORT,
            dport=dport,
            seq=self.iss + 1,
            ack=self.rcv_nxt,
            flags=TH_ACK,
        )
        at = max(at_ns, self._tx_free_ns)
        self.wire.send_to_host(ack, at)
        self._tx_free_ns = at + wire_time_ns(len(ack))


class NetworkSendResult(NamedTuple):
    """One transmit run."""

    bytes_sent: int
    connect_us: int
    elapsed_us: int
    sink_bytes: int

    @property
    def throughput_kbps(self) -> float:
        if self.elapsed_us == 0:
            return 0.0
        return self.bytes_sent * 8 / (self.elapsed_us / 1_000)


def network_send(
    kernel: Any, total_bytes: int = 32 * 1024, mss: int = 1024
) -> NetworkSendResult:
    """Connect to the sink and stream *total_bytes* out."""
    sink = SinkReceiver()
    kernel.netstack.wire.attach_remote(sink)
    payload = bytes(i & 0xFF for i in range(total_bytes))
    state: dict = {"connect_us": 0, "sent": 0}

    def sender_body(k, proc: Proc):
        fd = yield from syscall(k, proc, "socket", Socket.SOCK_STREAM)
        so = proc.file_for(fd).data
        t0 = k.now_us
        yield from soconnect(k, so, SINK_ADDR, SINK_PORT)
        state["connect_us"] = k.now_us - t0
        sent = yield from sosend_stream(k, so, payload, mss=mss)
        state["sent"] = sent
        yield from user_mode(k, 100)
        yield from syscall(k, proc, "exit", 0)

    start_us = kernel.now_us
    kernel.sched.spawn("ttcp-send", sender_body)
    kernel.sched.run(until_ns=kernel.machine.now_ns + 300_000_000_000)
    return NetworkSendResult(
        bytes_sent=state["sent"],
        connect_us=state["connect_us"],
        elapsed_us=kernel.now_us - start_us,
        sink_bytes=sink.bytes_received,
    )
