"""An NFS client over UDP, and the remote server it talks to.

The paper's observation: with UDP checksums off (the era's default for
NFS) and ``in_cksum`` being ~30% of the receive path's CPU, "NFS actually
provides less overhead and better throughput than an FTP style
connection!"  It also notes the Profiler made RPC turnaround directly
measurable — ``NfsMount.rpc_times`` records exactly that.

The RPC wire format is a compact stand-in (xid, procedure, file handle,
offset/length, raw data); it travels in real UDP/IP frames either way, so
the checksum switch genuinely moves CPU cost.
"""

from __future__ import annotations

import struct
from typing import Any, Optional

from repro.kernel.kfunc import kfunc
from repro.kernel.net.headers import build_udp_frame
from repro.kernel.net.if_we import RemoteHost, wire_time_ns

NFS_PORT = 2049

PROC_LOOKUP = 4
PROC_READ = 6
PROC_WRITE = 8

STATUS_OK = 0
STATUS_ERR = 70  # NFSERR_STALE-ish


def pack_request(xid: int, proc: int, fh: int, offset: int, data: bytes) -> bytes:
    """Encode one RPC request."""
    return struct.pack("!IIIII", xid, proc, fh, offset, len(data)) + data


def unpack_request(blob: bytes) -> tuple[int, int, int, int, bytes]:
    xid, proc, fh, offset, length = struct.unpack("!IIIII", blob[:20])
    return xid, proc, fh, offset, blob[20 : 20 + length]


def pack_reply(xid: int, status: int, value: int, data: bytes) -> bytes:
    """Encode one RPC reply."""
    return struct.pack("!IIII", xid, status, value, len(data)) + data


def unpack_reply(blob: bytes) -> tuple[int, int, int, bytes]:
    xid, status, value, length = struct.unpack("!IIII", blob[:16])
    return xid, status, value, blob[16 : 16 + length]


class ServerFile:
    """A file on the remote NFS server."""

    def __init__(
        self,
        fh: int,
        data: bytes = b"",
        is_dir: bool = False,
        entries: Optional[dict[str, int]] = None,
    ) -> None:
        self.fh = fh
        self.data = data
        self.is_dir = is_dir
        self.entries: dict[str, int] = {} if entries is None else entries


class NfsServerHost(RemoteHost):
    """The remote NFS server: parses real frames, replies after a delay."""

    ROOT_FH = 1

    def __init__(
        self,
        addr: int = 0x0A000063,  # 10.0.0.99
        service_ns: int = 180_000,
        service_ns_per_kb: int = 45_000,
        udp_checksum: bool = False,
    ) -> None:
        """A SPARC-class server: fast enough that the receiving PC's CPU,
        not the server, is the bottleneck (the paper's premise throughout).

        ``udp_checksum`` controls whether replies carry UDP checksums —
        off by default, "as UDP checksums are usually turned off with
        NFS".
        """
        self.addr = addr
        self.service_ns = service_ns
        self.service_ns_per_kb = service_ns_per_kb
        self.udp_checksum = udp_checksum
        self.files: dict[int, ServerFile] = {
            self.ROOT_FH: ServerFile(fh=self.ROOT_FH, is_dir=True)
        }
        self._next_fh = 2
        self.requests_served = 0

    def export(self, name: str, data: bytes) -> int:
        """Create a file in the export root; returns its handle."""
        fh = self._next_fh
        self._next_fh += 1
        self.files[fh] = ServerFile(fh=fh, data=data)
        self.files[self.ROOT_FH].entries[name] = fh
        return fh

    def receive(self, frame: bytes, at_ns: int) -> None:
        """Parse a request frame off the wire and schedule the reply."""
        from repro.kernel.net.headers import IpHeader, UdpHeader

        ip = IpHeader.unpack(frame[14:34])
        if ip.dst != self.addr or ip.proto != 17:
            return
        uh = UdpHeader.unpack(frame[34:42])
        if uh.dport != NFS_PORT:
            return
        payload = frame[42 : 34 + uh.length]
        xid, proc, fh, offset, data = unpack_request(payload)
        reply = self._serve(xid, proc, fh, offset, data)
        delay = self.service_ns + (len(reply) // 1024) * self.service_ns_per_kb
        reply_frame = build_udp_frame(
            src=self.addr,
            dst=ip.src,
            sport=NFS_PORT,
            dport=uh.sport,
            payload=reply,
            with_checksum=self.udp_checksum,
        )
        self.requests_served += 1
        self.wire.send_to_host(
            reply_frame, at_ns + delay + wire_time_ns(len(reply_frame))
        )

    def _serve(self, xid: int, proc: int, fh: int, offset: int, data: bytes) -> bytes:
        file = self.files.get(fh)
        if file is None:
            return pack_reply(xid, STATUS_ERR, 0, b"")
        if proc == PROC_LOOKUP:
            name = data.decode("ascii", errors="replace")
            child_fh = file.entries.get(name)
            if child_fh is None:
                return pack_reply(xid, STATUS_ERR, 0, b"")
            child = self.files[child_fh]
            return pack_reply(xid, STATUS_OK, child_fh, len(child.data).to_bytes(8, "big"))
        if proc == PROC_READ:
            length = int.from_bytes(data[:4], "big") if data else 1024
            chunk = file.data[offset : offset + length]
            return pack_reply(xid, STATUS_OK, fh, chunk)
        if proc == PROC_WRITE:
            content = bytearray(file.data)
            if len(content) < offset + len(data):
                content.extend(bytes(offset + len(data) - len(content)))
            content[offset : offset + len(data)] = data
            file.data = bytes(content)
            return pack_reply(xid, STATUS_OK, len(data), b"")
        return pack_reply(xid, STATUS_ERR, 0, b"")


class NfsNode:
    """A client-side NFS file."""

    def __init__(self, fh: int, size: int = 0, is_dir: bool = False) -> None:
        self.fh = fh
        self.size = size
        self.is_dir = is_dir


class NfsMount:
    """Client state for one mount: socket, server address, RPC log."""

    def __init__(self, kernel: Any, server: NfsServerHost, local_port: int = 1023) -> None:
        from repro.kernel.net.socket import Socket, sobind, socreate

        self.k = kernel
        self.server = server
        self.so = socreate(kernel, Socket.SOCK_DGRAM)
        sobind(kernel, self.so, local_port)
        self.root = NfsNode(fh=NfsServerHost.ROOT_FH, is_dir=True)
        self.xid = 1
        #: (proc, send_us, reply_us) — the paper's RPC turnaround data.
        self.rpc_times: list[tuple[int, int, int]] = []

    def turnaround_us(self) -> list[int]:
        """Measured request->reply turnaround times."""
        return [reply - send for _, send, reply in self.rpc_times]


@kfunc(module="nfs/nfs_socket", base_us=80.0, can_sleep=True)
def nfs_request(k, nmp: NfsMount, proc: int, fh: int, offset: int, data: bytes):
    """One RPC: build, send, sleep for the reply, decode.

    Returns ``(value, data)`` from the reply.
    """
    from repro.kernel.net.socket import soreceive, sosend_dgram

    xid = nmp.xid
    nmp.xid += 1
    request = pack_request(xid, proc, fh, offset, data)
    sent_us = k.now_us
    yield from sosend_dgram(
        k, nmp.so, request, dst=nmp.server.addr, dport=NFS_PORT
    )
    reply = yield from soreceive(k, nmp.so, 9000)
    got_us = k.now_us
    rxid, status, value, payload = unpack_reply(reply)
    if rxid != xid:
        k.stat("nfs_xid_mismatch", 1)
        raise OSError(f"NFS reply xid {rxid} does not match request {xid}")
    nmp.rpc_times.append((proc, sent_us, got_us))
    if status != STATUS_OK:
        raise OSError(f"NFS error {status} for proc {proc}")
    return value, payload


@kfunc(module="nfs/nfs_vnops", base_us=45.0, can_sleep=True)
def nfs_lookup(k, nmp: NfsMount, dnode: NfsNode, name: str):
    """LOOKUP: resolve *name* under *dnode*."""
    value, payload = yield from nfs_request(
        k, nmp, PROC_LOOKUP, dnode.fh, 0, name.encode("ascii")
    )
    return NfsNode(fh=value, size=int.from_bytes(payload, "big"))


@kfunc(module="nfs/nfs_vnops", base_us=55.0, can_sleep=True)
def nfs_read(k, nmp: NfsMount, node: NfsNode, offset: int, length: int):
    """READ: fetch up to *length* bytes (one RPC per kilobyte chunk)."""
    collected = bytearray()
    while length > 0:
        chunk = min(length, 1024)
        _, payload = yield from nfs_request(
            k, nmp, PROC_READ, node.fh, offset, chunk.to_bytes(4, "big")
        )
        collected += payload
        if len(payload) < chunk:
            break
        offset += chunk
        length -= chunk
    return bytes(collected)


@kfunc(module="nfs/nfs_vnops", base_us=60.0, can_sleep=True)
def nfs_write(k, nmp: NfsMount, node: NfsNode, offset: int, data: bytes):
    """WRITE: push *data* in kilobyte chunks."""
    written = 0
    while written < len(data):
        chunk = data[written : written + 1024]
        value, _ = yield from nfs_request(
            k, nmp, PROC_WRITE, node.fh, offset + written, chunk
        )
        written += len(chunk)
    node.size = max(node.size, offset + written)
    return written
