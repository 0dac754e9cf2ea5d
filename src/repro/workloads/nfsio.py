"""NFS RPC workloads (the paper's §Filesystems, NFS half).

"An interesting situation arises due to the fact that UDP checksums are
usually turned off with NFS; since the checksum routine contributed a
large proportion to the CPU overhead, NFS actually provides less overhead
and better throughput than an FTP style connection!  Given the tracing
capabilities of the Profiler, it was easy to get accurate measurements of
the network turn around time with NFS RPC calls."
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.kernel.fs.nfs import NfsMount, NfsServerHost, nfs_lookup, nfs_read
from repro.kernel.proc import Proc
from repro.kernel.sched import user_mode
from repro.kernel.syscalls import syscall


class NfsIoResult(NamedTuple):
    """One NFS streaming run."""

    bytes_read: int
    elapsed_us: int
    rpc_turnaround_us: list[int]
    busy_hint_us: int

    @property
    def throughput_kbps(self) -> float:
        if self.elapsed_us == 0:
            return 0.0
        return self.bytes_read * 8 / (self.elapsed_us / 1_000)

    @property
    def mean_turnaround_us(self) -> float:
        times = self.rpc_turnaround_us
        return sum(times) / len(times) if times else 0.0


def nfs_read_stream(
    kernel: Any,
    file_bytes: int = 64 * 1024,
    read_chunk: int = 8192,
    with_checksums: bool = False,
    readahead_streams: int = 4,
) -> NfsIoResult:
    """Mount, look up one exported file, stream it via READ RPCs.

    ``readahead_streams`` models the era's ``biod`` read-ahead daemons:
    several outstanding RPCs keep the wire and the server busy while the
    client CPU processes replies, so throughput is CPU-bound on the PC —
    the regime in which the paper's NFS-beats-FTP observation holds.
    Each stream gets its own mount/socket (its own local port), matching
    how biods each ran their own RPCs.
    """
    kernel.udpcksum = with_checksums
    server = NfsServerHost(udp_checksum=with_checksums)
    content = bytes(i & 0xFF for i in range(file_bytes))
    server.export("bigfile", content)
    kernel.netstack.wire.attach_remote(server)
    if readahead_streams < 1:
        raise ValueError("need at least one stream")
    mounts = [
        NfsMount(kernel, server, local_port=1000 + i)
        for i in range(readahead_streams)
    ]
    state = {"bytes": 0}

    def stream_body(stream_index: int):
        mount = mounts[stream_index]

        def body(k, proc: Proc):
            node = yield from nfs_lookup(k, mount, mount.root, "bigfile")
            offset = stream_index * read_chunk
            while offset < file_bytes:
                length = min(read_chunk, file_bytes - offset)
                data = yield from nfs_read(k, mount, node, offset, length)
                if not data:
                    break
                state["bytes"] += len(data)
                offset += readahead_streams * read_chunk
                yield from user_mode(k, 30)
            yield from syscall(k, proc, "exit", 0)

        return body

    start_us = kernel.now_us
    for i in range(readahead_streams):
        kernel.sched.spawn(f"biod{i}", stream_body(i))
    kernel.sched.run(until_ns=kernel.machine.now_ns + 300_000_000_000)
    turnarounds = [t for mount in mounts for t in mount.turnaround_us()]
    return NfsIoResult(
        bytes_read=state["bytes"],
        elapsed_us=kernel.now_us - start_us,
        rpc_turnaround_us=turnarounds,
        busy_hint_us=0,
    )
