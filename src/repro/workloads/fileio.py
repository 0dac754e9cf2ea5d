"""FFS file I/O workloads (the paper's §Filesystems).

Write storm: "Overall, the CPU was only busy for 28% of the time when
doing a large number of writes, so the disc seek times are still the
major influence in determining disc throughput." — a stream of full-block
asynchronous writes, with the disk interrupting once per sector.

Read back: "Each read of the disc varied from 18 milliseconds up to 26
milliseconds."  Reads alternate between two files allocated far apart on
the platter so every block read pays a real seek, as the fragmented
multi-file workloads of the case study did.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.kernel.drivers.wd import SECTORS_PER_BLOCK, SECTOR_BYTES
from repro.kernel.fs.buf import BLOCK_BYTES
from repro.kernel.proc import Proc
from repro.kernel.sched import user_mode
from repro.kernel.syscalls import syscall


class FileIoResult(NamedTuple):
    """Timing record for one file-I/O run."""

    bytes_moved: int
    elapsed_us: int
    per_op_us: list[int]

    @property
    def mean_op_us(self) -> float:
        return sum(self.per_op_us) / len(self.per_op_us) if self.per_op_us else 0.0


def file_write_storm(
    kernel: Any, nblocks: int = 24, payload_byte: int = 0x5A
) -> FileIoResult:
    """Write *nblocks* full blocks asynchronously, then sync."""
    per_op: list[int] = []
    state = {"bytes": 0}
    block = bytes([payload_byte]) * BLOCK_BYTES

    def writer_body(k, proc: Proc):
        from repro.kernel.fs.ffs import ffs_fsync
        from repro.kernel.sched import tsleep

        fd = yield from syscall(k, proc, "open", "/bigfile", True)
        for _ in range(nblocks):
            t0 = k.now_us
            n = yield from syscall(k, proc, "write", fd, block)
            per_op.append(k.now_us - t0)
            state["bytes"] += n
            yield from user_mode(k, 50)
        yield from ffs_fsync(k, k.filesystem.volume, None)
        # Wait for the asynchronous writes to drain: the measurement
        # window must cover the real disk activity, not just the cache
        # fills (this is where the paper's "CPU only 28% busy" lives).
        disk = k.filesystem.disk
        while disk.active is not None or disk.queue:
            yield from tsleep(k, ("drain", id(disk)), wmesg="drain", timo=2)
        yield from syscall(k, proc, "close", fd)
        yield from syscall(k, proc, "exit", 0)

    start_us = kernel.now_us
    kernel.sched.spawn("writer", writer_body)
    kernel.sched.run(until_ns=kernel.machine.now_ns + 300_000_000_000)
    return FileIoResult(
        bytes_moved=state["bytes"],
        elapsed_us=kernel.now_us - start_us,
        per_op_us=per_op,
    )


def seed_far_files(kernel: Any, nblocks: int = 12) -> tuple[str, str]:
    """Materialise two files far apart on the platter, bypassing the cache.

    Raw platter writes cost nothing (the bytes were 'already there' when
    the measurement starts); only the inodes and block maps are built.
    The wide physical separation makes every alternating read seek.
    """
    volume = kernel.filesystem.volume
    disk = kernel.filesystem.disk
    names = ("/near", "/far")
    placements = (200, 12_000)  # physical block numbers, far apart
    for name, base in zip(names, placements):
        inode = volume.alloc_ino()
        volume.root.entries[name.strip("/")] = inode.ino
        for lbn in range(nblocks):
            physical = base + lbn
            inode.blocks[lbn] = physical
            content = (name.strip("/").encode() + bytes([lbn])) * 100
            block = content[:BLOCK_BYTES].ljust(BLOCK_BYTES, b"\x00")
            for s in range(SECTORS_PER_BLOCK):
                disk.write_sector(
                    physical * SECTORS_PER_BLOCK + s,
                    block[s * SECTOR_BYTES : (s + 1) * SECTOR_BYTES],
                )
        inode.size = nblocks * BLOCK_BYTES
    return names


def file_read_back(kernel: Any, nblocks: int = 12) -> FileIoResult:
    """Alternate block reads between the two far-apart files."""
    seed_far_files(kernel, nblocks=nblocks)
    per_op: list[int] = []
    state = {"bytes": 0}

    def reader_body(k, proc: Proc):
        near = yield from syscall(k, proc, "open", "/near")
        far = yield from syscall(k, proc, "open", "/far")
        for _ in range(nblocks):
            for fd in (near, far):
                t0 = k.now_us
                data = yield from syscall(k, proc, "read", fd, BLOCK_BYTES)
                per_op.append(k.now_us - t0)
                state["bytes"] += len(data)
                yield from user_mode(k, 80)
        yield from syscall(k, proc, "exit", 0)

    start_us = kernel.now_us
    kernel.sched.spawn("reader", reader_body)
    kernel.sched.run(until_ns=kernel.machine.now_ns + 300_000_000_000)
    return FileIoResult(
        bytes_moved=state["bytes"],
        elapsed_us=kernel.now_us - start_us,
        per_op_us=per_op,
    )
