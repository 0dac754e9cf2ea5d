"""A small Fast File System: superblock, inodes, directories, real data.

Scaled down but genuine: file bytes live in 8 KB blocks on the simulated
IDE platter, reads come back through the buffer cache, directory lookups
scan real directory blocks, and the block allocator hands out blocks from
a bitmap.  (Cylinder groups and fragments are omitted: the paper's FFS
measurements are entirely seek/interrupt-bound, and those effects come
from the disk model.)
"""

from __future__ import annotations

from typing import Any, Optional

from repro.kernel.fs.buf import BLOCK_BYTES, bdwrite, bread, bwrite, getblk
from repro.kernel.kfunc import kfunc

ROOT_INO = 2


class FfsError(Exception):
    """ENOENT/ENOSPC and friends."""


class Inode:
    """An in-core inode."""

    def __init__(
        self,
        ino: int,
        is_dir: bool = False,
        size: int = 0,
        blocks: Optional[dict[int, int]] = None,
        entries: Optional[dict[str, int]] = None,
    ) -> None:
        self.ino = ino
        self.is_dir = is_dir
        self.size = size
        #: Logical block -> physical block number.
        self.blocks: dict[int, int] = {} if blocks is None else blocks
        #: Directory entries (directories only).
        self.entries: dict[str, int] = {} if entries is None else entries


class FfsVolume:
    """One mounted filesystem."""

    TOTAL_BLOCKS = 16_000  # ~128 MB at 8 KB/block

    def __init__(self, kernel: Any, disk: Any, cache: Any) -> None:
        self.k = kernel
        self.disk = disk
        self.cache = cache
        self.inodes: dict[int, Inode] = {}
        self._next_ino = ROOT_INO
        self._next_block = 32  # blocks below this hold metadata
        self.free_blocks = self.TOTAL_BLOCKS - 32

    def mkfs(self) -> None:
        """Initialise the root directory."""
        root = Inode(ino=ROOT_INO, is_dir=True)
        self.inodes[ROOT_INO] = root
        self._next_ino = ROOT_INO + 1

    def iget(self, ino: int) -> Inode:
        try:
            return self.inodes[ino]
        except KeyError:
            raise FfsError(f"stale inode number {ino}") from None

    @property
    def root(self) -> Inode:
        return self.iget(ROOT_INO)

    def alloc_ino(self) -> Inode:
        inode = Inode(ino=self._next_ino)
        self.inodes[inode.ino] = inode
        self._next_ino += 1
        return inode

    def alloc_block(self) -> int:
        if self.free_blocks <= 0:
            raise FfsError("ENOSPC: filesystem full")
        block = self._next_block
        self._next_block += 1
        self.free_blocks -= 1
        return block


@kfunc(module="ufs/ffs_alloc", base_us=35.0)
def ffs_balloc(k, vol: FfsVolume, ip: Inode, lbn: int) -> int:
    """Allocate (or find) the physical block behind logical block *lbn*."""
    existing = ip.blocks.get(lbn)
    if existing is not None:
        return existing
    k.work(6_000)  # cylinder-group bitmap scan
    block = vol.alloc_block()
    ip.blocks[lbn] = block
    return block


@kfunc(module="ufs/ufs_lookup", base_us=40.0, can_sleep=True)
def ffs_lookup(k, vol: FfsVolume, dvp: Inode, name: str):
    """Look *name* up in directory *dvp*; returns the inode.

    Reads the directory block through the cache and scans the entries
    linearly, charging per entry compared.
    """
    if not dvp.is_dir:
        raise FfsError(f"ENOTDIR: inode {dvp.ino}")
    if dvp.blocks:
        yield from bread(k, vol.disk, next(iter(dvp.blocks.values())))
    for position, entry_name in enumerate(dvp.entries):
        k.work(1_400)  # one dirent compare
        if entry_name == name:
            return vol.iget(dvp.entries[entry_name])
    raise FfsError(f"ENOENT: {name!r}")


@kfunc(module="ufs/ufs_vnops", base_us=55.0, can_sleep=True)
def ffs_create(k, vol: FfsVolume, dvp: Inode, name: str, is_dir: bool = False):
    """Create a file (or directory) in *dvp*."""
    from repro.kernel.malloc import malloc

    if name in dvp.entries:
        raise FfsError(f"EEXIST: {name!r}")
    malloc(k, 128, "inode")
    inode = vol.alloc_ino()
    inode.is_dir = is_dir
    dvp.entries[name] = inode.ino
    # The directory block gets a delayed write.
    if not dvp.blocks:
        ffs_balloc(k, vol, dvp, 0)
    buf = yield from getblk(k, vol.disk, dvp.blocks[0])
    bdwrite(k, buf)
    return inode


@kfunc(module="ufs/ffs_vnops", base_us=48.0, can_sleep=True)
def ffs_read(k, vol: FfsVolume, ip: Inode, offset: int, length: int):
    """Read real bytes: cache (and disk) in, ``uiomove`` out.

    Returns the bytes read (short at end of file).
    """
    from repro.kernel.libkern import copyout

    if offset < 0 or length < 0:
        raise ValueError(f"bad read range off={offset} len={length}")
    length = min(length, max(0, ip.size - offset))
    collected = bytearray()
    while length > 0:
        lbn = offset // BLOCK_BYTES
        block_off = offset % BLOCK_BYTES
        physical = ip.blocks.get(lbn)
        if physical is None:
            # A hole reads as zeros.
            take = min(length, BLOCK_BYTES - block_off)
            collected += bytes(take)
        else:
            buf = yield from bread(k, vol.disk, physical)
            take = min(length, BLOCK_BYTES - block_off)
            copyout(k, take)  # uiomove to the user buffer
            collected += bytes(buf.data[block_off : block_off + take])
        offset += take
        length -= take
    k.stat("ffs_read_bytes", len(collected))
    return bytes(collected)


@kfunc(module="ufs/ffs_vnops", base_us=60.0, can_sleep=True)
def ffs_write(k, vol: FfsVolume, ip: Inode, offset: int, data: bytes, sync: bool = False):
    """Write real bytes through the cache; async by default.

    Full-block writes go out with ``bawrite`` (the paper's heavy-write
    test pattern: interrupts arriving back to back while the CPU is only
    ~28% busy); partial blocks are delayed writes.
    """
    from repro.kernel.fs.buf import bawrite
    from repro.kernel.libkern import bcopy, copyin

    if offset < 0:
        raise ValueError(f"negative write offset {offset}")
    copyin(k, len(data))
    remaining = data
    while remaining:
        lbn = offset // BLOCK_BYTES
        block_off = offset % BLOCK_BYTES
        take = min(len(remaining), BLOCK_BYTES - block_off)
        physical = ffs_balloc(k, vol, ip, lbn)
        if take < BLOCK_BYTES and offset < ip.size:
            buf = yield from bread(k, vol.disk, physical)  # read-modify-write
        else:
            buf = yield from getblk(k, vol.disk, physical)
        bcopy(k, take)  # user data into the buffer
        buf.data[block_off : block_off + take] = remaining[:take]
        buf.mark_valid()
        if take == BLOCK_BYTES or block_off + take == BLOCK_BYTES:
            if sync:
                yield from bwrite(k, vol.disk, buf)
            else:
                bawrite(k, vol.disk, buf)
        else:
            bdwrite(k, buf)
        offset += take
        remaining = remaining[take:]
        ip.size = max(ip.size, offset)
    k.stat("ffs_write_bytes", len(data))
    return len(data)


@kfunc(module="ufs/ffs_vnops", base_us=30.0, can_sleep=True)
def ffs_fsync(k, vol: FfsVolume, ip: Inode):
    """Flush the volume's delayed writes (whole-cache sync, kept simple)."""
    for buf in vol.cache.dirty_buffers():
        yield from bwrite(k, vol.disk, buf)
    return None
