"""Filesystems: buffer cache, vnodes, a small FFS, and an NFS client.

The paper profiles the BSD Fast File System over an IDE disk (seek-bound,
CPU ~28% busy during heavy writes, >=6% of that in ``spl*``) and NFS over
UDP (where disabled UDP checksums make NFS *cheaper* than an FTP-style
TCP stream on this CPU-bound machine).
"""

from __future__ import annotations

from typing import Any


class FsState:
    """Kernel-wide filesystem state: cache, volume, disk."""

    def __init__(self, kernel: Any, cache: Any, volume: Any, disk: Any) -> None:
        self.k = kernel
        self.cache = cache
        self.volume = volume
        self.disk = disk
        #: NFS mounts by name.
        self.nfs_mounts: dict[str, Any] = {}


def fsboot(kernel: Any) -> FsState:
    """Attach the disk, build the buffer cache, mkfs the root volume."""
    from repro.kernel.drivers.wd import WdDisk
    from repro.kernel.fs.buf import BufferCache
    from repro.kernel.fs.ffs import FfsVolume

    disk = WdDisk()
    kernel.machine.attach(disk)
    disk.kernel = kernel
    cache = BufferCache(kernel)
    volume = FfsVolume(kernel, disk=disk, cache=cache)
    volume.mkfs()
    return FsState(kernel, cache=cache, volume=volume, disk=disk)
