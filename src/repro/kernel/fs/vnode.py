"""The vnode layer: the filesystem-independent interface.

The paper's macro-profiling idea hangs off this layer: "certain key
modules such as the system call handlers and VNODE interface routines are
profiled.  Virtually all kernel code paths traverse these higher level
routines" — so the VOP dispatchers are kernel functions of their own
module (``kern/vnode_if``), selectable independently of the filesystems
beneath them.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.kernel.kfunc import kfunc


class VnodeError(Exception):
    """Bad vnode usage."""


class Vnode:
    """A filesystem-independent file handle."""

    def __init__(self, fstype: str, node: Any, volume: Any) -> None:
        self.fstype = fstype  # "ufs" or "nfs"
        self.node = node  # Inode for ufs, NfsNode for nfs
        self.volume = volume

    @property
    def is_dir(self) -> bool:
        return bool(getattr(self.node, "is_dir", False))

    @property
    def size(self) -> int:
        return int(getattr(self.node, "size", 0))


@kfunc(module="kern/vnode_if", base_us=8.0, can_sleep=True)
def VOP_LOOKUP(k, dvp: Vnode, name: str):
    """Dispatch a directory lookup to the underlying filesystem."""
    if dvp.fstype == "ufs":
        from repro.kernel.fs.ffs import ffs_lookup

        inode = yield from ffs_lookup(k, dvp.volume, dvp.node, name)
        return Vnode(fstype="ufs", node=inode, volume=dvp.volume)
    if dvp.fstype == "nfs":
        from repro.kernel.fs.nfs import nfs_lookup

        node = yield from nfs_lookup(k, dvp.volume, dvp.node, name)
        return Vnode(fstype="nfs", node=node, volume=dvp.volume)
    raise VnodeError(f"unknown filesystem type {dvp.fstype!r}")


@kfunc(module="kern/vnode_if", base_us=8.0, can_sleep=True)
def VOP_READ(k, vp: Vnode, offset: int, length: int):
    """Dispatch a read."""
    if vp.fstype == "ufs":
        from repro.kernel.fs.ffs import ffs_read

        data = yield from ffs_read(k, vp.volume, vp.node, offset, length)
        return data
    if vp.fstype == "nfs":
        from repro.kernel.fs.nfs import nfs_read

        data = yield from nfs_read(k, vp.volume, vp.node, offset, length)
        return data
    raise VnodeError(f"unknown filesystem type {vp.fstype!r}")


@kfunc(module="kern/vnode_if", base_us=8.0, can_sleep=True)
def VOP_WRITE(k, vp: Vnode, offset: int, data: bytes, sync: bool = False):
    """Dispatch a write."""
    if vp.fstype == "ufs":
        from repro.kernel.fs.ffs import ffs_write

        n = yield from ffs_write(k, vp.volume, vp.node, offset, data, sync=sync)
        return n
    if vp.fstype == "nfs":
        from repro.kernel.fs.nfs import nfs_write

        n = yield from nfs_write(k, vp.volume, vp.node, offset, data)
        return n
    raise VnodeError(f"unknown filesystem type {vp.fstype!r}")


def root_vnode(k) -> Vnode:
    """The mounted root's vnode."""
    volume = k.filesystem.volume
    return Vnode(fstype="ufs", node=volume.root, volume=volume)


@kfunc(module="kern/vfs_lookup", base_us=30.0, can_sleep=True)
def namei(k, path: str, base: Optional[Vnode] = None):
    """Translate a pathname: copy it in, walk it component by component."""
    from repro.kernel.libkern import copyinstr

    copyinstr(k, path)
    vp = base if base is not None else root_vnode(k)
    for component in path.strip("/").split("/"):
        if not component:
            continue
        vp = yield from VOP_LOOKUP(k, vp, component)
    return vp
