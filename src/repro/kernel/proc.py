"""Process table, process states and file-descriptor plumbing.

The pieces of ``kern_proc``/``kern_descrip`` the case study touches:
process objects driven by the scheduler, and the ``falloc``/``fdalloc``
pair that appears in the paper's Figure 4 trace (``falloc (22 us, 83
total)`` calling ``fdalloc`` and ``malloc``).
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, Optional

from repro.kernel.kfunc import kfunc


class ProcState(enum.Enum):
    """Classic BSD process states (the subset the simulator needs)."""

    SIDL = "idl"
    SRUN = "run"
    SSLEEP = "sleep"
    SZOMB = "zomb"


#: Default per-process open-file limit (386BSD's NOFILE).
NOFILE = 64


class File:
    """An open-file table entry."""

    def __init__(self, kind: str, data: Any, offset: int = 0, refcount: int = 1) -> None:
        self.kind = kind
        self.data = data
        self.offset = offset
        self.refcount = refcount


class Proc:
    """One process.

    ``driver`` is the generator that embodies the process's kernel-side
    life; the scheduler sends wake values into it and receives ``Sleep``
    requests out of it.  ``vmspace`` is attached by the VM layer.
    """

    def __init__(self, pid: int, name: str, parent: Optional["Proc"] = None) -> None:
        self.pid = pid
        self.name = name
        self.parent = parent
        self.state = ProcState.SIDL
        self.wchan: Optional[object] = None
        self.wmesg = ""
        self.driver: Optional[Generator] = None
        self.wake_value: Any = None
        self.exit_status: Any = None
        self.files: list[Optional[File]] = [None] * NOFILE
        self.vmspace: Any = None
        self.priority = 50
        #: Ticks of CPU charged by hardclock while this process ran.
        self.cpu_ticks = 0
        #: This process's shadow kernel stack (swapped in at context switch).
        self.kstack: list[str] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Proc(pid={self.pid}, name={self.name!r}, state={self.state.value})"

    def lowest_free_fd(self) -> Optional[int]:
        """The lowest unused descriptor slot, or ``None`` when full."""
        for fd, file in enumerate(self.files):
            if file is None:
                return fd
        return None

    def file_for(self, fd: int) -> File:
        """Resolve *fd* or raise ``EBADF``-style KeyError."""
        if not (0 <= fd < len(self.files)) or self.files[fd] is None:
            raise KeyError(f"EBADF: process {self.pid} has no fd {fd}")
        file = self.files[fd]
        assert file is not None
        return file


@kfunc(module="kern/kern_descrip", base_us=4)
def fdalloc(k, proc: Proc) -> int:
    """Allocate the lowest free file-descriptor slot.

    Figure 4 shows ``fdalloc (13 us, 18 total)`` calling ``min``.
    """
    from repro.kernel.libkern import kmin

    fd = proc.lowest_free_fd()
    if fd is None:
        raise OSError("EMFILE: descriptor table full")
    # The real code clamps the search start with min(...).
    kmin(k, fd, len(proc.files))
    k.work(fd * 120)  # linear scan of the descriptor array
    return fd


@kfunc(module="kern/kern_descrip", base_us=9)
def falloc(k, proc: Proc, kind: str = "vnode", data: Any = None) -> tuple[int, File]:
    """Allocate a file structure and a descriptor for it.

    Figure 4: ``falloc (22 us, 83 total)`` — the subtree includes
    ``fdalloc`` and a ``malloc`` for the file structure.
    """
    from repro.kernel.malloc import malloc

    fd = fdalloc(k, proc)
    malloc(k, 64, "file")
    file = File(kind=kind, data=data)
    proc.files[fd] = file
    return fd, file


@kfunc(module="kern/kern_descrip", base_us=6)
def closef(k, proc: Proc, fd: int) -> None:
    """Release a descriptor and, on last reference, its file structure."""
    from repro.kernel.malloc import free

    file = proc.file_for(fd)
    proc.files[fd] = None
    file.refcount -= 1
    if file.refcount == 0:
        if hasattr(file.data, "on_last_close"):
            file.data.on_last_close(k)
        free(k, 64, "file")


class ProcTable:
    """The kernel's process table."""

    def __init__(self) -> None:
        self._procs: dict[int, Proc] = {}
        self._next_pid = 1

    def new(self, name: str, parent: Optional[Proc] = None) -> Proc:
        """Allocate a process slot."""
        proc = Proc(pid=self._next_pid, name=name, parent=parent)
        self._next_pid += 1
        self._procs[proc.pid] = proc
        return proc

    def remove(self, proc: Proc) -> None:
        """Reap a zombie out of the table."""
        self._procs.pop(proc.pid, None)

    def all(self) -> list[Proc]:
        """Every table entry, zombies included."""
        return list(self._procs.values())

    def __len__(self) -> int:
        return len(self._procs)


def make_body(
    factory: Callable[..., Generator], *args: Any, **kwargs: Any
) -> Callable[[Any, Proc], Generator]:
    """Adapt a ``(k, proc, *args)`` generator factory into a driver factory."""

    def build(k: Any, proc: Proc) -> Generator:
        return factory(k, proc, *args, **kwargs)

    return build
