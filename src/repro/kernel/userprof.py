"""User-level profiling (the paper's §User Code Profiling).

"The hardware profiling solution can be readily adopted to user level
profiling with similar results.  A driver stub may be configured in the
kernel that reserves the Profiler's physical memory address space; a
modified profiling crt.o initialises the process for profiling by opening
the driver and calling mmap to memory map the Profiler's address space
into a fixed location within the process address space.

There is no reason why a mixture of kernel and user level profiling
cannot take place concurrently, or profiling several user processes at
the same time."

The pieces:

* :func:`profdev_open` — the driver stub: a character device that owns
  the EPROM window's physical pages;
* :func:`prof_mmap` — maps the window into the calling process at a fixed
  user address (a real ``vm_map_find`` entry in the process's vmspace);
* :class:`UserImage` — the "modified profiling crt.o": allocates tags for
  the user program's functions out of the same name-file machinery the
  kernel compiler uses (a separate file, concatenated for analysis);
* :func:`uenter`/:func:`uleave`/:func:`umark` — the user-side trigger
  reads through the mapped window.  They run in user mode: no kernel
  function frames, just the one-instruction ``movb`` against the mapped
  Profiler address, so user frames interleave with kernel frames in the
  capture exactly as the hardware would record them.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.instrument.namefile import NameTable
from repro.instrument.tags import TagEntry
from repro.kernel.kfunc import kfunc
from repro.kernel.proc import Proc, falloc
from repro.kernel.vm.pmap import PROT_READ, pmap_enter
from repro.kernel.vm.vm_map import vm_map_find
from repro.kernel.vm.vm_page import VmObject, vm_page_alloc

PAGE_SIZE = 4096

#: The fixed user address the profiling crt.o maps the window at.
PROF_USER_VA = 0xEFFF_0000


class UserProfError(Exception):
    """Profiling used before the crt.o initialisation ran."""


@kfunc(module="isa/prof_stub", base_us=45.0)
def profdev_open(k, proc: Proc) -> int:
    """open("/dev/profiler"): the driver stub reserving the window."""
    if k.profile_base_phys is None:
        raise UserProfError("no Profiler EPROM window is mapped")
    fd, _ = falloc(k, proc, kind="profdev", data=k.profile_base_phys)
    k.stat("profdev_opens", 1)
    return fd


@kfunc(module="isa/prof_stub", base_us=160.0)
def prof_mmap(k, proc: Proc, fd: int) -> int:
    """mmap the Profiler window into *proc* at the fixed location.

    Builds a real map entry over device pages (16 of them for the 64 KB
    window) so the user-side trigger address arithmetic is genuine.
    """
    file = proc.file_for(fd)
    if file.kind != "profdev":
        raise UserProfError(f"fd {fd} is not the profiler device")
    if proc.vmspace is None:
        raise UserProfError("process has no address space (exec first)")
    window_pages = 16
    device_obj = VmObject(kind="device", size_pages=window_pages)
    vm_map_find(
        k,
        proc.vmspace,
        PROF_USER_VA,
        window_pages,
        obj=device_obj,
        prot=PROT_READ,
    )
    # Device mappings are entered eagerly (they cannot fault from a pager).
    for i in range(window_pages):
        page = vm_page_alloc(k, device_obj, i * PAGE_SIZE)
        pmap_enter(
            k, proc.vmspace.pmap, PROF_USER_VA + i * PAGE_SIZE, page.frame, PROT_READ
        )
    proc.prof_window_va = PROF_USER_VA  # type: ignore[attr-defined]
    k.stat("prof_mmaps", 1)
    return PROF_USER_VA


class UserImage:
    """A user program compiled with the profiling compiler.

    Owns the program's slice of the tag space; the name table can be the
    kernel build's (one concatenated file) or a separate one.
    """

    def __init__(
        self,
        name: str,
        names: NameTable,
        functions: Optional[dict[str, TagEntry]] = None,
        inline_points: Optional[dict[str, TagEntry]] = None,
    ) -> None:
        self.name = name
        self.names = names
        self.functions: dict[str, TagEntry] = {} if functions is None else functions
        self.inline_points: dict[str, TagEntry] = (
            {} if inline_points is None else inline_points
        )

    @classmethod
    def compile(
        cls,
        name: str,
        names: NameTable,
        functions: Sequence[str],
        inline_points: Sequence[str] = (),
    ) -> "UserImage":
        """Allocate tags for the user program's functions."""
        image = cls(name=name, names=names)
        for fn in functions:
            image.functions[fn] = names.allocate(fn)
        for point in inline_points:
            image.inline_points[point] = names.allocate(point, inline=True)
        return image


def _user_trigger(k, proc: Proc, tag_value: int) -> None:
    """One user-mode trigger: a read of the mapped window."""
    va = getattr(proc, "prof_window_va", None)
    if va is None:
        raise UserProfError(
            f"process {proc.pid} has not mapped the Profiler (run prof_mmap)"
        )
    if proc.vmspace.pmap.raw_get(va + tag_value) is None:
        raise UserProfError("profiler window mapping is missing pages")
    # The user-mode movb: same cost, same strobe, no kernel frames.
    if k.fastpath_enabled:
        clock = k.machine.clock
        trigger_ns = k.cost.trigger_ns
        due = k.machine.interrupts.next_due_ns(k.ipl)
        if due is None or due > clock.now_ns + trigger_ns:
            clock.tick(trigger_ns)
            k._strobe(tag_value)
            k.stats["user_triggers"] += 1
            return
    k.work(k.cost.trigger_ns)
    k.bus.read8(k.profile_base_phys + tag_value)
    k.stat("user_triggers", 1)


def uenter(k, proc: Proc, image: UserImage, fn: str) -> None:
    """User-function prologue trigger."""
    entry = image.functions.get(fn)
    if entry is None:
        raise UserProfError(f"{fn!r} was not compiled with profiling")
    _user_trigger(k, proc, entry.entry_value)


def uleave(k, proc: Proc, image: UserImage, fn: str) -> None:
    """User-function epilogue trigger."""
    entry = image.functions.get(fn)
    if entry is None:
        raise UserProfError(f"{fn!r} was not compiled with profiling")
    _user_trigger(k, proc, entry.exit_value)


def umark(k, proc: Proc, image: UserImage, point: str) -> None:
    """A hand-placed inline (``=``) trigger in user code."""
    entry = image.inline_points.get(point)
    if entry is None:
        raise UserProfError(f"{point!r} is not an inline point")
    _user_trigger(k, proc, entry.entry_value)


def user_call(k, proc: Proc, image: UserImage, fn: str, body_us: float):
    """Run one profiled user function of *body_us* microseconds.

    A generator (usable from process bodies): the function's work happens
    in user mode, interruptible, bracketed by the entry/exit triggers.
    """
    from repro.kernel.sched import user_mode

    uenter(k, proc, image, fn)
    yield from user_mode(k, body_us)
    uleave(k, proc, image, fn)
