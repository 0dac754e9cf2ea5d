"""Pipes: the interprocess-communication facility the paper profiles.

"...or profiling several user processes at the same time to closely
monitor and analyse interactions occurring via the interprocess
communications facilities."  A classic 4.3BSD-style pipe: a bounded
kernel buffer, writers sleeping when it fills, readers sleeping when it
drains, EOF when the last writer closes — every interaction visible in a
capture as tsleep/wakeup pairs between the two processes.
"""

from __future__ import annotations

from typing import Any

from repro.kernel.kfunc import kfunc
from repro.kernel.proc import Proc, falloc
from repro.kernel.sched import tsleep, wakeup

#: Pipe buffer capacity (the era's PIPSIZ).
PIPSIZ = 4096


class PipeError(Exception):
    """EPIPE and friends."""


class Pipe:
    """The shared kernel object behind a pipe's two descriptors."""

    def __init__(self) -> None:
        self.buffer = bytearray()
        self.readers = 1
        self.writers = 1
        #: Total bytes ever moved (statistics).
        self.bytes_moved = 0

    @property
    def space(self) -> int:
        return PIPSIZ - len(self.buffer)

    def read_chan(self) -> tuple:
        return ("piperd", id(self))

    def write_chan(self) -> tuple:
        return ("pipewr", id(self))


class PipeEnd:
    """One descriptor's view of the pipe."""

    def __init__(self, pipe: Pipe, writable: bool) -> None:
        self.pipe = pipe
        self.writable = writable

    def on_last_close(self, k: Any) -> None:
        """Drop this end; wake the peer so it sees EOF/EPIPE."""
        if self.writable:
            self.pipe.writers -= 1
            if self.pipe.writers == 0:
                wakeup(k, self.pipe.read_chan())
        else:
            self.pipe.readers -= 1
            if self.pipe.readers == 0:
                wakeup(k, self.pipe.write_chan())


@kfunc(module="kern/sys_pipe", base_us=60.0, can_sleep=True)
def sys_pipe(k, proc: Proc):
    """pipe(2): returns (read_fd, write_fd)."""
    from repro.kernel.malloc import malloc

    malloc(k, 128, "pipe")
    pipe = Pipe()
    rfd, _ = falloc(k, proc, kind="pipe", data=PipeEnd(pipe, writable=False))
    wfd, _ = falloc(k, proc, kind="pipe", data=PipeEnd(pipe, writable=True))
    k.stat("pipes_created", 1)
    return rfd, wfd
    yield  # pragma: no cover - keeps this a generator


@kfunc(module="kern/sys_pipe", base_us=22.0, can_sleep=True)
def pipe_write(k, end: PipeEnd, data: bytes):
    """Write into the pipe, sleeping while it is full."""
    from repro.kernel.libkern import copyin

    if not end.writable:
        raise PipeError("EBADF: read end is not writable")
    pipe = end.pipe
    written = 0
    while written < len(data):
        if pipe.readers == 0:
            raise PipeError("EPIPE: no readers left")
        if pipe.space == 0:
            yield from tsleep(k, pipe.write_chan(), wmesg="pipewr")
            continue
        chunk = data[written : written + pipe.space]
        copyin(k, len(chunk))
        pipe.buffer.extend(chunk)
        pipe.bytes_moved += len(chunk)
        written += len(chunk)
        wakeup(k, pipe.read_chan())
    return written


@kfunc(module="kern/sys_pipe", base_us=20.0, can_sleep=True)
def pipe_read(k, end: PipeEnd, length: int):
    """Read from the pipe; blocks while empty, b"" at EOF."""
    from repro.kernel.libkern import copyout

    if end.writable:
        raise PipeError("EBADF: write end is not readable")
    if length <= 0:
        raise PipeError(f"read of {length} bytes")
    pipe = end.pipe
    while not pipe.buffer:
        if pipe.writers == 0:
            return b""  # EOF
        yield from tsleep(k, pipe.read_chan(), wmesg="piperd")
    take = min(length, len(pipe.buffer))
    data = bytes(pipe.buffer[:take])
    del pipe.buffer[:take]
    copyout(k, take, data)
    wakeup(k, pipe.write_chan())
    return data
