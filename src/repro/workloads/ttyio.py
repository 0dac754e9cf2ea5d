"""Character-input workload: answering the paper's tty question.

"What happens if you wish to measure the time taken to process character
input interrupts?" — with clock-sampled profiling, nothing good; with the
Profiler, you arm the board and type.  A simulated terminal types lines
at a configurable rate while a reader process sits in canonical reads.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.kernel.drivers.tty import ComPort, Tty, ttread
from repro.kernel.proc import Proc
from repro.kernel.sched import user_mode
from repro.kernel.syscalls import syscall


class TtyIoResult(NamedTuple):
    """One typing session."""

    lines_read: list[bytes]
    chars_typed: int
    elapsed_us: int
    overruns: int

    @property
    def lines(self) -> int:
        return len(self.lines_read)


def attach_tty(kernel: Any) -> tuple[ComPort, Tty]:
    """Attach the serial port (idempotent per kernel)."""
    existing = kernel.devices.get("com0")
    if existing is not None:
        return existing, existing.tty
    port = ComPort()
    kernel.machine.attach(port)
    port.kernel = kernel
    kernel.devices["com0"] = port
    tty = Tty(port)
    return port, tty


def type_and_read(
    kernel: Any,
    text: str = "ps -aux\nkill -9 42\nprofile me\n",
    char_gap_ns: int = 9_000_000,
) -> TtyIoResult:
    """Type *text* into the port while a reader consumes lines."""
    port, tty = attach_tty(kernel)
    expected_lines = text.count("\n") + text.count("\r")
    state: dict = {"lines": []}

    def reader_body(k, proc: Proc):
        while len(state["lines"]) < expected_lines:
            line = yield from ttread(k, tty, 128)
            state["lines"].append(line)
            yield from user_mode(k, 120)  # the shell "runs the command"
        yield from syscall(k, proc, "exit", 0)

    start_us = kernel.now_us
    kernel.sched.spawn("sh", reader_body)
    port.type_text(text, start_ns=kernel.machine.now_ns + 1_000_000, char_gap_ns=char_gap_ns)
    kernel.sched.run(until_ns=kernel.machine.now_ns + 300_000_000_000)
    return TtyIoResult(
        lines_read=list(state["lines"]),
        chars_typed=len(text),
        elapsed_us=kernel.now_us - start_us,
        overruns=port.rx_overruns,
    )
