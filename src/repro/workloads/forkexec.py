"""The fork/exec test (the paper's Figure 5 and §Fork/exec Profiling).

"A common operation of UNIX is to fork a process and create a child copy
of the process, which then execs a new process image. ... it takes some
24 milliseconds to perform a vfork operation, and it takes about 28
milliseconds to perform an execve system call. ... Note that these times
do not include any disk activity, as the process image was already
cached."

The workload warms the image into the buffer cache once, then loops
fork -> (child: exec, touch some pages, exit) -> wait, timing each leg.
An optional status print per iteration reproduces Figure 5's console
``bcopyb`` pollution.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.kernel.proc import Proc
from repro.kernel.sched import user_mode
from repro.kernel.syscalls import syscall
from repro.kernel.vm.vm_fault import vm_fault
from repro.kernel.vm.vm_glue import ExecImage

PAGE_SIZE = 4096


class ForkExecResult(NamedTuple):
    """Per-leg latencies, microseconds."""

    fork_us: list[float]
    exec_us: list[float]
    wait_us: list[float]

    @property
    def mean_fork_us(self) -> float:
        return sum(self.fork_us) / len(self.fork_us) if self.fork_us else 0.0

    @property
    def mean_exec_us(self) -> float:
        return sum(self.exec_us) / len(self.exec_us) if self.exec_us else 0.0

    @property
    def mean_pair_us(self) -> float:
        """The combined fork+exec figure (the paper's ~52 ms)."""
        return self.mean_fork_us + self.mean_exec_us


def fork_exec_storm(
    kernel: Any,
    iterations: int = 3,
    image: ExecImage | None = None,
    touch_pages: int = 12,
    print_status: bool = False,
) -> ForkExecResult:
    """Run the fork/exec loop; returns per-leg timings."""
    img = image if image is not None else ExecImage(name="sh")
    kernel.exec_images = {img.name: img}
    result = ForkExecResult(fork_us=[], exec_us=[], wait_us=[])

    def parent_body(k, proc: Proc):
        # Create and warm the image file (the "already cached" premise).
        fd = yield from syscall(k, proc, "open", f"/{img.name}", True)
        payload = bytes(range(256)) * 32  # 8 KB of "program text"
        yield from syscall(k, proc, "write", fd, payload)
        yield from syscall(k, proc, "close", fd)
        # Give the first process a real address space to fork from.
        from repro.kernel.vm.vm_glue import vmspace_exec

        vmspace_exec(k, proc, img)

        for iteration in range(iterations):
            t0 = k.now_us

            def child_body(ck, child: Proc, _iteration=iteration):
                yield from user_mode(ck, 40)
                e0 = ck.now_us
                yield from syscall(ck, child, "execve", f"/{img.name}", ("-c", "exit 0"))
                result.exec_us.append(ck.now_us - e0)
                # The new program touches its stack/bss: zero-fill faults.
                for page in range(touch_pages):
                    va = img.data_start + (img.data_pages + page) * PAGE_SIZE
                    vm_fault(ck, child.vmspace, va, write=True)
                yield from user_mode(ck, 120)
                yield from syscall(ck, child, "exit", 0)

            child = yield from syscall(k, proc, "fork", child_body)
            result.fork_us.append(k.now_us - t0)
            w0 = k.now_us
            yield from syscall(k, proc, "wait")
            result.wait_us.append(k.now_us - w0)
            del child
            if print_status and k.console is not None:
                k.console.puts(f"iteration {iteration} complete\n")
            yield from user_mode(k, 200)
        yield from syscall(k, proc, "exit", 0)

    kernel.sched.spawn("forktest", parent_body)
    kernel.sched.run(until_ns=kernel.machine.now_ns + 120_000_000_000)
    return result
