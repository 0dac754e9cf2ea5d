"""A mixed macro-profiling workload (populates the paper's Table 1).

Touches every subsystem Table 1 samples: page faults (``vm_fault``),
kernel allocations (``kmem_alloc``/``malloc``/``free``), interrupt
synchronisation (``splnet``/``spl0``), and pathname copies
(``copyinstr``) — the broad-brush "what does the kernel do all day" run
the paper uses to report representative per-function timings.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.kernel.intr import spl0, splnet, splx
from repro.kernel.libkern import copyinstr
from repro.kernel.malloc import free, malloc
from repro.kernel.proc import Proc
from repro.kernel.sched import user_mode
from repro.kernel.syscalls import syscall
from repro.kernel.vm.kmem import kmem_alloc, kmem_free
from repro.kernel.vm.vm_fault import vm_fault
from repro.kernel.vm.vm_glue import ExecImage, vmspace_exec

PAGE_SIZE = 4096


class MixedResult(NamedTuple):
    """Bookkeeping from the mixed run."""

    faults: int
    allocations: int
    elapsed_us: int


def mixed_activity(
    kernel: Any,
    rounds: int = 6,
    faults_per_round: int = 8,
    allocs_per_round: int = 5,
) -> MixedResult:
    """Run the everything-workload; returns counts and elapsed time."""
    state = {"faults": 0, "allocs": 0}
    image = ExecImage(name="mixed", data_pages=10, text_pages=20)

    def body(k, proc: Proc):
        vmspace_exec(k, proc, image)
        fd = yield from syscall(k, proc, "open", "/workfile", True)
        for round_no in range(rounds):
            # Page faults: touch fresh bss pages (zero-fill-on-demand).
            for i in range(faults_per_round):
                va = image.data_start + (
                    image.data_pages + round_no * faults_per_round + i
                ) * PAGE_SIZE
                vm_fault(k, proc.vmspace, va, write=True)
                state["faults"] += 1
            # Kernel allocator traffic.
            sizes = [64, 256, 1024, 2048, 128][:allocs_per_round]
            for size in sizes:
                malloc(k, size, "mixed")
                state["allocs"] += 1
            for size in sizes:
                free(k, size, "mixed")
            va = kmem_alloc(k, 3 * PAGE_SIZE)
            kmem_free(k, va, 3 * PAGE_SIZE)
            # Interrupt synchronisation churn.
            for _ in range(10):
                s = splnet(k)
                k.work(4_000)
                splx(k, s)
            spl0(k)
            # Pathname traffic (copyinstr, ~170 us for a long path).
            copyinstr(k, "/usr/src/sys/netinet/tcp_input.c/" + "x" * 100)
            payload = bytes((round_no + j) & 0xFF for j in range(2048))
            yield from syscall(k, proc, "write", fd, payload)
            yield from user_mode(k, 300)
        yield from syscall(k, proc, "close", fd)
        yield from syscall(k, proc, "exit", 0)

    start_us = kernel.now_us
    kernel.sched.spawn("mixed", body)
    kernel.sched.run(until_ns=kernel.machine.now_ns + 300_000_000_000)
    return MixedResult(
        faults=state["faults"],
        allocations=state["allocs"],
        elapsed_us=kernel.now_us - start_us,
    )
