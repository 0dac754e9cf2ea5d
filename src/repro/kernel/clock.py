"""hardclock / softclock / callouts — the clock interrupt path.

Calibration targets from the paper: "the regular clock tick interrupt
took on average 94 microseconds to execute", of which ~24 us is the
software-interrupt (AST) emulation charged in the interrupt epilogue
(:meth:`repro.kernel.kernel.Kernel._dispatch`).

``softclock`` runs the callout (timeout) queue as a software interrupt at
``splsoftclock`` — on the 386 this is exactly the facility that has to be
emulated, so it is requested from ``hardclock`` and delivered from the
interrupt epilogue or the next spl-lowering, whichever comes first.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.kernel.kfunc import kfunc

#: Clock tick rate (386BSD: hz = 100).
HZ = 100


class Callout:
    """One pending timeout."""

    def __init__(
        self,
        due_tick: int,
        fn: Callable[..., None],
        args: tuple,
        cancelled: bool = False,
    ) -> None:
        self.due_tick = due_tick
        self.fn = fn
        self.args = args
        self.cancelled = cancelled


@kfunc(module="kern/kern_clock", base_us=9.0)
def gatherstats(k) -> None:
    """Statistics-clock work: sample the PC, charge the running process.

    386BSD calls this from hardclock; the paper's name file lists it
    right after ``hardclock``.
    """
    proc = k.sched.curproc
    if proc is not None:
        proc.cpu_ticks += 1
        k.stat("cp_user" if k.sched.idling else "cp_sys", 1)
    elif k.sched.idling:
        k.stat("cp_idle", 1)


@kfunc(module="kern/kern_clock", base_us=42.0)
def hardclock(k) -> None:
    """The 100 Hz clock tick.

    Bumps time, charges the running process, arms ``softclock`` when a
    callout is due, and requests a reschedule at quantum expiry.
    """
    k.ticks += 1
    gatherstats(k)
    if k.callouts and k.callouts[0].due_tick <= k.ticks:
        k.request_soft_interrupt("clock")
    if k.ticks % k.sched.QUANTUM_TICKS == 0:
        k.sched.need_resched = True


@kfunc(module="kern/kern_clock", base_us=12.0)
def softclock(k) -> None:
    """Run expired callouts (the emulated software interrupt)."""
    while k.callouts and k.callouts[0].due_tick <= k.ticks:
        callout = k.callouts.pop(0)
        if callout.cancelled:
            continue
        k.work(6_000)  # unlink + dispatch
        callout.fn(k, *callout.args)


@kfunc(module="kern/kern_clock", base_us=8.0)
def timeout(k, fn: Callable[..., None], arg: Any, ticks: int) -> Callout:
    """Schedule *fn(k, arg)* after *ticks* clock ticks."""
    if ticks < 0:
        raise ValueError(f"timeout of negative {ticks} ticks")
    callout = Callout(due_tick=k.ticks + max(1, ticks), fn=fn, args=(arg,))
    k.callouts.append(callout)
    k.callouts.sort(key=lambda c: c.due_tick)
    k.work(len(k.callouts) * 300)  # ordered-list insertion walk
    return callout


@kfunc(module="kern/kern_clock", base_us=7.0)
def untimeout(k, callout: Callout) -> bool:
    """Cancel a pending callout; returns False if it already fired."""
    if callout in k.callouts:
        callout.cancelled = True
        return True
    return False
