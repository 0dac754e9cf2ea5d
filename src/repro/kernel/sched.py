"""Run queue, ``swtch``, ``tsleep``/``wakeup`` — the scheduling core.

``swtch`` is *the* special function of the whole reproduction: the paper
tags it ``!`` in the name file so the analysis software can split the
event stream into per-process code paths, and defines idle time as the
time spent inside it.  The simulator's scheduler emits the ``swtch``
entry/exit triggers at exactly the moments the real kernel would: entry
when the running process gives up the CPU, exit when the next process (or
the same one, after idling) is switched in.  While the run queue is empty
the scheduler sits "in the idle loop" — inside the open ``swtch`` frame —
advancing simulated time to the next interrupt, which is precisely how
device interrupts come to be nested inside ``swtch`` in the paper's
Figure 4 trace.

Processes are Python generators.  Blocking propagates as a yielded
:class:`Sleep` through the ``yield from`` chain up to the driver loop.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Optional

from repro.kernel.kfunc import kfunc, register_asm
from repro.kernel.proc import Proc, ProcState, ProcTable


class SchedulerError(Exception):
    """Deadlock or driver-protocol violation."""


class Sleep:
    """Yielded by ``tsleep`` to park the process on a wait channel."""

    def __init__(
        self, chan: object, pri: int = 50, wmesg: str = "", timo_ticks: int = 0
    ) -> None:
        self.chan = chan
        self.pri = pri
        self.wmesg = wmesg
        self.timo_ticks = timo_ticks


class Preempt:
    """Yielded at a preemption point (user-mode boundary)."""


#: swtch: the context-switch assembler routine, driven by the scheduler.
SWTCH_META = register_asm(
    "swtch", module="i386/swtch", base_us=11.0, context_switch=True
)


class Scheduler:
    """The dispatcher: run queue, sleep queues, the driver loop."""

    #: Round-robin quantum in clock ticks (386BSD: rrmininterval).
    QUANTUM_TICKS = 10

    def __init__(self, kernel: Any) -> None:
        self.k = kernel
        self.runq: deque[Proc] = deque()
        self.sleepq: dict[object, list[Proc]] = {}
        self.procs = ProcTable()
        self.curproc: Optional[Proc] = None
        self.need_resched = False
        #: Context switches performed (kernel statistics).
        self.switches = 0
        #: True while the CPU sits in the swtch idle loop.
        self.idling = False
        #: Absolute time beyond which the idle loop gives up (run bound).
        self._idle_abort_ns: Optional[int] = None

    # -- process creation ---------------------------------------------------

    def spawn(
        self,
        name: str,
        body: Callable[[Any, Proc], Generator],
        parent: Optional[Proc] = None,
    ) -> Proc:
        """Create a process whose kernel life is the generator *body*."""
        proc = self.procs.new(name=name, parent=parent)
        proc.driver = body(self.k, proc)
        self.setrun(proc)
        return proc

    def setrun(self, proc: Proc) -> None:
        """Make *proc* runnable and queue it."""
        proc.state = ProcState.SRUN
        proc.wchan = None
        self.runq.append(proc)

    # -- wait channels -------------------------------------------------------

    def sleep_on(self, proc: Proc, sleep: Sleep) -> None:
        """Park *proc* on its wait channel (tsleep's queueing half)."""
        proc.state = ProcState.SSLEEP
        proc.wchan = sleep.chan
        proc.wmesg = sleep.wmesg
        proc.priority = sleep.pri
        self.sleepq.setdefault(sleep.chan, []).append(proc)
        if sleep.timo_ticks > 0:
            self.k.set_timeout(_sleep_timeout, proc, sleep.timo_ticks)

    def wakeup_channel(self, chan: object) -> int:
        """Wake every process sleeping on *chan*; returns how many."""
        woken = self.sleepq.pop(chan, [])
        for proc in woken:
            proc.wake_value = 0
            self.setrun(proc)
        if woken:
            self.need_resched = True
        return len(woken)

    def unsleep(self, proc: Proc) -> bool:
        """Remove *proc* from its wait channel (timeout path)."""
        queue = self.sleepq.get(proc.wchan)
        if not queue or proc not in queue:
            return False
        queue.remove(proc)
        if not queue:
            self.sleepq.pop(proc.wchan, None)
        return True

    # -- the dispatcher ---------------------------------------------------------

    def _swtch(self) -> Optional[Proc]:
        """The context switch: emits the ``swtch`` triggers, idles if needed.

        Returns the process switched in, or ``None`` when no process can
        ever run again (system quiescent).
        """
        k = self.k
        prev = self.curproc
        k.enter(SWTCH_META)
        self.curproc = None
        resumed: Optional[Proc] = None
        self.idling = True
        while True:
            if self.runq:
                resumed = self.runq.popleft()
                break
            if not self._anyone_waiting():
                break
            if (
                self._idle_abort_ns is not None
                and k.machine.now_ns >= self._idle_abort_ns
            ):
                break
            due = k.machine.interrupts.next_any_due_ns()
            if due is None:
                k.leave(SWTCH_META)
                sleepers = [p.name for q in self.sleepq.values() for p in q]
                raise SchedulerError(
                    f"deadlock: processes sleeping with no interrupt source: "
                    f"{sleepers}"
                )
            # The idle loop runs with interrupts fully enabled.
            saved_ipl = k.ipl
            k.ipl = 0
            k.advance(max(0, due - k.machine.now_ns))
            k.ipl = saved_ipl
        self.idling = False
        if resumed is not None:
            k.work(4_000)  # restore the incoming context
            self.switches += 1
        k.leave(SWTCH_META)
        # Swap the shadow kernel stacks: the outgoing process keeps its
        # suspended frames; the incoming one resumes where it left off.
        if prev is not None:
            prev.kstack = k.kstack
        if resumed is not None:
            k.kstack = resumed.kstack
            resumed.state = ProcState.SRUN
        self.curproc = resumed
        return resumed

    def _anyone_waiting(self) -> bool:
        return any(queue for queue in self.sleepq.values())

    def run(
        self,
        until_ns: Optional[int] = None,
        until: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Drive processes until none can run (or a bound is reached).

        *until_ns* stops after the simulated clock passes an absolute
        time (including while idle); *until* is an arbitrary stop
        predicate checked between process steps.
        """
        k = self.k
        self._idle_abort_ns = until_ns
        current = self._swtch()
        while current is not None:
            try:
                item = current.driver.send(current.wake_value)
            except StopIteration as stop:
                self._proc_exit(current, stop.value)
                if self._should_stop(until_ns, until):
                    return
                current = self._swtch()
                continue
            current.wake_value = None
            if isinstance(item, Sleep):
                self.sleep_on(current, item)
            elif isinstance(item, Preempt):
                self.setrun(current)
            else:
                raise SchedulerError(
                    f"process {current.name!r} yielded {item!r}; only Sleep "
                    "and Preempt may reach the scheduler"
                )
            if self._should_stop(until_ns, until):
                return
            current = self._swtch()

    def _should_stop(
        self, until_ns: Optional[int], until: Optional[Callable[[], bool]]
    ) -> bool:
        if until_ns is not None and self.k.machine.now_ns >= until_ns:
            return True
        if until is not None and until():
            return True
        return False

    def _proc_exit(self, proc: Proc, value: Any) -> None:
        proc.state = ProcState.SZOMB
        # sys_exit records the real status; a bare generator return must
        # not overwrite it.
        if proc.exit_status is None:
            proc.exit_status = value
        self.curproc = None


def _sleep_timeout(k: Any, proc: Proc) -> None:
    """Callout fired when a tsleep timeout expires (``EWOULDBLOCK``)."""
    if proc.state is ProcState.SSLEEP and k.sched.unsleep(proc):
        proc.wake_value = "EWOULDBLOCK"
        k.sched.setrun(proc)


# -- the sleep/wake kernel API ------------------------------------------------


@kfunc(module="kern/kern_synch", base_us=6, can_sleep=True)
def tsleep(k, chan: object, pri: int = 50, wmesg: str = "", timo: int = 0):
    """Sleep on *chan* until :func:`wakeup` (or a timeout) releases us.

    Mirrors the paper's Figure 4 epilogue: after ``swtch`` returns the
    process, ``tsleep`` restores the interrupt level with ``splx`` before
    returning to its caller.
    """
    from repro.kernel.intr import splhigh, splx

    saved = splhigh(k)
    result = yield Sleep(chan=chan, pri=pri, wmesg=wmesg, timo_ticks=timo)
    splx(k, saved)
    return result


@kfunc(module="kern/kern_synch", base_us=5)
def wakeup(k, chan: object) -> int:
    """Wake all sleepers on *chan* (callable from interrupt handlers)."""
    woken = k.sched.wakeup_channel(chan)
    k.work(woken * 2_500)  # setrun work per process
    return woken


@kfunc(module="kern/kern_synch", base_us=3)
def setrunnable(k, proc: Proc) -> None:
    """Make a specific process runnable."""
    k.sched.setrun(proc)


def user_mode(k, us: float):
    """Run *us* microseconds of user-mode code (a generator helper).

    Not a kernel function — no triggers fire, because user code is not
    instrumented in a kernel profile.  Interrupts still preempt, and a
    wakeup performed by one of them yields the CPU at this boundary (the
    386BSD kernel itself is non-preemptive; user mode is where resched
    happens).
    """
    k.advance(int(us * 1_000))
    if k.sched.need_resched and k.sched.runq:
        k.sched.need_resched = False
        yield Preempt()
