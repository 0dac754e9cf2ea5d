"""Old-vs-new capture parity: the optimized hot path must be invisible.

The capture-side optimization (bucketed interrupt queue with a cached
per-ipl horizon, bus decode cache, pre-resolved Profiler tap, fused cost
charging) promises one thing above all: every captured ``RawRecord``
stream — tags, wrapped 24-bit times, order — is **byte-identical** to
what the reference engine in ``tests/oracles.py`` produces.  These
tests pin that promise at three levels:

* whole-system: the golden Figure 3/4 (network receive) and Figure 5
  (fork/exec) workloads, run on both engines, byte-compared;
* kernel-level: randomized interrupt/spl schedules driven through a pair
  of bare kernels (optimized vs reference), comparing captures, handler
  delivery instants, final clock values and interrupt statistics;
* instant-level: an interrupt posted while spl-masked must be delivered
  at the exact nanosecond the level drops, identically on both engines.

Plus the regression guards that ride along: the ``kstack_desync`` stat
on mismatched ``leave`` and the bus-generation guard that forces the
pre-resolved tap to re-decode (and fault) after the adapter is unplugged.
"""

from __future__ import annotations

import random

import pytest

from repro.kernel.intr import ISAINTR_META, splx
from repro.kernel.kernel import Kernel
from repro.kernel.kfunc import KFuncMeta
from repro.profiler.eprom import PiggyBackAdapter
from repro.profiler.hardware import ProfilerBoard
from repro.sim.bus import BusError
from repro.sim.engine import InterruptLine
from repro.sim.machine import Machine
from repro.system import build_case_study
from repro.workloads.forkexec import fork_exec_storm
from repro.workloads.network_recv import network_receive
from oracles import build_reference_case_study, reference_kernel

# Manual profile-map metas: deliberately NOT @kfunc-registered, so these
# tests cannot perturb the global registry's import-order tag assignment.
META_A = KFuncMeta(name="parity_fn_a", module="test/parity", base_ns=1_800)
META_B = KFuncMeta(name="parity_fn_b", module="test/parity", base_ns=350)
PARITY_TAGS = {"parity_fn_a": 0x10, "parity_fn_b": 0x12}


def capture_bytes(capture) -> bytes:
    return capture.records.to_bytes()


def make_kernel(engine: str, depth: int = 4096) -> tuple[Kernel, ProfilerBoard]:
    """A bare profiling kernel on the requested engine (no boot)."""
    kernel = reference_kernel() if engine == "reference" else Kernel(Machine())
    board = ProfilerBoard(depth=depth)
    kernel.attach_profiler(PiggyBackAdapter(board))
    kernel.set_profile_map(dict(PARITY_TAGS), {})
    return kernel, board


# ---------------------------------------------------------------------------
# Whole-system parity on the golden workloads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "label, workload",
    [
        ("figure3+4-network", lambda k: network_receive(k, total_packets=6)),
        ("figure5-forkexec", lambda k: fork_exec_storm(k, iterations=1)),
    ],
    ids=["network", "forkexec"],
)
def test_golden_workload_capture_byte_identical(label, workload):
    streams = {}
    for engine, build in (
        ("optimized", build_case_study),
        ("reference", build_reference_case_study),
    ):
        system = build()
        capture = system.profile(lambda: workload(system.kernel), label=label)
        streams[engine] = (
            capture_bytes(capture),
            capture.overflowed,
            system.machine.now_ns,
            system.kernel.stats["triggers"],
            system.kernel.stats["intr"],
        )
    assert streams["optimized"] == streams["reference"]
    # And the stream is non-trivial — an empty capture proves nothing.
    assert len(streams["optimized"][0]) > 0


# ---------------------------------------------------------------------------
# Randomized interrupt/spl schedules on bare kernels
# ---------------------------------------------------------------------------


def build_schedule(seed: int, ops: int = 400) -> list[tuple]:
    """A reproducible schedule of enter/leave, posts, spl moves, work."""
    rng = random.Random(seed)
    schedule: list[tuple] = []
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.40:
            schedule.append(("call", rng.randint(0, 1), rng.randint(100, 4_000)))
        elif roll < 0.65:
            schedule.append(("post", rng.randint(0, 2), rng.randint(200, 60_000)))
        elif roll < 0.85:
            schedule.append(("spl", rng.choice((0, 2, 3, 5, 6))))
        else:
            schedule.append(("work", rng.randint(50, 25_000)))
    return schedule


def run_schedule(engine: str, schedule: list[tuple]):
    kernel, board = make_kernel(engine)
    fired: list[tuple[str, int]] = []

    def make_line(irq: int, ipl: int, name: str) -> InterruptLine:
        def handler() -> None:
            fired.append((name, kernel.machine.now_ns))
            kernel.work(1_500)

        return InterruptLine(irq=irq, name=name, ipl=ipl, handler=handler)

    lines = [
        make_line(3, 2, "softish"),
        make_line(5, 3, "net"),
        make_line(9, 6, "clockish"),
    ]
    metas = [META_A, META_B]
    board.arm()
    for op in schedule:
        if op[0] == "call":
            _, which, body_ns = op
            meta = metas[which]
            kernel.enter(meta)
            kernel.work(body_ns)
            kernel.leave(meta)
        elif op[0] == "post":
            _, which, delta_ns = op
            kernel.machine.interrupts.post(
                lines[which], kernel.machine.now_ns + delta_ns
            )
        elif op[0] == "spl":
            splx(kernel, op[1])
        else:
            kernel.work(op[1])
    splx(kernel, 0)
    kernel.work(100_000)  # drain stragglers
    board.disarm()
    ram = board.pull_rams()
    stream = ram.columns().to_bytes()
    return stream, tuple(fired), kernel.machine.now_ns, dict(kernel.stats)


@pytest.mark.parametrize("seed", [1, 7, 0xBEEF, 20260806])
def test_randomized_schedule_parity(seed):
    schedule = build_schedule(seed)
    fast = run_schedule("optimized", schedule)
    ref = run_schedule("reference", schedule)
    assert fast[0] == ref[0]  # RawRecord stream, byte for byte
    assert fast[1] == ref[1]  # every handler fired at the same instant
    assert fast[2] == ref[2]  # clocks agree
    assert fast[3] == ref[3]  # stats agree


# ---------------------------------------------------------------------------
# Exact-instant delivery when spl drops
# ---------------------------------------------------------------------------


def masked_drop_instants(engine: str) -> tuple[int, int, int]:
    kernel, board = make_kernel(engine)
    fired: list[int] = []
    line = InterruptLine(
        irq=5, name="net", ipl=3, handler=lambda: fired.append(kernel.machine.now_ns)
    )
    kernel.ipl = 5  # mask the line
    due = kernel.machine.now_ns + 1_000
    kernel.machine.interrupts.post(line, due)
    board.arm()
    kernel.work(50_000)  # due passes while masked: must NOT deliver
    assert fired == []
    drop_ns = kernel.machine.now_ns
    kernel.ipl = 0
    kernel.check_interrupts()  # the spl-drop delivery path
    assert len(fired) == 1
    return due, drop_ns, fired[0]


def test_masked_interrupt_fires_at_the_instant_spl_drops():
    fast = masked_drop_instants("optimized")
    ref = masked_drop_instants("reference")
    assert fast == ref
    due, drop_ns, fired_ns = fast
    # Held well past due, then delivered inside the ISAINTR frame opened
    # at the drop instant: the only time between the drop and the handler
    # is the frame's own prologue (call + entry trigger + base cost).
    # (ISAINTR is not in the parity tag map, so no trigger charge here.)
    kernel = Kernel()
    overhead = kernel.cost.call_ns + ISAINTR_META.base_ns
    assert drop_ns > due
    assert fired_ns == drop_ns + overhead


def test_splx_delivery_instant_matches_across_engines():
    """Same check through the real splx() path, which charges mask-update
    costs before delivering."""
    instants = {}
    for engine in ("optimized", "reference"):
        kernel, board = make_kernel(engine)
        fired: list[int] = []
        line = InterruptLine(
            irq=5,
            name="net",
            ipl=3,
            handler=lambda: fired.append(kernel.machine.now_ns),
        )
        kernel.ipl = 5
        kernel.machine.interrupts.post(line, kernel.machine.now_ns + 2_000)
        board.arm()
        kernel.work(10_000)
        assert fired == []
        splx(kernel, 0)
        assert len(fired) == 1
        instants[engine] = (fired[0], kernel.machine.now_ns)
    assert instants["optimized"] == instants["reference"]


# ---------------------------------------------------------------------------
# kstack desync regression (satellite)
# ---------------------------------------------------------------------------


class TestKstackDesync:
    def test_mismatched_leave_bumps_stat_and_preserves_stack(self):
        kernel = Kernel()
        kernel.enter(META_A)
        assert kernel.kstack == ["parity_fn_a"]
        kernel.leave(META_B)  # mismatched pop: must not eat parity_fn_a
        assert kernel.stats["kstack_desync"] == 1
        assert kernel.kstack == ["parity_fn_a"]
        kernel.leave(META_A)
        assert kernel.kstack == []
        assert kernel.stats["kstack_desync"] == 1

    def test_leave_on_empty_stack_counts_as_desync(self):
        kernel = Kernel()
        kernel.leave(META_A)
        assert kernel.stats["kstack_desync"] == 1

    def test_balanced_nesting_never_bumps_the_stat(self):
        kernel = Kernel()
        for _ in range(10):
            kernel.enter(META_A)
            kernel.enter(META_B)
            kernel.leave(META_B)
            kernel.leave(META_A)
        assert kernel.stats["kstack_desync"] == 0


# ---------------------------------------------------------------------------
# Pre-resolved tap: the bus generation guard
# ---------------------------------------------------------------------------


class TestTapGenerationGuard:
    def test_fused_strobe_reaches_the_board(self):
        kernel, board = make_kernel("optimized")
        board.arm()
        kernel.enter(META_A)
        kernel.leave(META_A)
        assert board.events_stored == 2
        assert list(board.pull_rams().columns().tags) == [0x10, 0x11]

    def test_trigger_after_unplug_raises_bus_error(self):
        machine = Machine()
        kernel = Kernel(machine)
        board = ProfilerBoard(depth=64)
        adapter = PiggyBackAdapter(board)
        kernel.attach_profiler(adapter)
        kernel.set_profile_map(dict(PARITY_TAGS), {})
        board.arm()
        kernel.enter(META_A)
        kernel.leave(META_A)
        assert board.events_stored == 2
        adapter.unplug()
        # The cached tap was resolved against the old bus generation; the
        # strobe must re-decode and fault exactly like the unoptimized
        # read8 path would.
        with pytest.raises(BusError):
            kernel.enter(META_A)

    def test_replug_after_unplug_resolves_the_new_window(self):
        machine = Machine()
        kernel = Kernel(machine)
        board = ProfilerBoard(depth=64)
        adapter = PiggyBackAdapter(board)
        kernel.attach_profiler(adapter)
        kernel.set_profile_map(dict(PARITY_TAGS), {})
        adapter.unplug()
        replacement_board = ProfilerBoard(depth=64)
        replacement = PiggyBackAdapter(replacement_board)
        kernel.attach_profiler(replacement)
        replacement_board.arm()
        kernel.enter(META_A)
        kernel.leave(META_A)
        assert replacement_board.events_stored == 2
        assert board.events_stored == 0
