"""CAPTURE — trigger-generation throughput of the optimized hot path.

PR 1 made the *analysis* side scale; this benchmark measures the other
half of the loop: the simulated kernel that generates the events.  The
paper's premise is that a trigger must be almost free (one ``movb``,
~400 ns); the optimized capture path gets the simulator closer to that
spirit by making the per-trigger Python cost O(1) — cached interrupt
horizon, fused cost charging, pre-resolved Profiler tap, cached bus
decode — while producing byte-identical captures.

Measured here, optimized engine vs the reference engine of
``tests/oracles.py`` (``ReferenceInterruptQueue`` + linear decode +
step-by-step charging):

* a synthetic trigger storm (default 500k enter/leave pairs = 1M trigger
  events) with a periodic re-arming interrupt line keeping the queue
  busy — asserted >= 3x triggers/sec;
* the Figure-4-style network-receive workload on the full system —
  reported, not asserted (it spends most of its time off the trigger
  path);
* determinism: the storm's captured RawRecord stream byte-compared
  between engines and hashed against a checked-in golden
  (``tests/golden/capture_hotpath.sha256``).

Environment knobs (the CI smoke job uses both)::

    REPRO_HOTPATH_PAIRS        enter/leave pairs for the storm (default 500000)
    REPRO_HOTPATH_MIN_SPEEDUP  asserted speedup floor (default 3.0)

The golden hash covers the board's RAM contents (16384-event depth), so
it is identical for every ``REPRO_HOTPATH_PAIRS`` large enough to fill
the board — reduced smoke runs check the same bytes as full runs.  To
regenerate after an intentional capture-format change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest benchmarks/bench_capture_hotpath.py
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import sys
import time

from paperbench import once

from repro.kernel.kernel import Kernel
from repro.kernel.kfunc import KFuncMeta
from repro.profiler.eprom import PiggyBackAdapter
from repro.profiler.hardware import ProfilerBoard
from repro.sim.engine import InterruptLine
from repro.sim.machine import Machine
from repro.system import build_case_study
from repro.workloads.network_recv import network_receive

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from oracles import build_reference_case_study, reference_kernel  # noqa: E402

GOLDEN_HASH_PATH = (
    pathlib.Path(__file__).parent.parent / "tests" / "golden" / "capture_hotpath.sha256"
)

#: Local metas with pinned tags: the storm must NOT touch the global
#: kfunc registry (tag assignment there is registration-order sensitive,
#: and a stray registration would shift every golden capture).
STORM_META_A = KFuncMeta(name="storm_fn_a", module="bench/storm", base_ns=1_800)
STORM_META_B = KFuncMeta(name="storm_fn_b", module="bench/storm", base_ns=350)
STORM_TAGS = {"storm_fn_a": 0x10, "storm_fn_b": 0x12}

BOARD_DEPTH = 16384
TIMER_PERIOD_NS = 200_000

#: Default loop count: each iteration is two enter/leave pairs = four
#: trigger events, so 250k iterations is the 1M-event synthetic run.
DEFAULT_PAIRS = 250_000
MIN_FILL_PAIRS = BOARD_DEPTH  # enough pairs to fill the board's RAM


def storm_pairs() -> int:
    pairs = int(os.environ.get("REPRO_HOTPATH_PAIRS", DEFAULT_PAIRS))
    return max(pairs, MIN_FILL_PAIRS)


def min_speedup() -> float:
    return float(os.environ.get("REPRO_HOTPATH_MIN_SPEEDUP", 3.0))


def make_storm_kernel(engine: str) -> tuple[Kernel, ProfilerBoard]:
    kernel = reference_kernel() if engine == "reference" else Kernel(Machine())
    board = ProfilerBoard(depth=BOARD_DEPTH)
    kernel.attach_profiler(PiggyBackAdapter(board))
    kernel.set_profile_map(dict(STORM_TAGS), {})
    return kernel, board


def run_storm(engine: str, pairs: int) -> dict:
    """Drive *pairs* enter/leave pairs with live periodic interrupts.

    Three re-arming lines (clock-ish, net-ish, disk-ish) keep a realistic
    pending population in the queue throughout the run — the reference
    engine pays O(pending) per horizon query, the optimized engine pays
    its cached O(1) either way.
    """
    kernel, board = make_storm_kernel(engine)
    interrupts = kernel.machine.interrupts
    lines: list[InterruptLine] = []

    def make_line(irq: int, ipl: int, name: str, period_ns: int) -> InterruptLine:
        def handler() -> None:
            interrupts.post(line, kernel.machine.now_ns + period_ns)
            kernel.work(3_000)

        line = InterruptLine(irq=irq, name=name, ipl=ipl, handler=handler)
        interrupts.post(line, kernel.machine.now_ns + period_ns)
        lines.append(line)
        return line

    make_line(0, 6, "storm-clock", TIMER_PERIOD_NS)
    make_line(5, 3, "storm-net", 7 * TIMER_PERIOD_NS // 2)
    make_line(14, 4, "storm-disk", 9 * TIMER_PERIOD_NS)

    enter, leave = kernel.enter, kernel.leave
    board.arm()
    start = time.perf_counter()
    for _ in range(pairs):
        enter(STORM_META_A)
        leave(STORM_META_A)
        enter(STORM_META_B)
        leave(STORM_META_B)
    elapsed = time.perf_counter() - start
    board.disarm()
    records = board.pull_rams().columns()
    triggers = kernel.stats["triggers"]
    return {
        "elapsed_s": elapsed,
        "triggers": triggers,
        "triggers_per_s": triggers / elapsed,
        "stream": records.to_bytes(),
        "events_stored": len(records),
        "overflowed": board.overflow_led,
        "sim_ns": kernel.machine.now_ns,
        "intr": kernel.stats["intr"],
    }


def run_figure4_workload(engine: str) -> dict:
    """The golden network-receive workload on the full system."""
    build = build_reference_case_study if engine == "reference" else build_case_study
    system = build()
    start = time.perf_counter()
    capture = system.profile(
        lambda: network_receive(system.kernel, total_packets=6),
        label="figure4 capture bench",
    )
    elapsed = time.perf_counter() - start
    triggers = system.kernel.stats["triggers"]
    return {
        "elapsed_s": elapsed,
        "triggers": triggers,
        "triggers_per_s": triggers / elapsed,
        "events": len(capture),
        "stream": capture.records.to_bytes(),
    }


def test_storm_throughput_speedup(benchmark, comparison):
    pairs = storm_pairs()

    def run_both():
        fast = run_storm("optimized", pairs)
        ref = run_storm("reference", pairs)
        return fast, ref

    fast, ref = once(benchmark, run_both)
    speedup = fast["triggers_per_s"] / ref["triggers_per_s"]
    comparison.row("storm trigger events", "1M-class", f"{fast['triggers']:,}")
    comparison.row(
        "reference triggers/sec", "(pre-PR path)", f"{ref['triggers_per_s']:,.0f}"
    )
    comparison.row(
        "optimized triggers/sec", ">= 3x ref", f"{fast['triggers_per_s']:,.0f}"
    )
    comparison.row("speedup", f">= {min_speedup():.1f}x", f"{speedup:.1f}x")
    comparison.row(
        "events stored", BOARD_DEPTH, f"{fast['events_stored']:,}"
    )

    # Identical simulations first — a speedup that changes the capture
    # would be worthless.
    assert fast["stream"] == ref["stream"]
    assert fast["sim_ns"] == ref["sim_ns"]
    assert fast["intr"] == ref["intr"]
    assert fast["triggers"] == ref["triggers"] == 4 * pairs
    assert fast["events_stored"] == BOARD_DEPTH
    assert fast["overflowed"]

    assert speedup >= min_speedup(), (
        f"capture hot path speedup {speedup:.2f}x is below the "
        f"{min_speedup():.1f}x floor "
        f"(optimized {fast['triggers_per_s']:,.0f}/s vs "
        f"reference {ref['triggers_per_s']:,.0f}/s)"
    )


def test_storm_capture_matches_golden_hash(benchmark):
    """Byte-level determinism guard: the storm capture's sha256 must match
    the checked-in golden.  Any drift in trigger timing, tag values,
    counter sampling or record packing fails here — including drift that
    affects both engines equally, which the parity tests cannot see."""
    pairs = storm_pairs()
    fast = once(benchmark, run_storm, "optimized", pairs)
    digest = hashlib.sha256(fast["stream"]).hexdigest()
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_HASH_PATH.write_text(digest + "\n")
        import pytest

        pytest.skip(f"regenerated {GOLDEN_HASH_PATH}")
    golden = GOLDEN_HASH_PATH.read_text().strip()
    assert digest == golden, (
        "captured RawRecord stream drifted from the golden hash; if the "
        "change is intentional, regenerate with REGEN_GOLDEN=1 and review"
    )


def test_figure4_workload_parity_and_throughput(benchmark, comparison):
    def run_both():
        fast = run_figure4_workload("optimized")
        ref = run_figure4_workload("reference")
        return fast, ref

    fast, ref = once(benchmark, run_both)
    speedup = fast["triggers_per_s"] / ref["triggers_per_s"]
    comparison.row("figure4 capture events", "", f"{fast['events']:,}")
    comparison.row(
        "reference triggers/sec", "(pre-PR path)", f"{ref['triggers_per_s']:,.0f}"
    )
    comparison.row(
        "optimized triggers/sec", "(report only)", f"{fast['triggers_per_s']:,.0f}"
    )
    comparison.row("speedup", "(report only)", f"{speedup:.1f}x")
    # The whole-system workload spends most wall-clock off the trigger
    # path, so only byte-identity is asserted here.
    assert fast["stream"] == ref["stream"]
    assert fast["events"] == ref["events"] > 0
