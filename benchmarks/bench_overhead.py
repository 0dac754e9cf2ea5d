"""OVH — the instrumentation-overhead claims.

Paper: "Adding event tag triggers to software will have a small impact on
performance; this has been calculated at around 1 to 1.2% extra CPU
cycles ... about 400 nanoseconds per function for a 40 MHz 386.  The size
of the software also increases by the overhead of two instructions per
function."  Case-study scale: 1392 C functions -> 2784 trigger points,
plus 35 assembler routines = 1427 profiled functions; the RAM (16384
events) "could be filled in as short a time as 300 milliseconds".
"""

from __future__ import annotations

from paperbench import once, pct

from repro.instrument.compiler import (
    InstrumentingCompiler,
    TRIGGERS_PER_FUNCTION,
)
from repro.kernel.kfunc import registered_functions
from repro.system import build_case_study
from repro.workloads.network_recv import network_receive


def run_overhead_pair():
    instrumented = build_case_study()
    with_triggers = network_receive(instrumented.kernel, total_packets=25)
    plain = build_case_study(instrument=False)
    without = network_receive(plain.kernel, total_packets=25)
    return instrumented, with_triggers, without


def test_instrumentation_overhead(benchmark, comparison):
    instrumented, with_triggers, without = once(benchmark, run_overhead_pair)

    overhead = (
        with_triggers.elapsed_us - without.elapsed_us
    ) / without.elapsed_us
    comparison.row("trigger CPU overhead", "1-1.2%", pct(100 * overhead))
    assert 0.002 <= overhead <= 0.03

    trigger_ns = instrumented.kernel.cost.trigger_ns * TRIGGERS_PER_FUNCTION
    comparison.row("trigger cost per function", "400 ns", f"{trigger_ns} ns")
    assert trigger_ns == 400

    # Identical results either way ("No noticeable difference").
    assert with_triggers.bytes_received == without.bytes_received


def test_kernel_scale_and_fill_rate(benchmark, comparison):
    def build_and_fill():
        system = build_case_study()
        capture = system.profile(
            lambda: network_receive(system.kernel, total_packets=200)
        )
        return system, capture

    system, capture = once(benchmark, build_and_fill)

    image = system.image
    comparison.row(
        "profiled functions", "1427 (1392 C + 35 asm)", image.profiled_functions
    )
    comparison.row(
        "trigger points", 2_784 + 70, image.trigger_points
    )
    # Our miniature kernel is smaller than 386BSD but the same order of
    # structure: >100 functions, entry+exit points for each.
    assert image.profiled_functions >= 100
    assert image.trigger_points >= 2 * image.profiled_functions

    # Fill rate: heavy receive load fills 16384 events well inside 1 s.
    assert capture.overflowed or len(capture) == 16384 or len(capture) > 10_000
    if capture.overflowed:
        from repro.analysis.events import decode_capture

        events = decode_capture(capture)
        fill_ms = events.times[-1] / 1_000
        comparison.row("16384-event fill time", "~300 ms", f"{fill_ms:.0f} ms")
        assert fill_ms <= 1_000

    # Code growth: two 6-byte instructions per function.
    comparison.row(
        "code growth", "2 insns/function",
        f"{image.code_growth_bytes} bytes",
    )
    assert image.code_growth_bytes == image.trigger_points * 6


def test_compiler_overhead_estimate(benchmark, comparison):
    compiler = InstrumentingCompiler()
    image = once(benchmark, compiler.compile, registered_functions())
    estimate = compiler.overhead_estimate(
        image, trigger_ns=200, mean_function_ns=36_000
    )
    comparison.row("static overhead estimate", "1-1.2%", pct(100 * estimate))
    assert 0.005 <= estimate <= 0.02
