"""HW — the Profiler board's envelope and the ablation sweeps.

Paper hardware facts: 16-bit tags (65536 values), 24-bit 1 MHz counter
("a maximum time of 16 seconds between events"), 16384-event RAM with the
overflow LED, the $100 bill of materials, and the future-work knobs (a
wider/faster counter for "upmarket workstation" use, more RAM).
"""

from __future__ import annotations

from paperbench import once

from repro.profiler.counter import MicrosecondCounter
from repro.profiler.hardware import ProfilerBoard
from repro.profiler.ram import TAG_MASK, TIME_MASK
from repro.system import build_case_study
from repro.workloads.network_recv import network_receive


def test_hardware_envelope(benchmark, comparison):
    board = once(benchmark, ProfilerBoard)
    comparison.row("event tags", 65_536, TAG_MASK + 1)
    comparison.row("counter wrap", "16 s", f"{board.counter.max_gap_us / 1e6:.1f} s")
    comparison.row("RAM depth", 16_384, board.ram.depth)
    comparison.row("chip count", 13, sum(ProfilerBoard.CHIP_COUNT.values()))
    assert TAG_MASK + 1 == 65_536
    assert 16 <= board.counter.max_gap_us / 1e6 <= 17
    assert board.ram.depth == 16_384
    assert TIME_MASK == (1 << 24) - 1


def test_overflow_led_under_load(benchmark, comparison):
    def run_small_board():
        system = build_case_study(board_depth=2_048)
        capture = system.profile(
            lambda: network_receive(system.kernel, total_packets=40)
        )
        return system, capture

    system, capture = once(benchmark, run_small_board)
    comparison.row("overflow stops storage", "LED latches", capture.overflowed)
    assert capture.overflowed
    assert len(capture) == 2_048
    # The latch holds until the board is power-cycled (the next session's
    # reset), so the operator can see the run overflowed.
    assert system.board.overflow_led is True
    system.board.reset()
    assert system.board.overflow_led is False


def test_counter_ablation_sweep(benchmark, comparison):
    """Future work: "A higher clock precision has been considered ...
    this would entail fitting a wider RAM module"."""

    def sweep():
        results = {}
        for width, rate in ((24, 1_000_000), (32, 1_000_000), (24, 10_000_000)):
            counter = MicrosecondCounter(width_bits=width, rate_hz=rate)
            results[(width, rate)] = counter.max_gap_us / 1e6
        return results

    results = once(benchmark, sweep)
    comparison.row("24-bit @ 1 MHz wrap", "16.8 s", f"{results[(24, 1_000_000)]:.1f} s")
    comparison.row("32-bit @ 1 MHz wrap", "~71 min", f"{results[(32, 1_000_000)]:.0f} s")
    comparison.row("24-bit @ 10 MHz wrap", "1.7 s", f"{results[(24, 10_000_000)]:.2f} s")
    # The paper's scepticism about a faster clock: it costs wrap headroom.
    assert results[(24, 10_000_000)] < results[(24, 1_000_000)]
    # The wider RAM module buys it back.
    assert results[(32, 1_000_000)] > 60 * results[(24, 1_000_000)]


def test_higher_precision_capture_still_analyses(benchmark):
    """A 10 MHz, 32-bit Profiler (the upmarket-workstation variant)
    produces captures the same analysis pipeline consumes."""

    def run_fast_board():
        from repro.profiler.hardware import ProfilerBoard

        counter = MicrosecondCounter(width_bits=32, rate_hz=10_000_000)
        board = ProfilerBoard(depth=16_384, counter=counter)
        from repro.profiler.eprom import PiggyBackAdapter
        from repro.instrument.compiler import InstrumentingCompiler
        from repro.kernel import import_all
        from repro.kernel.kernel import Kernel
        from repro.kernel.kfunc import registered_functions

        import_all()
        kernel = Kernel()
        kernel.attach_profiler(PiggyBackAdapter(board))
        image = InstrumentingCompiler().compile(registered_functions())
        image.install(kernel)
        kernel.boot()
        from repro.profiler.capture import CaptureSession

        session = CaptureSession(board, image.names, label="10 MHz board")
        with session:
            network_receive(kernel, total_packets=10)
        return session.capture

    capture = once(benchmark, run_fast_board)
    assert capture.counter_rate_hz == 10_000_000
    from repro.analysis.summary import summarize
    from repro.analysis.callstack import analyze_capture
    from repro.analysis.columnar import unwrap_times

    # Decode with the capture's own width: intervals are in 0.1 us ticks.
    times = unwrap_times(
        capture.records.times, capture.counter_width_bits
    )
    assert times == sorted(times)
    summary = summarize(analyze_capture(capture))
    assert summary.get("bcopy") is not None
