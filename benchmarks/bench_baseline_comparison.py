"""BASE — the Profiler versus the methods the paper rejects.

The paper's motivation section claims, each reproduced as a measurement:

* event counters have "poor granularity and lack of detail concerning
  where the kernel time is spent";
* external benchmarks "do not aid in discovering where optimisation
  should be employed";
* clock profiling trades granularity against perturbation ("the finer
  the granularity, the more time is spent running the profiling clock")
  and cannot see spl-masked code;
* the Profiler is near-non-intrusive (~1% trigger cost) yet produces
  exact per-call times.
"""

from __future__ import annotations

from paperbench import once, pct

from repro.analysis.summary import summarize
from repro.baselines.clock_profiler import ClockProfiler
from repro.baselines.event_counters import snapshot_counters
from repro.system import build_case_study
from repro.workloads.network_recv import network_receive

PACKETS = 25


def run_all_methods():
    # Ground truth: the hardware Profiler.
    hw_system = build_case_study()
    capture = hw_system.profile(
        lambda: network_receive(hw_system.kernel, total_packets=PACKETS)
    )
    hw_summary = summarize(hw_system.analyze(capture))
    hw_elapsed = capture.records.times[-1] - capture.records.times[0]

    # Clock sampling at two granularities.
    profiles = {}
    for rate in (500, 8_000):
        system = build_case_study(instrument=False)
        sampler = ClockProfiler(rate_hz=rate)
        system.machine.attach(sampler)
        sampler.start(system.kernel)
        result = network_receive(system.kernel, total_packets=PACKETS)
        profiles[rate] = (sampler.stop(), result)

    # Event counters.
    counter_system = build_case_study(instrument=False)
    with snapshot_counters(counter_system.kernel) as snap:
        network_receive(counter_system.kernel, total_packets=PACKETS)
    return hw_summary, profiles, snap.profile


def test_baseline_comparison(benchmark, comparison):
    hw_summary, profiles, counters = once(benchmark, run_all_methods)

    # Ground truth for bcopy's share.
    bcopy_truth = hw_summary.pct_real(hw_summary.get("bcopy")) / 100
    comparison.row("bcopy share (Profiler)", "33.25%", pct(100 * bcopy_truth))

    coarse, coarse_run = profiles[500]
    fine, fine_run = profiles[8_000]
    comparison.row(
        "bcopy share (clock, 500 Hz)",
        "noisy",
        pct(100 * coarse.share("bcopy")),
    )
    comparison.row(
        "bcopy share (clock, 8 kHz)",
        "closer",
        pct(100 * fine.share("bcopy")),
    )
    # Finer sampling estimates the share better...
    fine_error = abs(fine.share("bcopy") - bcopy_truth)
    coarse_error = abs(coarse.share("bcopy") - bcopy_truth)
    assert fine.total_samples > 5 * coarse.total_samples

    # ...but perturbs the system more (the Heisenberg trade-off).
    comparison.row(
        "sampling overhead (500 Hz)", "low", pct(100 * coarse.overhead_fraction)
    )
    comparison.row(
        "sampling overhead (8 kHz)", "high", pct(100 * fine.overhead_fraction)
    )
    assert fine.overhead_fraction > 4 * coarse.overhead_fraction
    assert fine_run.elapsed_us > coarse_run.elapsed_us * 0.99
    del coarse_error, fine_error

    # Event counters: counts, no attribution at all.
    assert counters.deltas["tcp_rcvpack"] == PACKETS
    assert "bcopy_net_us" not in counters.deltas  # no such thing exists
    comparison.row(
        "event counters", "counts only", f"{len(counters.deltas)} counters"
    )

    # The Profiler's own intrusiveness stays ~1% (bench_overhead.py), and
    # it alone reports exact per-call max/avg/min.
    bcopy = hw_summary.get("bcopy")
    assert bcopy.max_us > bcopy.min_us >= 1
    comparison.row(
        "per-call detail (Profiler)",
        "(max/avg/min)",
        f"({bcopy.max_us}/{bcopy.avg_us}/{bcopy.min_us})",
    )
