#!/usr/bin/env python3
"""Quickstart: profile the kernel's network receive path end to end.

This is the paper's whole workflow in one script:

1. build the case-study rig (40 MHz 386 PC, miniature 386BSD, Profiler
   piggy-backed into the WD8003E's spare EPROM socket, kernel compiled
   with triggers);
2. press the switch, run a workload, pull the battery-backed RAMs;
3. decode the capture and print the two reports — the function summary
   (paper Figure 3) and the code-path trace (paper Figure 4).

Run:  python examples/quickstart.py
"""

from repro.analysis.summary import summarize
from repro.analysis.trace import format_trace
from repro.system import build_case_study
from repro.workloads.network_recv import network_receive


def main() -> None:
    print("Building the case-study system (this boots the kernel)...")
    system = build_case_study()
    print(
        f"  kernel: {system.image.profiled_functions} profiled functions, "
        f"{system.image.trigger_points} trigger points"
    )
    print(
        f"  profiler: {system.board.ram.depth}-event RAM at EPROM window "
        f"{system.adapter.base:#x}"
    )

    print("\nArming the Profiler and running the receive test...")
    result = {}
    capture = system.profile(
        lambda: result.setdefault(
            "run", network_receive(system.kernel, total_packets=40)
        ),
        label="quickstart: TCP receive",
    )
    run = result["run"]
    print(
        f"  received {run.bytes_received} bytes in {run.elapsed_us / 1000:.1f} ms"
        f" of simulated time ({len(capture)} events captured)"
    )

    analysis = system.analyze(capture)
    summary = summarize(analysis)

    print("\n--- Function summary (the paper's Figure 3 report) ---")
    print(summary.format(limit=12))

    print("\n--- Code-path trace, first 2 ms (the paper's Figure 4 report) ---")
    print(format_trace(analysis, start_us=0, end_us=2_000))

    top = summary.rows()[0]
    print(
        f"\nConclusion, same as 1993: the CPU is "
        f"{100 * summary.busy_fraction:.1f}% busy and {top.name} alone is "
        f"{summary.pct_real(top):.1f}% of it — the 8-bit ISA copy out of "
        "the Ethernet controller dominates everything."
    )


if __name__ == "__main__":
    main()
