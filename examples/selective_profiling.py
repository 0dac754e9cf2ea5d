#!/usr/bin/env python3
"""Macro- versus micro-profiling: the paper's selective-compilation knob.

"This selective profiling allowed two broad categories of profiling to
take place, macro-profiling and micro-profiling."  Macro: compile the
whole kernel with triggers and see everything (at the cost of filling the
16384-event RAM quickly).  Micro: compile only the modules of interest —
here the network driver and TCP/IP — "allowing a detailed and
unobstructed view of that section".

Run:  python examples/selective_profiling.py
"""

from repro.analysis.summary import summarize
from repro.system import build_case_study
from repro.workloads.network_recv import network_receive

PACKETS = 30


def run_profile(label: str, modules=None):
    system = build_case_study(profiled_modules=modules)
    capture = system.profile(
        lambda: network_receive(system.kernel, total_packets=PACKETS),
        label=label,
    )
    return system, capture


def main() -> None:
    print("=== Macro-profile: the whole kernel compiled with triggers ===")
    macro_system, macro_capture = run_profile("macro")
    macro_summary = summarize(macro_system.analyze(macro_capture))
    print(
        f"instrumented functions: "
        f"{macro_system.kernel.instrumented_functions}; "
        f"events captured: {len(macro_capture)}"
        + (" (RAM OVERFLOWED)" if macro_capture.overflowed else "")
    )
    print(macro_summary.format(limit=8))

    print(
        "\n=== Micro-profile: only netinet/ + the Ethernet driver "
        "recompiled with -profile ==="
    )
    micro_system, micro_capture = run_profile(
        "micro", modules=["netinet", "isa/if_we", "net"]
    )
    micro_summary = summarize(micro_system.analyze(micro_capture))
    print(
        f"instrumented functions: "
        f"{micro_system.kernel.instrumented_functions}; "
        f"events captured: {len(micro_capture)}"
    )
    print(micro_summary.format(limit=8))

    ratio = len(macro_capture) / max(1, len(micro_capture))
    print(
        f"\nThe trade: the micro capture used {ratio:.1f}x fewer events for "
        "the same workload, so the same 16384-event RAM covers a "
        f"{ratio:.1f}x longer interval of just the code you care about —"
    )
    print(
        "'highly selective profiling ... without filling the Profiler RAM "
        "with events in which there was no interest.'"
    )

    # The micro profile still shows the bottleneck pair.
    top_two = [row.name for row in micro_summary.rows()[:2]]
    print(f"\nTop of the micro profile: {top_two} — same verdict, sharper view.")


if __name__ == "__main__":
    main()
