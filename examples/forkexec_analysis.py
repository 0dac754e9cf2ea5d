#!/usr/bin/env python3
"""The paper's §Fork/exec Profiling, reproduced: Figure 5 and the pmap story.

"The current situation looks fairly abysmal; it takes some 24
milliseconds to perform a vfork operation, and it takes about 28
milliseconds to perform an execve system call."  The profile shows why:
the pmap module walks every mapped page of the address space — present or
not — through pmap_pte, and exec/exit funnel whole-address-space
teardowns into giant pmap_remove calls.

Run:  python examples/forkexec_analysis.py
"""

from repro.analysis.graph import call_graph, subsystem_rollup
from repro.analysis.summary import summarize
from repro.kernel.kfunc import registered_functions
from repro.system import build_case_study
from repro.workloads.forkexec import fork_exec_storm


def main() -> None:
    system = build_case_study()
    print("Running the fork/exec loop under the Profiler...")
    result = {}
    capture = system.profile(
        lambda: result.setdefault(
            "r",
            fork_exec_storm(system.kernel, iterations=3, print_status=True),
        ),
        label="fork/exec analysis",
    )
    storm = result["r"]

    print(
        f"\nMeasured latencies (paper: vfork ~24 ms, execve ~28 ms):\n"
        f"  fork  : {storm.mean_fork_us / 1000:6.1f} ms\n"
        f"  execve: {storm.mean_exec_us / 1000:6.1f} ms\n"
        f"  pair  : {storm.mean_pair_us / 1000:6.1f} ms"
    )

    analysis = system.analyze(capture)
    summary = summarize(analysis)
    print("\n--- High-cost subroutines (the paper's Figure 5 report) ---")
    print(summary.format(limit=13))

    pte = summary.get("pmap_pte")
    print(
        f"\npmap_pte: {pte.calls} calls at ~{pte.avg_us} us — the walk the "
        "paper counts at 1053 calls per fork 'and a similar amount when an "
        "exec is done'."
    )

    # Subsystem rollup (the paper's future-work 'groupings of functions').
    module_of = {meta.name: meta.module.split("/")[0] for meta in registered_functions()}
    rollup = subsystem_rollup(analysis, module_of)
    busy = analysis.busy_us or 1
    print("\nPer-subsystem share of busy time:")
    for label, bucket in sorted(rollup.items(), key=lambda kv: -kv[1]["net_us"])[:6]:
        print(
            f"  {label:<12} {100 * bucket['net_us'] / busy:6.1f}%  "
            f"({bucket['calls']} calls)"
        )

    vm_share = sum(
        bucket["net_us"]
        for label, bucket in rollup.items()
        if label in ("vm", "i386")
    ) / busy
    print(
        f"\n'Over 50% of the time is being spent in the virtual memory "
        f"routines' — measured: {100 * vm_share:.1f}%."
    )

    graph = call_graph(analysis)
    fork_edges = sorted(
        graph.edges.get("vmspace_fork", {}).items(),
        key=lambda e: -e[1]["inclusive_us"],
    )[:4]
    print("\nWhere vmspace_fork's time goes (call-graph edges):")
    for callee, data in fork_edges:
        print(
            f"  -> {callee:<16} {data['inclusive_us']:>8} us over "
            f"{data['calls']} calls"
        )
    print(
        "\nThe paper's remedy stands: 'a major performance benefit would "
        "occur if some of that glue could be trimmed back'."
    )


if __name__ == "__main__":
    main()
