#!/usr/bin/env python3
"""User-level profiling: the SNMP B-tree case study (§User Code Profiling).

The paper's workflow for user code: configure the driver stub, mmap the
Profiler window into the process, link with the profiling crt.o — then
the same board records user-function triggers interleaved with kernel
events.  The case study it enabled: "a major bottleneck in searching the
MIB table linearly; redesigning the data structure to use a B-tree ...
reduced the CPU cycles required to respond to SNMP requests by an order
of magnitude."

Run:  python examples/user_profiling.py
"""

from repro.analysis.compare import compare_summaries
from repro.analysis.summary import summarize
from repro.analysis.trace import format_trace
from repro.system import build_case_study
from repro.workloads.snmp import snmp_agent_run

MIB_SIZE = 600
REQUESTS = 20


def profile(mib_kind: str):
    system = build_case_study()
    result = {}
    capture = system.profile(
        lambda: result.setdefault(
            "r",
            snmp_agent_run(
                system.kernel,
                mib_kind=mib_kind,
                mib_size=MIB_SIZE,
                requests=REQUESTS,
                names=system.names,
            ),
        ),
        label=f"snmpd with {mib_kind} MIB",
    )
    return system, capture, result["r"]


def main() -> None:
    print("Profiling the SNMP agent (linear MIB search, the CMU original)...")
    system, capture, linear = profile("linear")
    analysis = system.analyze(capture)
    before = summarize(analysis)
    print(before.format(limit=6))
    search = before.get("mib_search_linear")
    print(
        f"\nThe user-level profile points straight at the search: "
        f"{search.avg_us} us of every request, "
        f"{linear.comparisons // REQUESTS} OID comparisons each.\n"
    )

    print("A slice of the mixed user+kernel trace (user frames are the")
    print("snmp_* / mib_* entries; clock interrupts nest right inside them):\n")
    window = [
        line
        for line in format_trace(analysis).splitlines()
        if "snmp_request" in line or "mib_search" in line or "ISAINTR" in line
    ]
    print("\n".join(window[:10]))

    print("\nRedesigning the MIB as a B-tree and re-profiling...")
    system2, capture2, btree = profile("btree")
    after = summarize(system2.analyze(capture2))

    diff = compare_summaries(before, after)
    print(diff.format(limit=6))

    speedup = before.get("mib_search_linear").net_us / max(
        1, after.get("mib_search_btree").net_us
    )
    print(
        f"\nSearch CPU reduced {speedup:.0f}x "
        f"({linear.comparisons // REQUESTS} -> "
        f"{btree.comparisons // REQUESTS} comparisons/request) — "
        "'reduced the CPU cycles required to respond to SNMP requests by "
        "an order of magnitude.'"
    )


if __name__ == "__main__":
    main()
