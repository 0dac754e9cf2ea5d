"""The SNMP MIB-search case study (the paper's 68020 section).

"A SNMP client based on the CMU SNMP code was profiled, highlighting a
major bottleneck in searching the MIB table linearly; redesigning the
data structure to use a B-tree to hold the MIB data reduced the CPU
cycles required to respond to SNMP requests by an order of magnitude."

This is a *user-level* profiling story (§User Code Profiling): the agent
is a user program instrumented through the mmap'd Profiler window.  Both
MIB organisations are real data structures over real OIDs — the linear
list walks entry by entry, the B-tree descends by key — and their costs
are their actual comparison counts, so the order-of-magnitude claim falls
out of the algorithms rather than being planted.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from repro.kernel.proc import Proc
from repro.kernel.sched import user_mode
from repro.kernel.syscalls import syscall
from repro.kernel.userprof import UserImage, prof_mmap, profdev_open, uenter, uleave
from repro.kernel.vm.vm_glue import ExecImage

#: Cost of one OID comparison in the user agent, microseconds.
COMPARE_US = 6.0
#: Fixed per-request packet handling (decode, encode, reply), microseconds.
REQUEST_OVERHEAD_US = 180.0


def make_mib(size: int) -> list[tuple[tuple[int, ...], int]]:
    """A MIB: sorted (OID, value) pairs under iso.org.dod.internet."""
    return [
        ((1, 3, 6, 1, 2, 1, (i // 40) + 1, (i % 40) + 1), i * 7)
        for i in range(size)
    ]


class LinearMib:
    """The CMU-code original: an unsorted-walk linear table."""

    kind = "linear"

    def __init__(self, entries: list[tuple[tuple[int, ...], int]]) -> None:
        self.entries = list(entries)

    def lookup(self, oid: tuple[int, ...]) -> tuple[Optional[int], int]:
        """Returns (value, comparisons)."""
        comparisons = 0
        for entry_oid, value in self.entries:
            comparisons += 1
            if entry_oid == oid:
                return value, comparisons
        return None, comparisons


class _BtreeNode(NamedTuple):
    keys: list[tuple[int, ...]]
    values: list[int]
    children: list["_BtreeNode"]

    @property
    def leaf(self) -> bool:
        return not self.children


class BtreeMib:
    """The redesign: a B-tree of order *t* over the same entries."""

    kind = "btree"
    T = 8  # minimum degree

    def __init__(self, entries: list[tuple[tuple[int, ...], int]]) -> None:
        # Bulk-load from the sorted list: build leaves then parents.
        ordered = sorted(entries)
        self.root = self._build(ordered)
        self.size = len(ordered)

    def _build(self, ordered: list) -> _BtreeNode:
        max_keys = 2 * self.T - 1
        if len(ordered) <= max_keys:
            return _BtreeNode(
                keys=[k for k, _ in ordered],
                values=[v for _, v in ordered],
                children=[],
            )
        # Split into c >= 2 evenly-sized child groups with separator keys
        # between them, so len(children) == len(keys) + 1 and every chunk
        # is strictly smaller than the input (recursion terminates).
        import math

        n = len(ordered)
        c = min(max_keys + 1, max(2, math.ceil(n / (2 * self.T))))
        payload = n - (c - 1)
        base, extra = divmod(payload, c)
        children = []
        keys: list[tuple[int, ...]] = []
        values: list[int] = []
        index = 0
        for child_index in range(c):
            size = base + (1 if child_index < extra else 0)
            children.append(self._build(ordered[index : index + size]))
            index += size
            if child_index < c - 1:
                sep_key, sep_value = ordered[index]
                keys.append(sep_key)
                values.append(sep_value)
                index += 1
        return _BtreeNode(keys=keys, values=values, children=children)

    def lookup(self, oid: tuple[int, ...]) -> tuple[Optional[int], int]:
        """Returns (value, comparisons)."""
        comparisons = 0
        node = self.root
        while True:
            i = 0
            while i < len(node.keys) and oid > node.keys[i]:
                comparisons += 1
                i += 1
            if i < len(node.keys):
                comparisons += 1
                if node.keys[i] == oid:
                    return node.values[i], comparisons
            if node.leaf:
                return None, comparisons
            node = node.children[i]


class SnmpResult:
    """One agent run."""

    def __init__(
        self,
        requests: int,
        hits: int,
        comparisons: int,
        elapsed_us: int,
        request_times_us: Optional[list[int]] = None,
    ) -> None:
        self.requests = requests
        self.hits = hits
        self.comparisons = comparisons
        self.elapsed_us = elapsed_us
        #: Per-request wall times, excluding process startup.
        self.request_times_us: list[int] = (
            [] if request_times_us is None else request_times_us
        )

    @property
    def us_per_request(self) -> float:
        if not self.request_times_us:
            return 0.0
        return sum(self.request_times_us) / len(self.request_times_us)


def snmp_agent_run(
    kernel: Any,
    mib_kind: str = "linear",
    mib_size: int = 400,
    requests: int = 25,
    profile_user: bool = True,
    names: Any = None,
) -> SnmpResult:
    """Run the SNMP agent answering *requests* GETs against its MIB.

    Pass the build's name table as *names* so the user tags land in the
    same concatenated file the analysis decodes with (the paper's
    workflow); omitted, a standalone user tag file is used.
    """
    entries = make_mib(mib_size)
    mib: Any = LinearMib(entries) if mib_kind == "linear" else BtreeMib(entries)
    # Deterministic query mix spread across the table.
    queries = [entries[(i * 37) % len(entries)][0] for i in range(requests)]
    image = UserImage.compile(
        f"snmpd-{mib_kind}",
        names if names is not None else kernel_names(kernel),
        (f"snmp_request_{mib_kind}", f"mib_search_{mib_kind}"),
    )
    state = {"hits": 0, "comparisons": 0, "times": []}

    def body(k, proc: Proc):
        from repro.kernel.vm.vm_glue import vmspace_exec

        vmspace_exec(k, proc, ExecImage(name="snmpd", text_pages=12, data_pages=6))
        if profile_user:
            fd = profdev_open(k, proc)
            prof_mmap(k, proc, fd)
        for oid in queries:
            t0 = k.now_us
            if profile_user:
                uenter(k, proc, image, f"snmp_request_{mib_kind}")
            yield from user_mode(k, REQUEST_OVERHEAD_US)
            if profile_user:
                uenter(k, proc, image, f"mib_search_{mib_kind}")
            value, comparisons = mib.lookup(oid)
            yield from user_mode(k, comparisons * COMPARE_US)
            if profile_user:
                uleave(k, proc, image, f"mib_search_{mib_kind}")
            state["comparisons"] += comparisons
            if value is not None:
                state["hits"] += 1
            if profile_user:
                uleave(k, proc, image, f"snmp_request_{mib_kind}")
            state["times"].append(k.now_us - t0)
        yield from syscall(k, proc, "exit", 0)

    start_us = kernel.now_us
    kernel.sched.spawn("snmpd", body)
    kernel.sched.run(until_ns=kernel.machine.now_ns + 600_000_000_000)
    return SnmpResult(
        requests=requests,
        hits=state["hits"],
        comparisons=state["comparisons"],
        elapsed_us=kernel.now_us - start_us,
        request_times_us=list(state["times"]),
    )


def kernel_names(kernel: Any):
    """The build's name table (user tags concatenate into it)."""
    table = getattr(kernel, "_user_names", None)
    if table is None:
        from repro.instrument.namefile import NameTable

        table = NameTable()
        table.seed(40_000)
        kernel._user_names = table
    return table
