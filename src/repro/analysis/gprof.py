"""A gprof-style caller/callee report from exact trace data.

The era's standard profiling report, rebuilt over the Profiler's *exact*
call records — where real gprof has to apportion time by statistical
assumption ("a function's time is divided among its callers in
proportion to call counts"), the capture knows precisely which caller's
invocation cost what.  This is part of the paper's future-work plan for
"sophisticated tools that allow statistical processing of the data".

The report is aggregated in one place, :class:`GprofRecorder`: a
recorder on the summary fold that adds up every call as its frame
closes, so ``analyze --report gprof`` folds the capture file once, in
O(open frames + functions + arcs) memory, without a call tree.
:func:`gprof_report` feeds the same aggregation from a call tree, for
callers that already hold one.  Either way entries and arcs keep the
order in which a preorder walk of the call forest first meets them,
which breaks the report's ties.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any

from repro.analysis.summary import PreorderRecorder, SummaryAccumulator

if TYPE_CHECKING:
    from repro.analysis.callstack import CallTreeAnalysis


@dataclasses.dataclass
class ArcStats:
    """One caller->callee arc, exact (not apportioned)."""

    caller: str
    callee: str
    calls: int = 0
    inclusive_us: int = 0


@dataclasses.dataclass
class GprofEntry:
    """One function's section of the report."""

    name: str
    calls: int
    net_us: int
    inclusive_us: int
    callers: list[ArcStats]
    callees: list[ArcStats]


class GprofReport:
    """The assembled caller/callee report."""

    def __init__(self, entries: dict[str, GprofEntry], wall_us: int) -> None:
        self.entries = entries
        self.wall_us = wall_us

    def entry(self, name: str) -> GprofEntry:
        return self.entries[name]

    def ordered(self) -> list[GprofEntry]:
        """Entries by net time, heaviest first."""
        return sorted(self.entries.values(), key=lambda e: -e.net_us)

    def format(self, limit: int = 10, arcs: int = 4) -> str:
        """Render the classic three-band sections."""
        out: list[str] = []
        for entry in self.ordered()[:limit]:
            out.append("-" * 68)
            for arc in sorted(entry.callers, key=lambda a: -a.inclusive_us)[:arcs]:
                out.append(
                    f"        {arc.inclusive_us:>10} us  {arc.calls:>7}/"
                    f"{entry.calls:<7}    {arc.caller}"
                )
            pct = 100 * entry.net_us / self.wall_us if self.wall_us else 0.0
            out.append(
                f"[{pct:5.1f}%] {entry.inclusive_us:>10} us  {entry.calls:>7} "
                f"calls    {entry.name}  (net {entry.net_us} us)"
            )
            for arc in sorted(entry.callees, key=lambda a: -a.inclusive_us)[:arcs]:
                out.append(
                    f"        {arc.inclusive_us:>10} us  {arc.calls:>7}        "
                    f"    {arc.callee}"
                )
        return "\n".join(out)


#: Caller name used for frames with no parent (top of an activity block).
SPONTANEOUS = "<spontaneous>"


class GprofRecorder(PreorderRecorder):
    """The gprof aggregation: per-function calls, net and inclusive time,
    and exact caller->callee arcs, added up call by call.

    Attached as a fold's :attr:`~SummaryAccumulator.recorder` it sees
    every real call close (synthetic frames count in no gprof entry) and
    :meth:`report` assembles the report.  Each call carries its preorder
    key (:class:`~repro.analysis.summary.PreorderRecorder`), which orders
    the report's entries and arcs.
    """

    def __init__(self) -> None:
        super().__init__()
        #: name -> [key, calls, net_us, inclusive_us, {caller: [key, calls, inclusive_us]}],
        #: each key the least of the calls added under it.
        self._functions: dict[str, list] = {}

    def close_frame(self, stack, frame: list, exit_us: int, truncated: bool) -> None:
        frames = stack.frames
        self.add_call(
            frame[0],
            frames[-1][0] if frames else SPONTANEOUS,
            frame[1],
            frame[1] + frame[2],
            frame[5],
        )

    def add_call(
        self, name: str, caller: str, net_us: int, inclusive_us: int, key: Any
    ) -> None:
        """Count one call of *name* from *caller*; *key* is its preorder key."""
        agg = self._functions.get(name)
        if agg is None:
            self._functions[name] = [
                key, 1, net_us, inclusive_us, {caller: [key, 1, inclusive_us]}
            ]
            return
        if key < agg[0]:
            agg[0] = key
        agg[1] += 1
        agg[2] += net_us
        agg[3] += inclusive_us
        arc = agg[4].get(caller)
        if arc is None:
            agg[4][caller] = [key, 1, inclusive_us]
            return
        if key < arc[0]:
            arc[0] = key
        arc[1] += 1
        arc[2] += inclusive_us

    def report(self, fold: SummaryAccumulator) -> GprofReport:
        """The report of everything *fold* closed (seals it)."""
        return self._assemble(fold.summary().wall_us)

    def _assemble(self, wall_us: int) -> GprofReport:
        entries: dict[str, GprofEntry] = {}
        arcs: list[tuple[Any, ArcStats]] = []
        ranked = sorted(self._functions.items(), key=lambda item: item[1][0])
        for name, (_, calls, net, inclusive, callers) in ranked:
            entries[name] = GprofEntry(
                name=name,
                calls=calls,
                net_us=net,
                inclusive_us=inclusive,
                callers=[],
                callees=[],
            )
            for caller, (key, arc_calls, arc_inclusive) in callers.items():
                arcs.append((key, ArcStats(caller, name, arc_calls, arc_inclusive)))
        arcs.sort(key=lambda pair: pair[0])
        for _, arc in arcs:
            entries[arc.callee].callers.append(arc)
            caller_entry = entries.get(arc.caller)
            if caller_entry is not None:
                caller_entry.callees.append(arc)
        return GprofReport(entries=entries, wall_us=wall_us)


def gprof_report(analysis: CallTreeAnalysis) -> GprofReport:
    """Build the caller/callee report from a reconstructed call forest.

    One iterative preorder pass feeds :class:`GprofRecorder`'s
    aggregation, keyed by preorder position.
    """
    recorder = GprofRecorder()
    pending = [(root, SPONTANEOUS) for root in reversed(analysis.roots)]
    key = 0
    while pending:
        node, caller = pending.pop()
        if not node.synthetic:
            recorder.add_call(node.name, caller, node.self_us, node.inclusive_us, key)
            key += 1
        pending.extend((child, node.name) for child in reversed(node.children))
    return recorder._assemble(analysis.wall_us)
