"""A gprof-style caller/callee report from exact trace data.

The era's standard profiling report, rebuilt over the Profiler's *exact*
call records — where real gprof has to apportion time by statistical
assumption ("a function's time is divided among its callers in
proportion to call counts"), the capture knows precisely which caller's
invocation cost what.  This is part of the paper's future-work plan for
"sophisticated tools that allow statistical processing of the data".

The summary fold adds up every call into its exact caller->callee arc
(:class:`repro.analysis.summary.SummaryAccumulator`), and the report is
assembled from those arcs in one place, :func:`gprof_from_fold`: no
recorder rides the fold, so ``analyze --report gprof`` costs what a
summary costs and reads the capture file once, in O(open frames + arcs)
memory, without a call tree.  :func:`gprof_report` reads the arcs of the
fold that recorded a call tree, for callers that hold one.  Either way
entries and arcs keep the order in which a preorder walk of the call
forest first meets them, which breaks the report's ties.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.analysis.summary import SummaryAccumulator

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


def gprof_from_fold(fold: SummaryAccumulator) -> GprofReport:
    """The report of the arcs *fold* added up (seals it).

    An entry's calls, net and inclusive time are its arcs' sums, context
    switches included; synthetic frames hold no real call and count
    nowhere.  Entries and arcs are ordered by their least preorder key.
    """
    wall_us = fold.summary().wall_us
    arcs = sorted(fold.arcs())
    entries: dict[str, GprofEntry] = {}
    for _, _, callee, calls, inclusive, net in arcs:
        entry = entries.get(callee)
        if entry is None:
            entries[callee] = GprofEntry(callee, calls, net, inclusive, [], [])
        else:
            entry.calls += calls
            entry.net_us += net
            entry.inclusive_us += inclusive
    for _, caller, callee, calls, inclusive, _ in arcs:
        arc = ArcStats(caller, callee, calls, inclusive)
        entries[callee].callers.append(arc)
        caller_entry = entries.get(caller)
        if caller_entry is not None:
            caller_entry.callees.append(arc)
    return GprofReport(entries=entries, wall_us=wall_us)


def gprof_report(analysis: CallTreeAnalysis) -> GprofReport:
    """The report of a call tree built by
    :func:`~repro.analysis.callstack.build_call_tree`: the arcs of the
    fold that recorded it."""
    return gprof_from_fold(analysis.fold)
