"""The function-summary report (paper Figure 3 / Figure 5).

For each function: accumulated elapsed (inclusive) time, net time
("accumulated time minus the accumulated time of all subroutines that are
called from this function"), call count, max/avg/min per-call elapsed, and
the two percentages:

* ``% real`` — net time over the absolute elapsed time of the entire run;
* ``% net`` — net time over "the total time the processor was not sitting
  in the idle loop".

Headed by the overall accounting::

    Elapsed time = 0 sec 497272 us (28060 tags)
    Accumulated run time = 0 sec 492248 us (98.99%)
    Idle time = 0 sec 5024 us ( 1.01%)

Every summary the program prints comes from one engine, the
:class:`SummaryAccumulator` fold over columnar record batches.  It is a
single pass: each raw ``(time, tag)`` pair is unwrapped, decoded and
stepped once, and a context switch is resolved by looking ahead in the
batch rather than by buffering and replaying the scheduling block.  The
fold is also the program's one call reconstruction: entry/exit matching,
switch-in resolution and anomaly repair happen only there.  It adds up
every call into its caller->callee *arc*; the per-function summary is
the per-callee merge of the arcs, and the gprof report
(:func:`repro.analysis.gprof.gprof_from_fold`) is assembled from the
same arcs.  The call tree
(:func:`repro.analysis.callstack.build_call_tree`), the Chrome trace
(:class:`repro.analysis.chrome_trace.ChromeTraceWriter`) and the stream
lint pass (:func:`repro.lint.stream_lint.lint_records`) are
:class:`FoldRecorder` recordings of it.  :func:`summarize` gives the same
summary from a reconstructed call tree, for callers that hold one.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from itertools import chain, count, islice
from operator import sub
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from repro.analysis.columnar import (
    CODE_ENTRY as _ENTRY,
    CODE_EXIT as _EXIT,
    CODE_INLINE as _INLINE,
    ColumnarEvents,
    build_decode_map,
    check_snapshots,
)
from repro.analysis.events import _check_width
from repro.instrument.namefile import NameTable
from repro.profiler.capture import Capture
from repro.profiler.ram import RecordColumns
from repro.telemetry import TELEMETRY as _TELEMETRY

if TYPE_CHECKING:
    from repro.analysis.callstack import CallTreeAnalysis


@dataclasses.dataclass
class FunctionStats:
    """Aggregated statistics for one function."""

    name: str
    calls: int
    elapsed_us: int
    net_us: int
    max_us: int
    min_us: int

    @property
    def avg_us(self) -> int:
        """Mean per-call elapsed time (integer microseconds, as printed)."""
        if self.calls == 0:
            return 0
        return self.elapsed_us // self.calls


@dataclasses.dataclass
class ProfileSummary:
    """The complete summary: overall accounting plus per-function rows."""

    wall_us: int
    busy_us: int
    idle_us: int
    event_count: int
    functions: dict[str, FunctionStats]

    @property
    def busy_fraction(self) -> float:
        if self.wall_us == 0:
            return 0.0
        return self.busy_us / self.wall_us

    @property
    def idle_fraction(self) -> float:
        if self.wall_us == 0:
            return 0.0
        return self.idle_us / self.wall_us

    def rows(self) -> list[FunctionStats]:
        """Per-function rows sorted by net time, highest first — "sorted
        by highest to lowest net CPU usage"."""
        return sorted(
            self.functions.values(), key=lambda s: (-s.net_us, s.name)
        )

    def pct_real(self, stats: FunctionStats) -> float:
        """Net time as a share of the whole capture window."""
        if self.wall_us == 0:
            return 0.0
        return 100.0 * stats.net_us / self.wall_us

    def pct_net(self, stats: FunctionStats) -> float:
        """Net time as a share of non-idle CPU time."""
        if self.busy_us == 0:
            return 0.0
        return 100.0 * stats.net_us / self.busy_us

    def top(self, n: int = 10) -> list[FunctionStats]:
        """The *n* highest net-time functions."""
        return self.rows()[:n]

    def delta(self, older: "ProfileSummary") -> "ProfileSummary":
        """What happened *between* two snapshots of the same run.

        ``older`` must be an earlier snapshot (a
        :meth:`SummaryAccumulator.peek`) of the same accumulation this
        summary came from.  Calls, elapsed and net are monotone
        counters, so their per-function differences are exact; the
        per-call max/min extremes are not differenceable and carry the
        newer cumulative values.  Functions whose counters did not move
        are dropped — the rolling-window view of ``repro top``.
        """
        functions: dict[str, FunctionStats] = {}
        for name, stats in self.functions.items():
            old = older.functions.get(name)
            if old is None:
                functions[name] = dataclasses.replace(stats)
                continue
            calls = stats.calls - old.calls
            elapsed = stats.elapsed_us - old.elapsed_us
            net = stats.net_us - old.net_us
            if calls == 0 and elapsed == 0 and net == 0:
                continue
            functions[name] = FunctionStats(
                name=name,
                calls=calls,
                elapsed_us=elapsed,
                net_us=net,
                max_us=stats.max_us,
                min_us=stats.min_us,
            )
        return ProfileSummary(
            wall_us=self.wall_us - older.wall_us,
            busy_us=self.busy_us - older.busy_us,
            idle_us=self.idle_us - older.idle_us,
            event_count=self.event_count - older.event_count,
            functions=functions,
        )

    def get(self, name: str) -> Optional[FunctionStats]:
        """Stats for one function, or ``None`` if it never appeared."""
        return self.functions.get(name)

    def format(self, limit: Optional[int] = None) -> str:
        """Render the Figure 3 layout."""
        out: list[str] = []
        wall_s, wall_rem = divmod(self.wall_us, 1_000_000)
        busy_s, busy_rem = divmod(self.busy_us, 1_000_000)
        idle_s, idle_rem = divmod(self.idle_us, 1_000_000)
        out.append(
            f"Elapsed time = {wall_s} sec {wall_rem} us ({self.event_count} tags)"
        )
        out.append(
            f"Accumulated run time = {busy_s} sec {busy_rem} us "
            f"({100.0 * self.busy_fraction:.2f}%)"
        )
        out.append(
            f"Idle time = {idle_s} sec {idle_rem} us "
            f"({100.0 * self.idle_fraction:5.2f}%)"
        )
        out.append("-" * 72)
        out.append(
            f"{'Elapsed':>9} {'Net':>8} {'# calls':>9} {'(max/avg/min)':>17} "
            f"{'% real':>8} {'% net':>7}   name"
        )
        rows = self.rows()
        if limit is not None:
            rows = rows[:limit]
        for stats in rows:
            triple = f"({stats.max_us}/{stats.avg_us}/{stats.min_us})"
            out.append(
                f"{stats.elapsed_us:>9} {stats.net_us:>8} {stats.calls:>9} "
                f"{triple:>17} {self.pct_real(stats):>7.2f}% "
                f"{self.pct_net(stats):>6.2f}%   {stats.name}"
            )
        return "\n".join(out)


#: Sort keys for function rows: one vocabulary for ``repro top --sort``
#: and ``repro db query --sort``.
FUNCTION_SORTS: tuple[str, ...] = ("net", "elapsed", "calls", "pct-net", "pct-real", "name")


def sort_rows(summary: ProfileSummary, sort: str) -> list[FunctionStats]:
    """The summary's function rows under one of :data:`FUNCTION_SORTS`.

    Every numeric sort is descending with a name tiebreak, mirroring the
    database query's ``ORDER BY ... DESC, f.name ASC``.
    """
    rows = list(summary.functions.values())
    if sort == "net":
        rows.sort(key=lambda s: (-s.net_us, s.name))
    elif sort == "elapsed":
        rows.sort(key=lambda s: (-s.elapsed_us, s.name))
    elif sort == "calls":
        rows.sort(key=lambda s: (-s.calls, s.name))
    elif sort == "pct-net":
        rows.sort(key=lambda s: (-summary.pct_net(s), s.name))
    elif sort == "pct-real":
        rows.sort(key=lambda s: (-summary.pct_real(s), s.name))
    elif sort == "name":
        rows.sort(key=lambda s: s.name)
    else:
        raise ValueError(f"unknown sort {sort!r}; pick one of {'/'.join(FUNCTION_SORTS)}")
    return rows


# -- shared aggregation core -------------------------------------------------
#
# Both the call-tree walk and the fold (adding up each call into its arc as
# the frame closes) funnel per-call samples through these helpers, so the
# two produce identical statistics by construction.
# An aggregate is a plain list for speed: [calls, elapsed, net, max, min],
# with ``min`` held as ``None`` until the first *timed* call so that the
# result is independent of the order in which synthetic (zero-time) and real
# calls are folded in.  The fold's arcs are aggregates with more fields
# after these five.


def _new_agg() -> list:
    return [0, 0, 0, 0, None]


def _agg_call(agg: list, inclusive: int, net: int) -> None:
    agg[0] += 1
    agg[1] += inclusive
    agg[2] += net
    if inclusive > agg[3]:
        agg[3] = inclusive
    if agg[4] is None or inclusive < agg[4]:
        agg[4] = inclusive


def _agg_merge(agg: list, theirs: list) -> None:
    agg[0] += theirs[0]
    agg[1] += theirs[1]
    agg[2] += theirs[2]
    if theirs[3] > agg[3]:
        agg[3] = theirs[3]
    if theirs[4] is not None and (agg[4] is None or theirs[4] < agg[4]):
        agg[4] = theirs[4]


def _materialize(functions: dict[str, list]) -> dict[str, FunctionStats]:
    return {
        name: FunctionStats(
            name=name,
            calls=agg[0],
            elapsed_us=agg[1],
            net_us=agg[2],
            max_us=agg[3],
            min_us=agg[4] if agg[4] is not None else 0,
        )
        for name, agg in functions.items()
    }


def summarize(analysis: CallTreeAnalysis) -> ProfileSummary:
    """Aggregate a call-tree analysis into the function summary.

    The same summary the fold computes from the records, for callers that
    already hold the tree.  ``swtch`` (and any other ``!`` function) is
    left out: its self time is the idle loop, already reported in the
    header.
    """
    functions: dict[str, list] = {}
    for node in analysis.nodes():
        if node.is_swtch:
            continue
        agg = functions.setdefault(node.name, _new_agg())
        if node.synthetic:
            # A frame invented to absorb an unmatched exit has no reliable
            # timing; count the call but no time.
            agg[0] += 1
        else:
            _agg_call(agg, node.inclusive_us, node.self_us)
    return ProfileSummary(
        wall_us=analysis.wall_us,
        busy_us=analysis.busy_us,
        idle_us=analysis.idle_us,
        event_count=analysis.event_count,
        functions=_materialize(functions),
    )


# -- the fold ----------------------------------------------------------------


@dataclasses.dataclass
class Anomaly:
    """One repair the reconstruction had to make."""

    index: int
    time_us: int
    kind: str
    detail: str


class _ProcStack:
    """One process's state during the fold.

    Frames are plain lists ``[name, self_us, child_us, is_swtch, enter_us,
    arc]`` — the minimum needed to add a call up when it closes without
    retaining a tree node per call; ``arc`` is the caller->callee
    aggregate the call adds up into.  ``proc`` labels the stack in order
    of creation (``P0``, ``P1``, ...); ``root`` is the stream index of
    the entry that opened its current call tree; ``block_start_us`` is
    when its current scheduling block began and ``suspended_at_us`` when
    it was last switched out.
    """

    __slots__ = ("proc", "frames", "root", "block_start_us", "suspended_at_us")

    def __init__(self, proc: str) -> None:
        self.proc = proc
        self.frames: list[list] = []
        self.root = 0
        self.block_start_us = 0
        self.suspended_at_us = 0


#: Where a :class:`FoldRecorder` keeps the one item it appends to a frame,
#: after the fold's own six.
RECORDER_SLOT = 6

#: Caller name of a call tree's root (the top of an activity block).
SPONTANEOUS = "<spontaneous>"


class FoldRecorder:
    """An observer of the fold's reconstruction, step by step.

    The fold keeps only what the summary and gprof reports need.  A
    recorder attached as :attr:`SummaryAccumulator.recorder` before the
    first event is told every step of the same state machine and keeps
    what more it wants: the call tree of
    :func:`repro.analysis.callstack.build_call_tree`, the Chrome events of
    :class:`repro.analysis.chrome_trace.ChromeTraceWriter`, or the
    truncated frames lint reports.  *stack* is the process a step happened
    on (``stack.proc`` its label, ``stack.frames`` its open frames,
    innermost last, ``stack.root`` its current tree's root); a frame is
    the fold's ``[name, self_us, child_us, is_swtch, enter_us, arc]``
    list, to which a recorder may append one item of its own, read back as
    ``frame[RECORDER_SLOT]``.  Every hook does nothing by default.
    """

    def open_frame(self, stack: _ProcStack, frame: list) -> None:
        """An entry pushed *frame* onto *stack*."""

    def close_frame(
        self, stack: _ProcStack, frame: list, exit_us: int, truncated: bool
    ) -> None:
        """*frame* was popped off *stack* at *exit_us*, by its own exit or,
        when ``truncated``, administratively (a missed exit, or the end of
        the capture).  ``frame[1]`` is its final self time."""

    def synthetic_frame(
        self, stack: _ProcStack, name: str, exit_us: int, is_swtch: bool
    ) -> None:
        """An exit of *name* at *exit_us* matched no open frame of *stack*."""

    def mark(self, stack: _ProcStack, time_us: int, name: str) -> None:
        """An inline or unknown-tag point fired on *stack*."""


def _leaf_run(
    tags: Sequence[int], raw_times: Sequence[int], start: int, mask: int
) -> Optional[tuple[int, int, list]]:
    """The run of leaf pairs repeating the one that ends before *start*.

    ``tags[start - 2:start]`` is a leaf pair, an entry and its own exit;
    the run is every whole pair after it in the batch with the same two
    tags.  Returns ``(stop, gaps, calls)``: the batch position after the
    run's last exit, the time between the calls (the caller's own), and
    the calls as an aggregate (a leaf's net time is its inclusive time);
    or ``None`` when no whole pair repeats it.
    """
    n = len(tags)
    stop, size = start, 2
    # A record continues the run when it equals the one two places back:
    # double the stretch so checked until one differs or would pass the
    # batch's end, then halve back into it.
    while (
        stop + size <= n
        and tags[stop : stop + size] == tags[stop - 2 : stop + size - 2]
    ):
        stop += size
        size *= 2
    while size > 2:
        size //= 2
        if (
            stop + size <= n
            and tags[stop : stop + size] == tags[stop - 2 : stop + size - 2]
        ):
            stop += size
    if stop == start:
        return None
    entries = raw_times[start:stop:2]
    inclusives = list(map(sub, raw_times[start + 1 : stop : 2], entries))
    gaps = list(map(sub, entries, raw_times[start - 1 : stop - 1 : 2]))
    shortest = min(inclusives)
    if shortest < 0 or min(gaps) < 0:
        # The counter wrapped inside the run.
        inclusives = [d & mask for d in inclusives]
        gaps = [d & mask for d in gaps]
        shortest = min(inclusives)
    busy = sum(inclusives)
    return stop, sum(gaps), [len(inclusives), busy, busy, max(inclusives), shortest]


def _elapsed(raw_times: Iterable[int], previous: int, mask: int) -> int:
    """Microseconds from snapshot *previous* to the last of *raw_times*."""
    total = 0
    for raw in raw_times:
        total += (raw - previous) & mask
        previous = raw
    return total


class SummaryAccumulator:
    """Single-pass, bounded-memory call reconstruction and summary.

    The program's one reconstruction state machine, implementing the
    paper's rules (see :mod:`repro.analysis.callstack`): it matches
    entries with exits, splits the stream into per-process stacks at
    ``swtch``, resolves which suspended process resumes, and repairs what
    a lost exit or the capture window broke, recording every repair in
    :attr:`anomalies`.  Instead of materialising a tree node per call it
    keeps only the *open* frames and adds every frame into its
    caller->callee arc the moment it closes.  Peak memory is O(open call
    depth + suspended processes + one held scheduling block + arcs), not
    O(events) — which is what lets a million-event stream be summarised
    from a file iterator without ever holding the trace.  A
    :class:`FoldRecorder` attached as :attr:`recorder` sees every step and
    may keep more (the call tree, the Chrome trace).

    An arc is a list ``[calls, elapsed, net, max, min, root, seq, callees,
    is_swtch]``: the aggregate of the calls closed so far, then its
    preorder key — ``root`` the stream index of the root entry of the
    oldest call tree the arc appears in, ``seq`` the entry index of its
    first call there — then the callee's own arcs keyed by the name they
    lead to, and whether the callee is a context switch.  An entry finds
    its arc in its parent's ``callees`` (a tree root in the
    :data:`SPONTANEOUS` table), so the per-function summary
    (:meth:`summary`) and the gprof report
    (:func:`repro.analysis.gprof.gprof_from_fold`) are both read off the
    arcs.

    Every event is stepped once, straight off the raw ``(time, tag)``
    columns: the counter is unwrapped inline, each tag costs one
    decode-map lookup, and an exit of the innermost frame closes inline,
    a ``swtch`` exit's included.  With no recorder, an entry and its own
    exit in the next record (a *leaf pair*, most calls in a kernel trace)
    are one step and no frame, and the rest of a run of the same leaf
    pair back to back (a per-page loop) is one step more.  Switch-in
    resolution (which suspended process resumes after a ``swtch`` exit)
    needs the incoming block, so at a context-switch exit the fold scans
    ahead in the batch's tags until the block names its process, then
    keeps stepping in place.
    Only when that scan runs off the end of the batch are the rest of the
    batch's events held; the next batch continues the scan where it
    stopped, so no event is scanned twice, and :meth:`close` resolves a
    tail still held as the end of the stream.  A scheduling block is
    bounded by the capture hardware (at most one RAM of events between
    switches in practice), so the held tail does not grow with trace
    length.

    Accumulators of independent captures combine with :meth:`merge`.  The
    fold's summaries, trees and anomalies equal those of the standalone
    reference reconstruction in ``tests/oracles.py``, fed whole and in
    batches (property-tested in ``tests/test_decode_differential.py`` and
    ``tests/test_streaming_pipeline.py``).
    """

    def __init__(self, names: NameTable, *, width_bits: int = 24) -> None:
        _check_width(width_bits)
        self._decode_map = build_decode_map(names)
        self._width_bits = width_bits
        self._mask = (1 << width_bits) - 1
        #: The :class:`FoldRecorder` told every step, if any.
        self.recorder: Optional[FoldRecorder] = None

        #: Caller name -> callee name -> arc, for every function entered.
        self._arcs: dict[str, dict[str, list]] = {SPONTANEOUS: {}}
        #: Name -> calls synthesised for unmatched (non-switch) exits.
        self._synthetic: dict[str, int] = {}
        self.anomalies: list[Anomaly] = []
        self._idle_us = 0
        self._unattributed_us = 0
        self._event_count = 0
        self._context_switches = 0
        #: Runs of identical leaf pairs added up in one step, and the calls
        #: those steps added up (the pair opening each run not counted).
        self._leaf_runs = 0
        self._leaf_run_calls = 0

        self._current = _ProcStack("P0")
        #: Switched-out stacks, least recently suspended first.
        self._suspended: list[_ProcStack] = []
        self._procs = 1
        #: High-water marks, read out into telemetry at close().
        self._peak_suspended = 0
        self._peak_held = 0
        #: Events after a context-switch exit whose block had not named
        #: its process by the end of their batch: ``(raw times, tags,
        #: index of the first, wrap mask)``, or ``None``.  The switch-in
        #: scan stopped at depth ``_scan_depth`` past the last of them.
        self._held: Optional[tuple[list[int], list[int], int, int]] = None
        self._scan_depth = 0

        # Unwrap carry: the last stepped event's raw snapshot and absolute
        # time, and the index of the next event fed.
        self._prev_raw: Optional[int] = None
        self._prev_t = 0
        self._next_index = 0

        self._first_t: Optional[int] = None
        #: Absolute time of the last event fed, held ones included.
        self._last_t = 0

        self._sealed = False
        self._wall_us = 0
        self._summary: Optional[ProfileSummary] = None

    # -- feeding -------------------------------------------------------------

    def feed_columns(self, columns: RecordColumns) -> "SummaryAccumulator":
        """Fold one columnar record batch in.

        The raw ``(time, tag)`` pairs are stepped as they are: the
        counter wrap, the running time and the event indices carry
        across calls.  The whole batch is checked against the counter
        width first, so a batch holding a snapshot wider than the counter
        raises :class:`ValueError` and leaves the fold as it was before
        the call.
        """
        check_snapshots(columns.times, self._width_bits)
        self._feed(columns.times, columns.tags, self._mask)
        return self

    def feed_events(self, events: ColumnarEvents) -> "SummaryAccumulator":
        """Step one decoded batch: its absolute times and its tags.

        An absolute time is a snapshot of a counter that never wraps, so
        the batch runs through the same loop as :meth:`feed_columns` with
        an all-ones wrap mask; the timeline keeps the batch's own origin.
        An accumulator is fed either decoded batches or record batches,
        not both.
        """
        times = events.times
        if times and self._prev_raw is None:
            self._prev_raw = self._prev_t = times[0]
        self._feed(times, events.tags, -1)
        return self

    def _feed(self, raw_times: Sequence[int], tags: Sequence[int], mask: int) -> None:
        """Step one batch of snapshots wrapping under *mask*, after any
        held tail whose switch-in the batch resolves."""
        if self._sealed:
            raise RuntimeError("cannot feed a sealed SummaryAccumulator")
        n = len(raw_times)
        if n == 0:
            return
        index = self._next_index
        self._next_index = index + n
        self._event_count += n
        if self._first_t is None:
            if self._prev_raw is None:
                self._prev_raw = raw_times[0]
            self._first_t = self._current.block_start_us = self._prev_t
        if self._held is not None:
            held_times, held_tags, index, _ = self._held
            previous = held_times[-1] if held_times else self._prev_raw
            scanned = len(held_tags)
            held_times.extend(raw_times)
            held_tags.extend(tags)
            if not self._switch_in(held_tags, scanned, self._scan_depth):
                self._last_t += _elapsed(raw_times, previous, mask)
                self._peak_held = max(self._peak_held, len(held_tags))
                return
            self._held = None
            raw_times, tags = held_times, held_tags
        self._step(raw_times, tags, index, mask)
        if self._held is not None:
            self._peak_held = max(self._peak_held, len(self._held[0]))

    # -- the state machine ----------------------------------------------------

    def _step(
        self, raw_times: Sequence[int], tags: Sequence[int], index: int, mask: int
    ) -> None:
        """Apply events to the state machine: the fold's one per-event loop.

        *raw_times* and *tags* are a batch's columns, *index* the stream
        index of their first event; every snapshot is unwrapped against
        the last stepped one.  With no recorder to need a frame, an entry
        whose next tag is its own exit (``tag + 1``: a name table gives
        that value to no other function) steps both records as one call,
        and when the record after that exit enters the same function
        again, the whole pairs of that run left in the batch are added
        up in one more step (:func:`_leaf_run`).
        A ``swtch`` call closed so or by its exit, or a ``swtch`` exit
        :meth:`_slow_exit` repairs, suspends the stack and resolves its
        switch-in by scanning *tags* from after the exit
        (:meth:`_switch_in`); when the scan runs off the end, the rest
        of the batch is held.
        """
        spontaneous = self._arcs[SPONTANEOUS]
        recorder = self.recorder
        decode = self._decode_map
        suspended = self._suspended
        current = self._current
        frames = current.frames
        root = current.root
        previous = self._prev_raw
        t = self._prev_t
        unattributed = self._unattributed_us
        held_from = None
        # i is the event's stream index; every event sees the next one's
        # tag, and -1 past the batch's end.
        events = zip(
            count(index), raw_times, tags, chain(islice(tags, 1, None), (-1,))
        )
        for i, raw, tag, next_tag in events:
            # 1. Unwrap, and attribute the elapsed interval to the
            # innermost active frame.
            dt = (raw - previous) & mask
            previous = raw
            t += dt
            if frames:
                frames[-1][1] += dt
            else:
                unattributed += dt

            # 2. Apply the event.
            code, name, _, is_cs = decode[tag]
            if code == _ENTRY:
                if frames:
                    callees = frames[-1][5][7]
                else:
                    callees = spontaneous
                    root = current.root = i
                try:
                    arc = callees[name]
                    if root < arc[5]:
                        # The first call of this arc in an older tree.
                        arc[5] = root
                        arc[6] = i
                except KeyError:
                    arc = self._new_arc(callees, name, is_cs, root, i)
                if next_tag != tag + 1 or recorder is not None:
                    frame = [name, 0, 0, is_cs, t, arc]
                    frames.append(frame)
                    if recorder is not None:
                        recorder.open_frame(current, frame)
                    continue
                # A leaf pair: the next record is this call's own exit, so
                # step it now; its interval is the call's whole time.
                i, raw, _, next_tag = next(events)
                net = inclusive = (raw - previous) & mask
                previous = raw
                t += net
                if frames:
                    frames[-1][2] += net
                if next_tag == tag and not is_cs:
                    # The same call again, as in a per-page loop: add up
                    # every whole pair of the run left in the batch at once.
                    start = i + 1 - index
                    run = _leaf_run(tags, raw_times, start, mask)
                    if run is not None:
                        stop, gaps, calls = run
                        if frames:
                            caller = frames[-1]
                            caller[1] += gaps
                            caller[2] += calls[1]
                        else:
                            unattributed += gaps
                            # Each call is a tree root; the last is current.
                            root = current.root = index + stop - 2
                        _agg_merge(arc, calls)
                        t += gaps + calls[1]
                        i, previous, _, _ = next(
                            islice(events, stop - start - 1, None)
                        )
                        self._leaf_runs += 1
                        self._leaf_run_calls += calls[0]
            elif code == _EXIT:
                if frames and frames[-1][0] == name:
                    # A matched exit of the innermost frame, a context
                    # switch's included (a frame's name fixes whether it
                    # is one).
                    frame = frames.pop()
                    net = frame[1]
                    inclusive = net + frame[2]
                    if frames:
                        frames[-1][2] += inclusive
                    arc = frame[5]
                else:
                    self._slow_exit(name, is_cs, t, i)
                    if not is_cs:
                        continue
                    arc = None  # _close_frame has added up the call
            elif code == _INLINE:
                if recorder is not None:
                    recorder.mark(current, t, name)
                continue
            else:  # a tag no name file knows
                self.anomalies.append(
                    Anomaly(
                        index=i,
                        time_us=t,
                        kind="unknown-tag",
                        detail=f"tag {tag} is in no name file",
                    )
                )
                if recorder is not None:
                    recorder.mark(current, t, name)
                continue

            # 3. A closed call (a leaf pair or a matched exit) adds up into
            # its arc as _agg_call does, inline.
            if arc is not None:
                arc[0] += 1
                arc[1] += inclusive
                arc[2] += net
                if inclusive > arc[3]:
                    arc[3] = inclusive
                if arc[4] is None or inclusive < arc[4]:
                    arc[4] = inclusive
                if recorder is not None:
                    recorder.close_frame(current, frame, t, False)
                if not is_cs:
                    continue
                self._idle_us += net  # a switch's self time is the idle loop
            # 4. A context switch, by any path: suspend this stack and
            # resume the one the next block names.
            self._context_switches += 1
            current.suspended_at_us = t
            suspended.append(current)
            if len(suspended) > self._peak_suspended:
                self._peak_suspended = len(suspended)
            after = i + 1 - index  # the next event's place in the batch
            if not self._switch_in(tags, after, 0):
                held_from = after
                break
            current = self._current
            frames = current.frames
            root = current.root
        self._prev_raw = previous
        self._prev_t = self._last_t = t
        self._unattributed_us = unattributed
        if held_from is not None:
            held_times = list(islice(raw_times, held_from, None))
            self._held = (
                held_times,
                list(islice(tags, held_from, None)),
                index + held_from,
                mask,
            )
            self._last_t += _elapsed(held_times, previous, mask)

    def _new_arc(
        self, callees: dict[str, list], name: str, is_cs: bool, root: int, seq: int
    ) -> list:
        """A caller->callee arc with no call yet, entered in the caller's
        *callees* under the callee's *name*."""
        arc = callees[name] = [
            0, 0, 0, 0, None, root, seq, self._arcs.setdefault(name, {}), is_cs
        ]
        return arc

    def _slow_exit(self, name: str, is_cs: bool, t: int, index: int) -> None:
        """Repair an exit that does not match the innermost frame: close
        through to its frame if one is open (the frames above it missed
        their exits), or count it as unmatched.  :meth:`_step` suspends
        the stack after a context switch's exit, matched or not."""
        current = self._current
        if any(frame[0] == name for frame in current.frames):
            self._close_through(name, t, index)
        else:
            if is_cs:
                kind = "unmatched-swtch-exit"
                detail = "context-switch exit with no open swtch frame"
            else:
                self._synthetic[name] = self._synthetic.get(name, 0) + 1
                kind = "unmatched-exit"
                detail = (
                    f"exit of {name!r} with no matching entry "
                    "(function was already running when the capture began?)"
                )
            self.anomalies.append(
                Anomaly(index=index, time_us=t, kind=kind, detail=detail)
            )
            if self.recorder is not None:
                self.recorder.synthetic_frame(current, name, t, is_cs)

    def _close_frame(self, stack: _ProcStack, t: int, truncated: bool) -> list:
        frames = stack.frames
        frame = frames.pop()
        inclusive = frame[1] + frame[2]
        if frames:
            frames[-1][2] += inclusive
        if frame[3]:
            self._idle_us += frame[1]
        _agg_call(frame[5], inclusive, frame[1])
        if self.recorder is not None:
            self.recorder.close_frame(stack, frame, t, truncated)
        return frame

    def _close_through(self, name: str, t: int, index: int) -> None:
        """Close frames down to (and including) the one named *name*."""
        current = self._current
        frames = current.frames
        while frames and frames[-1][0] != name:
            skipped = self._close_frame(current, t, True)
            self.anomalies.append(
                Anomaly(
                    index=index,
                    time_us=t,
                    kind="missed-exit",
                    detail=(
                        f"exit of {name!r} arrived while {skipped[0]!r} "
                        "was still open; closed it administratively"
                    ),
                )
            )
        if frames:
            self._close_frame(current, t, False)

    def _switch_in(self, tags: Sequence[int], start: int, depth: int) -> bool:
        """Switch-in resolution: which suspended stack does the block that
        follows the latest context-switch exit belong to?

        The event stream carries no process identifier, so after a
        ``swtch`` exit the fold must decide which saved stack resumes.
        The block's tags are scanned forward from *start* with a depth
        counter (at *depth* so far); entries open new frames, exits first
        unwind those.  The scan resolves at whichever comes first:

        1. an exit of function X that unwinds *below* the block's opening
           depth — it names a frame the resumed process was suspended
           inside: resume the least recently suspended stack whose top
           open frame is X;
        2. the block's closing ``swtch`` entry — the process never
           returned into pre-existing frames: resume the least recently
           suspended *empty* stack (a process that was in user mode).

        If no stack matches, a process not seen before starts a fresh
        stack.  Returns ``False``, keeping the depth in ``_scan_depth``,
        when the scan runs off the end of *tags* unresolved.
        """
        decode = self._decode_map
        for position in range(start, len(tags)):
            code, name, _, is_cs = decode[tags[position]]
            if code == _ENTRY:
                if is_cs:
                    self._resume(None)
                    return True
                depth += 1
            elif code == _EXIT:
                if depth:
                    depth -= 1
                else:
                    self._resume(name)
                    return True
        self._scan_depth = depth
        return False

    def _resume(self, unwound: Optional[str]) -> None:
        """Switch in the least recently suspended stack whose top frame is
        *unwound* (an empty stack when ``None``), or a fresh one."""
        suspended = self._suspended
        # The block began at the switch-out that opened it, the most
        # recent suspension.
        switched_at = suspended[-1].suspended_at_us
        for stack in suspended:
            frames = stack.frames
            if (frames[-1][0] == unwound) if frames else unwound is None:
                suspended.remove(stack)
                break
        else:
            stack = _ProcStack(f"P{self._procs}")
            self._procs += 1
        stack.block_start_us = switched_at
        self._current = stack

    # -- sealing, merging, reporting ------------------------------------------

    def close(self) -> "SummaryAccumulator":
        """Seal the accumulator: resolve a held tail as the end of the
        stream, and close every frame still open (capture window
        truncation) — the current process's at the last event, a
        suspended one's where it was switched out.  Idempotent."""
        if self._sealed:
            return self
        while self._held is not None:
            raw_times, tags, index, mask = self._held
            self._held = None
            # The stream ended before the block named its process.
            self._resume(None)
            self._step(raw_times, tags, index, mask)
        for stack in [self._current, *self._suspended]:
            exit_us = self._last_t if stack is self._current else stack.suspended_at_us
            while stack.frames:
                self._close_frame(stack, exit_us, True)
        self._wall_us = (self._last_t - self._first_t) if self._first_t is not None else 0
        self._sealed = True
        if _TELEMETRY.enabled:
            _TELEMETRY.max_gauge("analysis.peak.pending_block", self._peak_held)
            _TELEMETRY.max_gauge("analysis.peak.suspended_procs", self._peak_suspended)
            # Every function entered has a table of the arcs out of it.
            _TELEMETRY.max_gauge("analysis.peak.functions", len(self._arcs) - 1)
            for kind, n in Counter(a.kind for a in self.anomalies).items():
                _TELEMETRY.count("analysis.anomalies", n, kind=kind)
            _TELEMETRY.count("analysis.unattributed_us", self._unattributed_us)
            _TELEMETRY.count("analysis.leaf_runs", self._leaf_runs)
            _TELEMETRY.count("analysis.leaf_run_calls", self._leaf_run_calls)
        return self

    def merge(self, other: "SummaryAccumulator") -> "SummaryAccumulator":
        """Fold another capture's totals into this one (the fleet merge).

        Arcs, synthetic calls, the accounting and the anomalies add up;
        nothing carries across the boundary between the two captures, and
        the other capture's arcs come after this one's in preorder.  Seals
        both accumulators.
        """
        self.close()
        other.close()
        offset = self._event_count
        for caller, theirs in other._arcs.items():
            callees = self._arcs.setdefault(caller, {})
            for name, arc in theirs.items():
                mine = callees.get(name)
                if mine is None:
                    mine = self._new_arc(
                        callees, name, arc[8], arc[5] + offset, arc[6] + offset
                    )
                _agg_merge(mine, arc)
        for name, calls in other._synthetic.items():
            self._synthetic[name] = self._synthetic.get(name, 0) + calls
        self._wall_us += other._wall_us
        self._idle_us += other._idle_us
        self._unattributed_us += other._unattributed_us
        self._event_count += other._event_count
        self._context_switches += other._context_switches
        self.anomalies.extend(other.anomalies)
        self._summary = None
        return self

    def summary(self) -> ProfileSummary:
        """The :class:`ProfileSummary` of everything folded in (seals)."""
        self.close()
        if self._summary is None:
            self._summary = ProfileSummary(
                wall_us=self._wall_us,
                busy_us=self._wall_us - self._idle_us,
                idle_us=self._idle_us,
                event_count=self._event_count,
                functions=self._functions(),
            )
        return self._summary

    def peek(self) -> ProfileSummary:
        """A point-in-time summary of everything folded in so far.

        Unlike :meth:`summary` this does **not** seal: open frames, a
        held tail and the timer-unwrap state are left untouched, so
        feeding can continue and the eventual sealed summary is
        byte-identical to one that was never peeked at.  Only *closed*
        calls appear (an open frame's time is attributed when it exits,
        exactly as the batch analyser would at that point); the header's
        event count and elapsed time cover every event fed, held ones
        included — the live `repro top` view and the windowed rolling
        summaries are built from this.
        """
        if self._sealed:
            return self.summary()
        wall = (self._last_t - self._first_t) if self._first_t is not None else 0
        return ProfileSummary(
            wall_us=wall,
            busy_us=wall - self._idle_us,
            idle_us=self._idle_us,
            event_count=self._event_count,
            functions=self._functions(),
        )

    def _functions(self) -> dict[str, FunctionStats]:
        """The per-function rows: each callee's arcs merged, context
        switches left out (their self time is the header's idle time),
        plus its synthetic calls.  An arc whose calls are all still open
        adds nothing."""
        functions: dict[str, list] = {}
        for callees in self._arcs.values():
            for name, arc in callees.items():
                if arc[0] and not arc[8]:
                    _agg_merge(functions.setdefault(name, _new_agg()), arc)
        for name, calls in self._synthetic.items():
            functions.setdefault(name, _new_agg())[0] += calls
        return _materialize(functions)

    def arcs(self) -> Iterator[tuple[tuple[int, int], str, str, int, int, int]]:
        """Every caller->callee arc with a closed call, as ``(key, caller,
        callee, calls, inclusive_us, net_us)``, context switches included.

        Sorting by *key* puts arcs in the order a preorder walk of the
        call forest first meets them (a tree root's caller is
        :data:`SPONTANEOUS`); no two arcs share a key.
        """
        for caller, callees in self._arcs.items():
            for name, arc in callees.items():
                if arc[0]:
                    yield (arc[5], arc[6]), caller, name, arc[0], arc[1], arc[2]

    @property
    def event_count(self) -> int:
        return self._event_count

    @property
    def context_switches(self) -> int:
        return self._context_switches

    @property
    def unattributed_us(self) -> int:
        return self._unattributed_us

    @property
    def procs(self) -> tuple[str, ...]:
        """Labels of the processes told apart so far, in order of appearance."""
        return tuple(f"P{i}" for i in range(self._procs))


def fold_columns(
    batches: Iterable[RecordColumns],
    names: NameTable,
    width_bits: int = 24,
    recorder: Optional[FoldRecorder] = None,
) -> SummaryAccumulator:
    """Fold a columnar batch stream into a new accumulator.

    *batches* is any iterable of :class:`RecordColumns`, typically
    :func:`repro.profiler.upload.iter_capture_columns` draining a capture
    file.  *recorder*, if given, records the fold from the first event.
    The accumulator is returned unsealed: its :meth:`summary` and
    :attr:`anomalies` are the run's report.
    """
    accumulator = SummaryAccumulator(names, width_bits=width_bits)
    accumulator.recorder = recorder
    telemetry = _TELEMETRY
    started = time.perf_counter() if telemetry.enabled else 0.0
    with telemetry.span("analysis.fold"):
        for batch in batches:
            accumulator.feed_columns(batch)
    if telemetry.enabled:
        elapsed = time.perf_counter() - started
        if elapsed > 0:
            telemetry.set_gauge(
                "analysis.events_per_sec", accumulator.event_count / elapsed
            )
    return accumulator


def summarize_columns(
    batches: Iterable[RecordColumns],
    names: NameTable,
    width_bits: int = 24,
) -> ProfileSummary:
    """One-call summary of a columnar batch stream (see :func:`fold_columns`)."""
    return fold_columns(batches, names, width_bits=width_bits).summary()


def fold_capture(
    capture: Capture, recorder: Optional[FoldRecorder] = None
) -> SummaryAccumulator:
    """Fold an in-memory *capture* (see :func:`fold_columns`)."""
    return fold_columns(
        [capture.records],
        capture.names,
        width_bits=capture.counter_width_bits,
        recorder=recorder,
    )


def summarize_capture(capture: Capture) -> ProfileSummary:
    """The summary of an in-memory *capture*."""
    return fold_capture(capture).summary()
