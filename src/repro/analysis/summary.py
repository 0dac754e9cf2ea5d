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
stepped at most once (the repeats of a call in a loop are added up
together), and a context switch is resolved as the incoming block is
stepped (when no suspended process is inside a call) or by looking
ahead in the batch, never by buffering and replaying the block.  The
fold is also the program's one call reconstruction: entry/exit matching,
switch-in resolution and anomaly repair happen only there.  It adds up
every call into its caller->callee *arc*; the per-function summary is
the per-callee merge of the arcs, and the gprof report
(:func:`repro.analysis.gprof.gprof_from_fold`) is assembled from the
same arcs.  The call tree
(:func:`repro.analysis.callstack.build_call_tree`) and the Chrome trace
(:class:`repro.analysis.chrome_trace.ChromeTraceWriter`) are
:class:`FoldRecorder` recordings of it, and :func:`summarize` reads a
call tree's summary off the fold that recorded it.  The stream lint pass
(:func:`repro.lint.stream_lint.lint_records`) reads the fold itself: its
anomalies and the frames still open at the end of the capture
(:attr:`SummaryAccumulator.open_at_end`).
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import chain, compress, count, islice
from operator import gt, le, sub
from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    MutableSequence,
    NamedTuple,
    Optional,
    Sequence,
)

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
from repro.profiler.ram import RecordColumns
from repro.telemetry import TELEMETRY as _TELEMETRY

if TYPE_CHECKING:
    from repro.analysis.callstack import CallTreeAnalysis
    from repro.profiler.capture import Capture


class FunctionStats(NamedTuple):
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


class ProfileSummary(NamedTuple):
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
                functions[name] = stats
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


# -- aggregation core ---------------------------------------------------------
#
# The fold adds up each call into its arc as the frame closes, and merges
# arcs into per-function rows, through these helpers.
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
    """The function summary of a call tree: the summary of the fold that
    recorded it (:attr:`~repro.analysis.callstack.CallTreeAnalysis.fold`),
    which added up every call as the tree was built."""
    return analysis.fold.summary()


# -- the fold ----------------------------------------------------------------


class Anomaly(NamedTuple):
    """One repair the reconstruction had to make."""

    index: int
    time_us: int
    kind: str
    detail: str


class _ProcStack:
    """One process's state during the fold.

    Frames are plain lists ``[name, self_us, child_us, is_swtch, enter_us,
    arc, entered]`` — the minimum needed to add a call up when it closes
    without retaining a tree node per call; ``arc`` is the caller->callee
    aggregate the call adds up into, and ``entered`` the stream index of
    its entry, where a repeat of the call would begin.  ``proc`` labels
    the stack in order of creation (``P0``, ``P1``, ...); ``root`` is the
    stream index of the entry that opened its current call tree;
    ``block_start_us`` is when its current scheduling block began and
    ``suspended_at_us`` when it was last switched out.
    """

    __slots__ = ("proc", "frames", "root", "block_start_us", "suspended_at_us")

    def __init__(self, proc: str) -> None:
        self.proc = proc
        self.frames: list[list] = []
        self.root = 0
        self.block_start_us = 0
        self.suspended_at_us = 0


#: Where a :class:`FoldRecorder` keeps the one item it appends to a frame,
#: after the fold's own seven.
RECORDER_SLOT = 7

#: Caller name of a call tree's root (the top of an activity block).
SPONTANEOUS = "<spontaneous>"


class FoldRecorder:
    """An observer of the fold's reconstruction, step by step.

    The fold keeps only what the summary and gprof reports need.  A
    recorder attached as :attr:`SummaryAccumulator.recorder` before the
    first event is told every step of the same state machine and keeps
    what more it wants: the call tree of
    :func:`repro.analysis.callstack.build_call_tree` or the Chrome events
    of :class:`repro.analysis.chrome_trace.ChromeTraceWriter`.  It turns
    off the pair step, the run step and the eager switch-in, which step
    records with no frame or before their stack is known.  *stack* is
    the process a step happened on (``stack.proc`` its label,
    ``stack.frames`` its open frames, innermost last, ``stack.root`` its
    current tree's root); a frame is the fold's ``[name, self_us,
    child_us, is_swtch, enter_us, arc, entered]`` list, to which a
    recorder may append one item of its own, read back as
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


def _run_end(tags: Sequence[int], start: int, period: int) -> int:
    """The batch position after the last whole repeat, in *tags*, of the
    *period* tags ``tags[start - period:start]`` (*start* itself when
    none follows)."""
    n = len(tags)
    stop, size = start, period
    # A record continues the run when it equals the one a period back:
    # double the stretch so checked until one differs or would pass the
    # batch's end, then halve back into it, a period at the least.
    while (
        stop + size <= n
        and tags[stop : stop + size] == tags[stop - period : stop + size - period]
    ):
        stop += size
        size *= 2
    while size > period:
        size //= 2
        if (
            stop + size <= n
            and tags[stop : stop + size] == tags[stop - period : stop + size - period]
        ):
            stop += size
    return stop


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

    Every event is stepped at most once, straight off the raw ``(time,
    tag)`` columns: the counter is unwrapped inline, each tag costs one
    decode-map lookup, and an exit of the innermost frame closes inline,
    a ``swtch`` exit's included.  With no recorder, an entry and its own
    exit in the next record (a *leaf pair*, most calls in a kernel trace)
    are one step and no frame.  And when a call closes, as a leaf pair
    or by its matched exit, and the next record enters the same function
    again (a per-page loop, whatever its body calls), every whole repeat
    of the call's records left in the batch is added up in one step more
    with its whole subtree (:meth:`_run`), after which the loop re-seats
    its event iterator past the run.

    Switch-in resolution (which suspended process resumes after a
    ``swtch`` exit) needs the incoming block.  With no recorder and no
    suspended stack inside a call, whichever process resumes is an empty
    stack, so the least recently suspended one resumes at once and the
    block settles the choice on paths it takes anyway: its first
    context-switch entry confirms it, and a repaired exit either refutes
    it (at depth 0: a process not seen before was running) or, inside
    the block's own frames, hands it to the look-ahead below.  Every
    other switch-in (and every one with a recorder, which sees which
    stack a step happened on) looks ahead in the batch's tags until the
    block names its process, jumping the same runs of repeated calls
    with the run step's slice compare, then keeps stepping in place.
    Only when that look-ahead runs off the end of the batch are the rest
    of the batch's events held; the next batch continues it where it
    stopped, so no event is read ahead twice, and :meth:`close` resolves
    a tail still held as the end of the stream.  A scheduling block is
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
        #: The frames :meth:`close` closed, still open at the end of the
        #: capture, as ``(tree root, entry index, name)``: sorted, they
        #: walk the call forest in preorder, since a tree's calls open in
        #: stream order.
        self.open_at_end: list[tuple[int, int, str]] = []
        self._idle_us = 0
        self._unattributed_us = 0
        self._event_count = 0
        self._context_switches = 0
        #: Runs of identical leaf pairs added up in one step, and the calls
        #: those steps added up (the pair opening each run not counted);
        #: then the same for runs of any longer call, its subtree's calls
        #: counted too.
        self._leaf_runs = 0
        self._leaf_run_calls = 0
        self._call_runs = 0
        self._call_run_calls = 0

        self._current = _ProcStack("P0")
        #: Switched-out stacks, least recently suspended first.
        self._suspended: list[_ProcStack] = []
        #: How many of them hold an open frame.
        self._suspended_open = 0
        self._procs = 1
        #: While the current stack's switch-in is unconfirmed (resumed
        #: with no look-ahead), its ``(root, block_start_us)`` from before
        #: that; otherwise ``None``.
        self._unconfirmed: Optional[tuple[int, int]] = None
        #: High-water marks, read out into telemetry at close().
        self._peak_suspended = 0
        self._peak_held = 0
        #: Switch-ins that needed a look-ahead, and the records those
        #: look-aheads read one by one.
        self._look_aheads = 0
        self._look_ahead_reads = 0
        #: Events from a context-switch exit's block (or from the repaired
        #: exit that handed an unconfirmed switch-in to a look-ahead) whose
        #: process was not named by the end of their batch: ``(raw times,
        #: tags, index of the first, wrap mask)``, the columns of the
        #: batch's own type, or ``None``.  The look-ahead stopped at depth
        #: ``_scan_depth`` past the last of them, the innermost frames it
        #: counted opened at the held positions ``_scan_opened``.
        self._held: Optional[
            tuple[MutableSequence[int], MutableSequence[int], int, int]
        ] = None
        self._scan_depth = 0
        self._scan_opened: list[int] = []

        # Unwrap carry: the last stepped event's raw snapshot and absolute
        # time, and the index of the next event fed.
        self._prev_raw: Optional[int] = None
        self._prev_t = 0
        self._next_index = 0

        self._first_t: Optional[int] = None

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
        """Step one unwrapped batch: its absolute times and its raw tags.

        An absolute time is a snapshot of a counter that never wraps, so
        the batch runs through the same loop as :meth:`feed_columns` with
        an all-ones wrap mask; the timeline keeps the batch's own origin.
        An accumulator is fed either unwrapped batches or record batches,
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
            scanned = len(held_tags)
            held_times.extend(raw_times)
            held_tags.extend(tags)
            if not self._switch_in(
                held_tags, scanned, self._scan_depth, self._scan_opened
            ):
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
        that value to no other function) steps both records as one call.
        When a call closes so or by a matched exit, its entry in this
        batch (a frame keeps its entry's stream index), and the next
        record enters the same function again, the whole repeats of the
        call's records left in the batch are added up in one more step,
        subtree and all (:meth:`_run`), and the loop goes on over fresh
        slices of the columns past the run.
        A ``swtch`` call closed so or by its exit, or a ``swtch`` exit
        :meth:`_slow_exit` repairs, suspends the stack and switches in
        the next one: at once when no recorder is attached and no
        suspended stack is inside a call, else by looking ahead in
        *tags* from after the exit (:meth:`_switch_in`).  A repaired exit
        in a block whose switch-in is unconfirmed settles it first; when
        a look-ahead runs off the end, the rest of the batch is held.
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
        # tag, and -1 past the batch's end.  After a run the loop starts
        # again at batch position `seat`, over slices of the columns.
        events = zip(
            count(index), raw_times, tags, chain(islice(tags, 1, None), (-1,))
        )
        while True:
            seat = None
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
                        frame = [name, 0, 0, is_cs, t, arc, i]
                        frames.append(frame)
                        if is_cs:
                            # The block's first context-switch entry: an
                            # eager switch-in stands.
                            self._unconfirmed = None
                        if recorder is not None:
                            recorder.open_frame(current, frame)
                        continue
                    # A leaf pair: the next record is this call's own exit,
                    # so step it now; its interval is the call's whole time.
                    begin = i
                    i, raw, tag, next_tag = next(events)
                    net = inclusive = (raw - previous) & mask
                    previous = raw
                    t += net
                    if frames:
                        frames[-1][2] += net
                elif code == _EXIT:
                    if frames and frames[-1][0] == name:
                        # A matched exit of the innermost frame, a context
                        # switch's included (a frame's name fixes whether
                        # it is one).
                        frame = frames.pop()
                        net = frame[1]
                        inclusive = net + frame[2]
                        if frames:
                            frames[-1][2] += inclusive
                        arc = frame[5]
                        begin = frame[6]
                    else:
                        if self._unconfirmed is not None:
                            position = i - index
                            if not self._settle(name, tags, position, len(frames)):
                                # Its look-ahead ran off the batch: give this
                                # record back and hold the batch from it.
                                t -= dt
                                frames[-1][1] -= dt
                                if position:
                                    previous = raw_times[position - 1]
                                else:
                                    previous = self._prev_raw
                                held_from = position
                                break
                            current = self._current
                            frames = current.frames
                            root = current.root
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

                # 3. A closed call (a leaf pair or a matched exit) adds up
                # into its arc as _agg_call does, inline.
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
                        if next_tag == tag - 1 and begin >= index and recorder is None:
                            # The same call again, as in a per-page loop:
                            # add up every whole repeat of it left in the
                            # batch at once, then step on from the record
                            # after them.
                            period = i + 1 - begin
                            run = self._run(
                                tags, raw_times, i + 1 - index, period, mask, arc
                            )
                            if run is not None:
                                seat, gaps, busy = run
                                if frames:
                                    caller = frames[-1]
                                    caller[1] += gaps
                                    caller[2] += busy
                                else:
                                    unattributed += gaps
                                    # Each repeat is a tree root; the last
                                    # is current.
                                    root = current.root = index + seat - period
                                t += gaps + busy
                                previous = raw_times[seat - 1]
                                break
                        continue
                    self._idle_us += net  # a switch's self time is the idle loop
                # 4. A context switch, by any path: its swtch entry confirms
                # an eager switch-in still open (a swtch pair pushed no
                # frame).  Suspend this stack and resume the one the next
                # block names.
                self._unconfirmed = None
                self._context_switches += 1
                current.suspended_at_us = t
                suspended.append(current)
                if frames:
                    self._suspended_open += 1
                if len(suspended) > self._peak_suspended:
                    self._peak_suspended = len(suspended)
                if recorder is None and not self._suspended_open:
                    # Every suspended stack is empty, so the block resumes
                    # an empty one whichever it is: the least recently
                    # suspended, unless the block refutes it.
                    eager = suspended[0]
                    undo = (eager.root, eager.block_start_us)
                    self._resume(None)
                    self._unconfirmed = undo
                else:
                    after = i + 1 - index  # the next event's place in the batch
                    self._look_aheads += 1
                    if not self._switch_in(tags, after, 0, []):
                        held_from = after
                        break
                current = self._current
                frames = current.frames
                root = current.root
            if seat is None:
                break
            tail = tags[seat:]
            events = zip(
                count(index + seat),
                raw_times[seat:],
                tail,
                chain(islice(tail, 1, None), (-1,)),
            )
        self._prev_raw = previous
        self._prev_t = t
        self._unattributed_us = unattributed
        if held_from is not None:
            # Slices keep the batch's column type, which the next batch
            # extends in place.
            self._held = (
                raw_times[held_from:], tags[held_from:], index + held_from, mask
            )
            self._scan_opened = [b - held_from for b in self._scan_opened]

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

    def _run(
        self,
        tags: Sequence[int],
        raw_times: Sequence[int],
        start: int,
        period: int,
        mask: int,
        arc: list,
    ) -> Optional[tuple[int, int, int]]:
        """Add up the run of calls repeating the one just closed.

        ``tags[start - period:start]`` are the closed call's records, entry
        to exit (a leaf pair when *period* is 2), and *arc* the arc it
        added up into.  The run is every whole repeat of them left in the
        batch (:func:`_run_end`), each added up with its whole subtree: a
        call at body positions ``j..k`` took ``raw[k] - raw[j]`` in each
        repeat, read off strided slices of the snapshots, and its net time
        is that less its direct callees'.  A nested call's arc is the one
        its first copy was stepped into, ``_arcs[caller][name]``.

        A leaf's time and the gap before each repeat are one interval
        each, masked one by one when the counter wrapped inside the run.
        A longer call spans several, so its repeats are taken only up to
        the first snapshot below the one before it (a wrap).  Returns
        ``(stop, gaps, busy)``: the batch position after the run, the time
        between the repeats (the caller's own) and the repeats' total
        time (the caller's child time); or ``None``, having added nothing,
        when no whole repeat follows, the body holds more than calls
        nested by name (:meth:`_body`), or a wrap cuts the first repeat.
        """
        if period == 2:
            stop = _run_end(tags, start, 2)
            calls = [(0, 1, arc, 2)]
        else:
            # One repeat must follow before the body is walked, and the
            # body must hold only calls before the run is measured.
            if tags[start : start + period] != tags[start - period : start]:
                return None
            calls = self._body(tags, start - period, period, arc)
            if calls is None:
                return None
            stop = _run_end(tags, start + period, period)
            falls = map(gt, raw_times[start - 1 : stop - 1], raw_times[start:stop])
            wrap = next(compress(count(start), falls), stop)
            stop = start + (wrap - start) // period * period
        if stop == start:
            return None
        wrapped = False
        callees = [0] * (period + 1)  # callee time by caller's entry position
        for entry, exit_, call_arc, caller in calls:  # callees first
            entries = raw_times[start + entry : stop : period]
            times = list(map(sub, raw_times[start + exit_ : stop : period], entries))
            shortest = min(times)
            if shortest < 0:  # the counter wrapped inside a leaf
                wrapped = True
                times = [d & mask for d in times]
                shortest = min(times)
            busy = sum(times)
            net = busy - callees[entry]
            _agg_merge(call_arc, [len(times), busy, net, max(times), shortest])
            callees[caller] += busy
        # The outer call came last: entries and busy are the repeats'.
        before = raw_times[start - 1 : stop - 1 : period]
        if wrapped or not all(map(le, before, entries)):
            gaps = sum([d & mask for d in map(sub, entries, before)])
        else:
            gaps = raw_times[stop - 1] - raw_times[start - 1] - busy
        if period == 2:
            self._leaf_runs += 1
            self._leaf_run_calls += len(times)
        else:
            self._call_runs += 1
            self._call_run_calls += len(times) * len(calls)
        return stop, gaps, busy

    def _body(
        self, tags: Sequence[int], begin: int, period: int, arc: list
    ) -> Optional[list[tuple[int, int, list, int]]]:
        """The calls of the body ``tags[begin:begin + period]``, one call
        and its subtree, as ``(entry, exit, arc, caller)`` in the order
        they exit, so the outer call, whose arc is *arc*, comes last:
        positions in the body, the arc the call adds up into, and its
        caller's entry position (*period* for the outer call).  ``None``
        unless every record is an entry or an exit of a function that is
        no context switch and every exit closes the innermost entry by
        name: only then does each repeat step exactly like the first.
        """
        decode = self._decode_map
        arcs = self._arcs
        calls = []
        opened: list[tuple[int, str]] = []
        for position in range(period):
            code, name, _, is_cs = decode[tags[begin + position]]
            if is_cs:
                return None
            if code == _ENTRY:
                opened.append((position, name))
            elif code == _EXIT and opened and opened[-1][1] == name:
                entry = opened.pop()[0]
                if opened:
                    caller, caller_name = opened[-1]
                    calls.append((entry, position, arcs[caller_name][name], caller))
                else:
                    calls.append((entry, position, arc, period))
            else:
                return None
        return calls

    def _switch_in(
        self, tags: Sequence[int], start: int, depth: int, opened: list[int]
    ) -> bool:
        """Switch-in resolution by look-ahead: which suspended stack does
        the block that follows the latest context-switch exit belong to?

        The event stream carries no process identifier, so after a
        ``swtch`` exit the fold must decide which saved stack resumes.
        The block's tags are read forward from *start* with a depth
        counter (at *depth* so far, the innermost frames counted opened at
        the positions *opened*); entries open new frames, exits first
        unwind those.  When a call the look-ahead read whole closes (an
        exit of a frame it opened, or a leaf pair, whose entry and exit
        are read as one) and the next tag enters the same function again,
        every whole repeat of the call's records is jumped, uncounted as
        reads (:func:`_run_end`): a repeat reads exactly like the copy
        just read through without resolving.  The look-ahead resolves at
        whichever comes first:

        1. an exit of function X that unwinds *below* the block's opening
           depth — it names a frame the resumed process was suspended
           inside: resume the least recently suspended stack whose top
           open frame is X;
        2. the block's closing ``swtch`` entry — the process never
           returned into pre-existing frames: resume the least recently
           suspended *empty* stack (a process that was in user mode).

        If no stack matches, a process not seen before starts a fresh
        stack (:meth:`_resume`).  Returns ``False``, keeping the depth in
        ``_scan_depth`` and the open positions in ``_scan_opened``, when
        the look-ahead runs off the end of *tags* unresolved.
        """
        decode = self._decode_map
        n = len(tags)
        position = start
        jumped = 0
        while position < n:
            tag = tags[position]
            code, name, _, is_cs = decode[tag]
            position += 1
            if code == _ENTRY:
                if is_cs:
                    unwound = None
                    break
                if position < n and tags[position] == tag + 1:
                    # A leaf pair: step over its exit.
                    entered = position - 1
                    position += 1
                else:
                    opened.append(position - 1)
                    depth += 1
                    continue
            elif code == _EXIT:
                if not depth:
                    unwound = name
                    break
                depth -= 1
                if not opened:
                    continue
                entered = opened.pop()
            else:
                continue
            # A call read whole: jump every whole repeat of it.
            if position < n and tags[position] == tags[entered]:
                stop = _run_end(tags, position, position - entered)
                jumped += stop - position
                position = stop
        else:
            self._look_ahead_reads += position - start - jumped
            self._scan_depth = depth
            self._scan_opened = opened
            return False
        self._look_ahead_reads += position - start - jumped
        self._resume(unwound)
        return True

    def _settle(
        self, name: str, tags: Sequence[int], position: int, depth: int
    ) -> bool:
        """Settle the current stack's unconfirmed switch-in at a repaired
        exit of *name*, at batch *position* and *depth* frames into the
        block.

        At depth 0 the exit unwinds below the block's opening depth, so
        the look-ahead would have resolved right there, on *name*.  Inside
        the block's own frames the repair stops the frames from tracking
        the look-ahead's depth counter, so the look-ahead takes over from
        this record.  Returns ``False`` when it runs off the end of
        *tags*, the choice still open.
        """
        if not depth:
            self._resume(name)
            return True
        self._look_aheads += 1
        return self._switch_in(tags, position, depth, [])

    def _resume(self, unwound: Optional[str]) -> None:
        """Switch in the least recently suspended stack whose top frame is
        *unwound* (an empty stack when ``None``), or a fresh one.

        While the current stack's switch-in is unconfirmed, settle it
        instead: ``None`` confirms it.  A name refutes it, since no
        suspended stack is inside a call: a fresh stack takes over the
        block, frames and tree root, and the eagerly resumed stack goes
        back, as it was, to the front of the suspended ones.
        """
        suspended = self._suspended
        if self._unconfirmed is not None:
            root, block_start_us = self._unconfirmed
            self._unconfirmed = None
            if unwound is None:
                return
            eager = self._current
            stack = self._current = _ProcStack(f"P{self._procs}")
            self._procs += 1
            stack.frames, eager.frames = eager.frames, stack.frames
            stack.root, eager.root = eager.root, root
            stack.block_start_us = eager.block_start_us
            eager.block_start_us = block_start_us
            suspended.insert(0, eager)
            return
        # The block began at the switch-out that opened it, the most
        # recent suspension.
        switched_at = suspended[-1].suspended_at_us
        for stack in suspended:
            frames = stack.frames
            if (frames[-1][0] == unwound) if frames else unwound is None:
                suspended.remove(stack)
                if frames:
                    self._suspended_open -= 1
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
            # The stream ended before the block named its process, or
            # refuted its unconfirmed switch-in, which then stands.
            self._resume(None)
            self._step(raw_times, tags, index, mask)
        for stack in [self._current, *self._suspended]:
            exit_us = self._prev_t if stack is self._current else stack.suspended_at_us
            while stack.frames:
                frame = self._close_frame(stack, exit_us, True)
                self.open_at_end.append((stack.root, frame[6], frame[0]))
        self._wall_us = (self._prev_t - self._first_t) if self._first_t is not None else 0
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
            _TELEMETRY.count("analysis.call_runs", self._call_runs)
            _TELEMETRY.count("analysis.call_run_calls", self._call_run_calls)
            _TELEMETRY.count("analysis.look_aheads", self._look_aheads)
            _TELEMETRY.count("analysis.look_ahead_reads", self._look_ahead_reads)
        return self

    def merge(self, other: "SummaryAccumulator") -> "SummaryAccumulator":
        """Fold another capture's totals into this one (the fleet merge).

        Arcs, synthetic calls, the accounting, the anomalies and the
        frames open at the end add up; nothing carries across the boundary
        between the two captures, and the other capture's arcs and open
        frames come after this one's in preorder.  Seals both
        accumulators.
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
        self.open_at_end.extend(
            (root + offset, entered + offset, name)
            for root, entered, name in other.open_at_end
        )
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
        last = self._prev_t
        if self._held is not None:
            held_times, _, _, mask = self._held
            last += _elapsed(held_times, self._prev_raw, mask)
        wall = (last - self._first_t) if self._first_t is not None else 0
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
