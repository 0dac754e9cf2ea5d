"""Reference implementations the differential suites hold the program to.

The program decodes records one way: in columns
(:func:`repro.profiler.upload.decode_record_columns`,
:func:`repro.analysis.columnar.decode_columns`).  The walkers here do the
same jobs one record at a time — a :meth:`RawRecord.unpack`, a name-table
lookup and a wrap subtraction per record — simple enough to read as the
specification.  ``tests/test_decode_differential.py`` and
``tests/test_salvage_fuzz.py`` require the columnar code to agree with
them exactly; nothing in ``src/`` imports this module.

The program reconstructs calls one way too: the summary fold's state
machine (:class:`repro.analysis.summary.SummaryAccumulator`), which the
call tree and the Chrome trace record.  :func:`reference_call_tree` is a
standalone tree builder — one event object at a time, with its own
switch-in resolver — kept as the specification the tree, summary and
trace suites compare the fold against.  :func:`reference_gprof_report`
is the gprof report as a walk of such a tree, the specification the
gprof report of the fold's caller->callee arcs
(:func:`repro.analysis.gprof.gprof_from_fold`) is held to, and
:func:`capture_to_chrome_trace` is the Chrome trace as a walk of one,
the specification the program's
:class:`repro.analysis.chrome_trace.ChromeTraceWriter` is held to.

The simulator has one capture engine: the bucketed interrupt queue, the
bus decode cache and the kernel's fused charging.  The reference engine
here (:class:`ReferenceInterruptQueue`, a linear bus decode and
step-by-step charging) is the pre-optimization path, kept as the
specification ``tests/test_capture_hotpath_parity.py``,
``tests/test_userprof.py``, ``tests/test_sim_engine_edges.py`` and
``benchmarks/bench_capture_hotpath.py`` hold the engine to, byte for
byte.
"""

from __future__ import annotations

import contextlib
import dataclasses
import heapq
import itertools
import zlib
from collections import defaultdict
from typing import (
    Any,
    BinaryIO,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
)
from unittest import mock

from repro import system
from repro.analysis.callstack import Anomaly, CallNode, CallTreeAnalysis
from repro.analysis.columnar import INTERRUPT_FRAMES
from repro.analysis.events import DecodedEvent, EventKind, _check_width
from repro.analysis.gprof import ArcStats, GprofEntry, GprofReport
from repro.analysis.summary import SPONTANEOUS
from repro.instrument.namefile import NameTable
from repro.instrument.tags import TagKind
from repro.kernel.kernel import Kernel
from repro.profiler import upload
from repro.profiler.ram import RawRecord
from repro.profiler.upload import (
    DEFAULT_CHUNK_RECORDS,
    RECORD_BYTES,
    TRAILER_BYTES,
    CaptureFormatError,
    decode_stream_trailer,
)
from repro.sim.engine import InterruptLine, PendingInterrupt, TimeError
from repro.sim.machine import Machine
from stream_helpers import columns_of

_KIND_FROM_TAG = {
    TagKind.ENTRY: EventKind.ENTRY,
    TagKind.EXIT: EventKind.EXIT,
    TagKind.INLINE: EventKind.INLINE,
}


# -- records -----------------------------------------------------------------


def load_records(blob: bytes) -> list[RawRecord]:
    """Decode a raw record stream one 5-byte record at a time."""
    if len(blob) % RECORD_BYTES:
        raise CaptureFormatError(
            f"record stream length {len(blob)} is not a multiple of {RECORD_BYTES}"
        )
    return [
        RawRecord.unpack(blob[i : i + RECORD_BYTES])
        for i in range(0, len(blob), RECORD_BYTES)
    ]


def iter_capture_file(
    stream: BinaryIO, *, chunk_records: int = DEFAULT_CHUNK_RECORDS
) -> Iterator[RawRecord]:
    """Read a capture file (either version, closed or open-ended) per
    record, verifying the count and CRC32 at end of stream."""
    meta = upload._read_header(stream)
    chunk_bytes = chunk_records * RECORD_BYTES
    hold_back = TRAILER_BYTES if meta.streamed else 0
    crc = 0
    seen = 0
    leftover = b""
    while True:
        blob = stream.read(chunk_bytes)
        if not blob:
            break
        blob = leftover + blob
        usable = max(len(blob) - hold_back, 0)
        usable -= usable % RECORD_BYTES
        crc = zlib.crc32(blob[:usable], crc)
        for i in range(0, usable, RECORD_BYTES):
            yield RawRecord.unpack(blob[i : i + RECORD_BYTES])
        seen += usable // RECORD_BYTES
        leftover = blob[usable:]
    declared, declared_crc = meta.count, meta.crc32
    if meta.streamed:
        tail = leftover[-TRAILER_BYTES:] if len(leftover) >= TRAILER_BYTES else leftover
        leftover = leftover[: len(leftover) - len(tail)]
        if len(leftover) % RECORD_BYTES == 0:
            crc = zlib.crc32(leftover, crc)
            for i in range(0, len(leftover), RECORD_BYTES):
                yield RawRecord.unpack(leftover[i : i + RECORD_BYTES])
            seen += len(leftover) // RECORD_BYTES
            leftover = b""
        declared, declared_crc = decode_stream_trailer(tail)
    if leftover:
        raise CaptureFormatError(
            f"record stream ends with a partial {len(leftover)}-byte record"
        )
    if seen != declared:
        raise CaptureFormatError(f"count {seen} is not the declared {declared}")
    if declared_crc is not None and crc != declared_crc:
        raise CaptureFormatError(f"CRC32 {crc:#010x} is not {declared_crc:#010x}")


@contextlib.contextmanager
def per_record_payload_decoder():
    """Make the program's readers decode payloads with :func:`load_records`
    for the duration of the block."""
    columnar = upload.decode_record_columns
    upload.decode_record_columns = lambda blob: columns_of(load_records(blob))
    try:
        yield
    finally:
        upload.decode_record_columns = columnar


# -- decoded events ----------------------------------------------------------


def decoded_events(
    records: Iterable[RawRecord],
    names: NameTable,
    width_bits: int = 24,
    *,
    start_index: int = 0,
    time_base_us: int = 0,
) -> Iterator[DecodedEvent]:
    """Decode records one at a time: name-table lookup, wrap subtraction.

    ``start_index`` and ``time_base_us`` place the first record in a
    longer run's frame of reference.  An over-width snapshot raises after
    the events before it have been yielded.
    """
    _check_width(width_bits)
    mask = (1 << width_bits) - 1
    absolute = time_base_us
    previous: Optional[int] = None
    index = start_index
    for record in records:
        if record.time > mask:
            raise ValueError(
                f"record time {record.time} exceeds the {width_bits}-bit counter"
            )
        if previous is not None:
            absolute += (record.time - previous) & mask
        previous = record.time
        decoded = names.decode(record.tag)
        if decoded is None:
            yield DecodedEvent(
                index=index,
                time_us=absolute,
                kind=EventKind.UNKNOWN,
                name=f"tag#{record.tag}",
                entry=None,
                raw=record,
            )
        else:
            entry, tag_kind = decoded
            yield DecodedEvent(
                index=index,
                time_us=absolute,
                kind=_KIND_FROM_TAG[tag_kind],
                name=entry.name,
                entry=entry,
                raw=record,
            )
        index += 1


# -- call trees --------------------------------------------------------------


@dataclasses.dataclass
class _Stack:
    """One process's reconstruction state."""

    proc: str
    frames: list[CallNode] = dataclasses.field(default_factory=list)
    roots: list[CallNode] = dataclasses.field(default_factory=list)
    suspended_at_us: int = 0
    suspend_seq: int = -1
    block_start_us: int = 0


class _Resolver:
    """Switch-in resolution: which suspended stack does this block belong to?

    The event stream carries no process identifier, so after a ``swtch``
    exit the analyser must decide which saved stack resumes.  The incoming
    block's events are scanned forward (stopping at the block's closing
    ``swtch`` entry) with a depth counter; entries open new frames, exits
    first unwind those.  The first exit that unwinds *below* the block's
    opening depth names a frame the resumed process was suspended inside:

    1. an unwinding exit of function X — resume the least-recently
       suspended stack whose top open frame is X;
    2. no unwinding exit in the whole block — the process never returned
       into pre-existing frames: resume the least-recently-suspended
       *empty* stack (a process that was in user mode) if any;
    3. otherwise — a process not seen before: start a fresh stack.
    """

    def __init__(self, events: Sequence[DecodedEvent]) -> None:
        self._events = events

    def resolve(
        self, next_index: int, suspended: list[_Stack]
    ) -> Optional[_Stack]:
        unwind_name = self._unwinding_exit(next_index)
        if unwind_name is not None:
            matches = [
                stack
                for stack in suspended
                if stack.frames and stack.frames[-1].name == unwind_name
            ]
            if matches:
                return min(matches, key=lambda s: s.suspend_seq)
            return None
        empty = [stack for stack in suspended if not stack.frames]
        if empty:
            return min(empty, key=lambda s: s.suspend_seq)
        return None

    def _unwinding_exit(self, index: int) -> Optional[str]:
        """Name of the first exit unwinding below the block's start depth.

        Returns ``None`` when the block ends (next context switch or end
        of capture) without such an exit.
        """
        depth = 0
        # Indexed loop, not islice: islice steps through the first *index*
        # elements to skip them, which turns a long capture with many
        # context switches into an O(n^2) analysis.
        events = self._events
        for i in range(index, len(events)):
            event = events[i]
            if event.kind is EventKind.ENTRY:
                if event.is_context_switch:
                    return None
                depth += 1
            elif event.kind is EventKind.EXIT:
                if depth > 0:
                    depth -= 1
                else:
                    return event.name
        return None


def reference_call_tree(events: Sequence[DecodedEvent]) -> CallTreeAnalysis:
    """Reconstruct the call forest from a decoded event stream."""
    anomalies: list[Anomaly] = []
    roots: list[CallNode] = []
    resolver = _Resolver(events)
    proc_counter = itertools.count()
    suspend_counter = itertools.count()

    start_us = events[0].time_us if events else 0
    current = _Stack(proc=f"P{next(proc_counter)}", block_start_us=start_us)
    all_stacks = [current]
    suspended: list[_Stack] = []
    prev_time = start_us
    unattributed_us = 0
    context_switches = 0
    orphan_marks: list[tuple[int, str]] = []

    def open_frame(stack: _Stack, event: DecodedEvent, is_swtch: bool) -> CallNode:
        node = CallNode(
            name=event.name,
            enter_us=event.time_us,
            proc=stack.proc,
            is_swtch=is_swtch,
            depth=len(stack.frames),
        )
        if stack.frames:
            stack.frames[-1].children.append(node)
        else:
            stack.roots.append(node)
            roots.append(node)
        stack.frames.append(node)
        return node

    def close_frame(stack: _Stack, time_us: int) -> CallNode:
        node = stack.frames.pop()
        node.exit_us = time_us
        return node

    def close_through(stack: _Stack, name: str, event: DecodedEvent) -> None:
        """Close frames down to (and including) the one named *name*."""
        while stack.frames and stack.frames[-1].name != name:
            skipped = close_frame(stack, event.time_us)
            skipped.truncated = True
            anomalies.append(
                Anomaly(
                    index=event.index,
                    time_us=event.time_us,
                    kind="missed-exit",
                    detail=(
                        f"exit of {name!r} arrived while {skipped.name!r} "
                        "was still open; closed it administratively"
                    ),
                )
            )
        if stack.frames:
            close_frame(stack, event.time_us)

    for event in events:
        # 1. Attribute the elapsed interval to the innermost active frame.
        dt = event.time_us - prev_time
        if current.frames:
            current.frames[-1].self_us += dt
        else:
            unattributed_us += dt
        prev_time = event.time_us

        # 2. Apply the event.
        if event.kind is EventKind.INLINE or event.kind is EventKind.UNKNOWN:
            if event.kind is EventKind.UNKNOWN:
                anomalies.append(
                    Anomaly(
                        index=event.index,
                        time_us=event.time_us,
                        kind="unknown-tag",
                        detail=f"tag {event.raw.tag} is in no name file",
                    )
                )
            if current.frames:
                current.frames[-1].inline_marks.append((event.time_us, event.name))
            else:
                # A point hit with no open frame: user-mode inline marks
                # between profiled calls land here.
                orphan_marks.append((event.time_us, event.name))
            continue

        if event.kind is EventKind.ENTRY:
            open_frame(current, event, is_swtch=event.is_context_switch)
            continue

        # EXIT events.
        if event.is_context_switch:
            # Close the swtch frame (tolerating interrupt frames left open
            # above it), then switch stacks.
            open_names = [frame.name for frame in current.frames]
            if event.name in open_names:
                close_through(current, event.name, event)
            else:
                node = CallNode(
                    name=event.name,
                    enter_us=current.block_start_us,
                    proc=current.proc,
                    is_swtch=True,
                    synthetic=True,
                    exit_us=event.time_us,
                )
                if current.frames:
                    current.frames[-1].children.append(node)
                else:
                    current.roots.append(node)
                    roots.append(node)
                anomalies.append(
                    Anomaly(
                        index=event.index,
                        time_us=event.time_us,
                        kind="unmatched-swtch-exit",
                        detail="context-switch exit with no open swtch frame",
                    )
                )
            context_switches += 1
            current.suspended_at_us = event.time_us
            current.suspend_seq = next(suspend_counter)
            suspended.append(current)
            chosen = resolver.resolve(event.index + 1, suspended)
            if chosen is None:
                chosen = _Stack(proc=f"P{next(proc_counter)}")
                all_stacks.append(chosen)
            else:
                suspended.remove(chosen)
            chosen.block_start_us = event.time_us
            current = chosen
            continue

        # Ordinary exit.
        open_names = [frame.name for frame in current.frames]
        if event.name in open_names:
            close_through(current, event.name, event)
        else:
            node = CallNode(
                name=event.name,
                enter_us=current.block_start_us,
                proc=current.proc,
                synthetic=True,
                exit_us=event.time_us,
                depth=len(current.frames),
            )
            if current.frames:
                current.frames[-1].children.append(node)
            else:
                current.roots.append(node)
                roots.append(node)
            anomalies.append(
                Anomaly(
                    index=event.index,
                    time_us=event.time_us,
                    kind="unmatched-exit",
                    detail=(
                        f"exit of {event.name!r} with no matching entry "
                        "(function was already running when the capture began?)"
                    ),
                )
            )

    # 3. Close everything still open (capture window truncation).
    end_us = events[-1].time_us if events else 0
    for stack in [current] + suspended:
        close_at = end_us if stack is current else stack.suspended_at_us
        while stack.frames:
            node = close_frame(stack, close_at)
            node.truncated = True

    idle_us = sum(
        node.self_us
        for root in roots
        for node in root.walk()
        if node.is_swtch
    )
    wall_us = end_us - start_us
    return CallTreeAnalysis(
        roots=roots,
        anomalies=anomalies,
        wall_us=wall_us,
        idle_us=idle_us,
        unattributed_us=unattributed_us,
        event_count=len(events),
        context_switches=context_switches,
        procs=tuple(stack.proc for stack in all_stacks),
        orphan_marks=orphan_marks,
    )


# -- gprof -------------------------------------------------------------------


def reference_gprof_report(analysis: CallTreeAnalysis) -> GprofReport:
    """Build the caller/callee report from a reconstructed call forest."""
    calls: defaultdict[str, int] = defaultdict(int)
    net: defaultdict[str, int] = defaultdict(int)
    inclusive: defaultdict[str, int] = defaultdict(int)
    caller_arcs: dict[tuple[str, str], ArcStats] = {}

    def arc(caller: str, callee: str) -> ArcStats:
        key = (caller, callee)
        existing = caller_arcs.get(key)
        if existing is None:
            existing = ArcStats(caller=caller, callee=callee)
            caller_arcs[key] = existing
        return existing

    parent_of: dict[int, str] = {}
    for node in analysis.nodes():
        for child in node.children:
            parent_of[id(child)] = node.name

    for node in analysis.nodes():
        if node.synthetic:
            continue
        calls[node.name] += 1
        net[node.name] += node.self_us
        inclusive[node.name] += node.inclusive_us
        caller = parent_of.get(id(node), SPONTANEOUS)
        a = arc(caller, node.name)
        a.calls += 1
        a.inclusive_us += node.inclusive_us

    entries: dict[str, GprofEntry] = {}
    for name in calls:
        entries[name] = GprofEntry(
            name=name,
            calls=calls[name],
            net_us=net[name],
            inclusive_us=inclusive[name],
            callers=[a for a in caller_arcs.values() if a.callee == name],
            callees=[
                a
                for a in caller_arcs.values()
                if a.caller == name and a.callee in calls
            ],
        )
    return GprofReport(entries=entries, wall_us=analysis.wall_us)


# -- Chrome trace -------------------------------------------------------------


#: pid of the dedicated interrupt track in capture traces; reconstructed
#: processes start at pid 1 and user-mode marks sit above them.
INTERRUPT_PID = 0


def capture_to_chrome_trace(
    analysis: CallTreeAnalysis,
    *,
    interrupt_names: Optional[Iterable[str]] = None,
    label: str = "",
) -> Dict[str, Any]:
    """A reconstructed capture as a Chrome/Perfetto trace document.

    The paper's Figure 4 code-path trace, machine-renderable: every
    reconstructed process (the ``swtch()`` split) is its own pid track,
    interrupt frames — any frame named in *interrupt_names*, default the
    program's :data:`~repro.analysis.columnar.INTERRUPT_FRAMES`
    — and their subtrees live on a separate ``interrupts`` track, inline
    marks become instant events, and ``swtch`` frames render as the idle
    category on their own process's track.  Timestamps are the capture's
    reconstructed absolute microseconds, so simulated time reads directly
    off the Perfetto ruler.
    """
    interrupts: Set[str] = (
        set(interrupt_names) if interrupt_names is not None else set(INTERRUPT_FRAMES)
    )
    pid_of: Dict[str, int] = {proc: i + 1 for i, proc in enumerate(analysis.procs)}
    user_pid = len(pid_of) + 1

    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": INTERRUPT_PID,
            "tid": 0,
            "args": {"name": "interrupts"},
        },
        {
            "name": "process_sort_index",
            "ph": "M",
            "pid": INTERRUPT_PID,
            "tid": 0,
            "args": {"sort_index": len(pid_of) + 2},
        },
    ]
    for proc, pid in pid_of.items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": proc},
            }
        )
        events.append(
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": pid},
            }
        )

    def emit(node: CallNode, in_interrupt: bool) -> None:
        is_interrupt = in_interrupt or node.name in interrupts
        pid = INTERRUPT_PID if is_interrupt else pid_of.get(node.proc, user_pid)
        exit_us = node.exit_us if node.exit_us is not None else node.enter_us
        category = "interrupt" if is_interrupt else ("idle" if node.is_swtch else "kernel")
        args: Dict[str, Any] = {
            "proc": node.proc,
            "self_us": node.self_us,
            "depth": node.depth,
        }
        if node.synthetic:
            args["synthetic"] = True
        if node.truncated:
            args["truncated"] = True
        events.append(
            {
                "name": node.name,
                "cat": category,
                "ph": "X",
                "ts": node.enter_us,
                "dur": max(0, exit_us - node.enter_us),
                "pid": pid,
                "tid": 1,
                "args": args,
            }
        )
        for time_us, mark in node.inline_marks:
            events.append(
                {
                    "name": mark,
                    "cat": "inline",
                    "ph": "i",
                    "ts": time_us,
                    "pid": pid,
                    "tid": 1,
                    "s": "t",
                    "args": {"proc": node.proc},
                }
            )
        for child in node.children:
            emit(child, is_interrupt)

    for root in analysis.roots:
        emit(root, False)

    if analysis.orphan_marks:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": user_pid,
                "tid": 0,
                "args": {"name": "user mode"},
            }
        )
        for time_us, mark in analysis.orphan_marks:
            events.append(
                {
                    "name": mark,
                    "cat": "inline",
                    "ph": "i",
                    "ts": time_us,
                    "pid": user_pid,
                    "tid": 1,
                    "s": "t",
                    "args": {},
                }
            )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tool": "repro-trace",
            "label": label,
            "wall_us": analysis.wall_us,
            "idle_us": analysis.idle_us,
            "event_count": analysis.event_count,
            "context_switches": analysis.context_switches,
            "procs": list(analysis.procs),
            "interrupt_frames": sorted(interrupts),
        },
    }


# -- the reference capture engine --------------------------------------------


class ReferenceInterruptQueue:
    """The original single-heap interrupt queue, kept as executable spec.

    :class:`InterruptQueue` must stay observably identical to this class
    (same pops, same times, same tie-breaks); the capture-parity tests and
    ``benchmarks/bench_capture_hotpath.py`` run both side by side — this
    one as the pre-optimization baseline — and byte-compare the captured
    event streams.  Do not optimize this class.
    """

    def __init__(self) -> None:
        self._heap: list[PendingInterrupt] = []
        self._seq = itertools.count()
        #: Count of interrupts ever posted, for statistics.
        self.posted = 0
        #: Count of interrupts ever delivered (popped), for statistics.
        self.popped = 0

    def __len__(self) -> int:
        return len(self._heap)

    def post(self, line: InterruptLine, due_ns: int) -> PendingInterrupt:
        """Schedule *line* to assert at absolute time *due_ns*."""
        if due_ns < 0:
            raise TimeError(f"interrupt due in negative time {due_ns}")
        pending = PendingInterrupt(due_ns=due_ns, seq=next(self._seq), line=line)
        heapq.heappush(self._heap, pending)
        self.posted += 1
        return pending

    def next_due_ns(self, current_ipl: int = 0) -> Optional[int]:
        """Earliest due time among deliverable (unmasked) interrupts."""
        deliverable = [p.due_ns for p in self._heap if p.line.ipl > current_ipl]
        return min(deliverable) if deliverable else None

    def next_any_due_ns(self) -> Optional[int]:
        """Earliest due time regardless of masking (for idle-loop planning)."""
        return self._heap[0].due_ns if self._heap else None

    def pop_due(self, now_ns: int, current_ipl: int = 0) -> Optional[PendingInterrupt]:
        """Remove and return the earliest deliverable interrupt due by *now_ns*."""
        best_index: Optional[int] = None
        for index, pending in enumerate(self._heap):
            if pending.due_ns > now_ns:
                continue
            if pending.line.ipl <= current_ipl:
                continue
            if best_index is None or pending < self._heap[best_index]:
                best_index = index
        if best_index is None:
            return None
        pending = self._heap[best_index]
        # O(n) removal: the pending set is tiny (a handful of IRQs).
        self._heap[best_index] = self._heap[-1]
        self._heap.pop()
        heapq.heapify(self._heap)
        self.popped += 1
        return pending

    def cancel_line(self, line: InterruptLine) -> int:
        """Drop every pending entry for *line*; return how many were dropped."""
        before = len(self._heap)
        self._heap = [p for p in self._heap if p.line is not line]
        heapq.heapify(self._heap)
        return before - len(self._heap)

    def pending_for(self, line: InterruptLine) -> int:
        """Number of queued entries for *line*."""
        return sum(1 for p in self._heap if p.line is line)


class ReferenceMachine(Machine):
    """A machine on the reference queue with the bus decode cache off."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.interrupts = ReferenceInterruptQueue()
        self.bus.decode_cache = False


class ReferenceKernel(Kernel):
    """A kernel that charges time step by step (no fused fast path)."""

    fastpath_enabled = False


def reference_kernel() -> Kernel:
    """A bare (unbooted) kernel on a reference machine."""
    return ReferenceKernel(ReferenceMachine())


def build_reference_case_study(**kwargs) -> system.CaseStudySystem:
    """``build_case_study(**kwargs)`` with the reference engine wired in."""
    with mock.patch.multiple(system, Machine=ReferenceMachine, Kernel=ReferenceKernel):
        return system.build_case_study(**kwargs)
