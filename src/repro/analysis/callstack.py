"""Call-tree reconstruction with context-switch splitting.

"Identification of function entry and exit points allow a code path trace
to be constructed ... when the target being profiled is a kernel this
model is inadequate ... context switches occur to change the control flow
to a different process."  The rules implemented here are the paper's:

* entries and exits are matched to build nested call frames;
* a function tagged ``!`` (``swtch``) splits the stream: "The time between
  the exit of a call to swtch and the entry to the next call of swtch is
  analysed as a contiguous block of processor activity";
* "The time in swtch itself is counted as CPU idle time, except when
  device interrupts occur" — interrupt handlers nest *inside* the open
  ``swtch`` frame and keep their own time, so idle is exactly the
  ``swtch`` frames' self time;
* a process's open frames are *suspended* while it is switched out: their
  clocks stop, so a function that sleeps is charged for its own activity
  (including any interrupts that preempt it) but not for other processes'
  runtime.

The raw stream does not identify processes, so switch-in resolution is a
reconstruction heuristic: resume the suspended stack whose top frame
matches the next function exit, prefer empty (user-mode) stacks when the
block opens with an entry, and create a fresh stack when nothing matches
(a process seen for the first time).  Truncation at both ends of the
capture window is tolerated with synthetic frames, and every repair is
recorded as an :class:`Anomaly`.

The program implements these rules once, in the summary fold's state
machine (:class:`repro.analysis.summary.SummaryAccumulator`).  The call
tree is a recording of that reconstruction: :func:`build_call_tree` runs
the fold with a tree recorder attached, each open frame carrying its node
in the fold's recorder slot (``frame[RECORDER_SLOT]``), so the tree, the
summary and the Chrome trace agree by construction.  The tree keeps the
fold that recorded it (:attr:`CallTreeAnalysis.fold`), whose arcs give
the summary and the gprof report printed beside a tree report.  Only the
reports that walk a tree (``trace``, ``folded``, ``flame``,
``timeline``) and :meth:`repro.system.CaseStudySystem.analyze` build
one.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional

from repro.analysis.columnar import ColumnarEvents
from repro.analysis.events import decode_capture
from repro.analysis.summary import (
    RECORDER_SLOT,
    Anomaly,
    FoldRecorder,
    SummaryAccumulator,
)
from repro.instrument.namefile import NameTable
from repro.profiler.capture import Capture


@dataclasses.dataclass
class CallNode:
    """One call frame in the reconstructed tree."""

    name: str
    enter_us: int
    proc: str
    is_swtch: bool = False
    #: Frame synthesised to absorb an unmatched exit (capture truncation).
    synthetic: bool = False
    #: Exit never seen (open at end of capture); closed administratively.
    truncated: bool = False
    exit_us: Optional[int] = None
    self_us: int = 0
    depth: int = 0
    children: list["CallNode"] = dataclasses.field(default_factory=list)
    inline_marks: list[tuple[int, str]] = dataclasses.field(default_factory=list)
    _inclusive_us: Optional[int] = dataclasses.field(default=None, repr=False)

    @property
    def closed(self) -> bool:
        return self.exit_us is not None

    @property
    def inclusive_us(self) -> int:
        """Self time plus all child subtrees (cached once closed)."""
        if self._inclusive_us is None:
            self._inclusive_us = self.self_us + sum(
                child.inclusive_us for child in self.children
            )
        return self._inclusive_us

    def walk(self) -> Iterable["CallNode"]:
        """This node and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclasses.dataclass
class CallTreeAnalysis:
    """The reconstructed forest plus the paper's headline CPU accounting."""

    roots: list[CallNode]
    anomalies: list[Anomaly]
    wall_us: int
    idle_us: int
    unattributed_us: int
    event_count: int
    context_switches: int
    procs: tuple[str, ...]
    #: Inline marks that fired outside any open frame (user-mode points).
    orphan_marks: list[tuple[int, str]] = dataclasses.field(default_factory=list)
    #: The sealed fold that recorded the tree: its summary and arcs are
    #: the reports a standalone fold of the same capture prints.
    fold: Optional[SummaryAccumulator] = None

    @property
    def busy_us(self) -> int:
        """Accumulated run time: everything that is not idle."""
        return self.wall_us - self.idle_us

    @property
    def busy_fraction(self) -> float:
        """CPU utilisation over the capture window."""
        if self.wall_us == 0:
            return 0.0
        return self.busy_us / self.wall_us

    def nodes(self) -> Iterable[CallNode]:
        """Every frame in the forest."""
        for root in self.roots:
            yield from root.walk()

    def nodes_named(self, name: str) -> list[CallNode]:
        """Every frame for function *name*."""
        return [node for node in self.nodes() if node.name == name]


class _TreeRecorder(FoldRecorder):
    """Records the fold's reconstruction as a :class:`CallNode` forest.

    Each open frame carries its node in the recorder slot.
    """

    def __init__(self) -> None:
        self.roots: list[CallNode] = []
        self.orphan_marks: list[tuple[int, str]] = []

    def open_frame(self, stack, frame: list) -> None:
        frames = stack.frames
        node = CallNode(
            name=frame[0],
            enter_us=frame[4],
            proc=stack.proc,
            is_swtch=frame[3],
            depth=len(frames) - 1,
        )
        if len(frames) > 1:
            frames[-2][RECORDER_SLOT].children.append(node)
        else:
            self.roots.append(node)
        frame.append(node)

    def close_frame(self, stack, frame: list, exit_us: int, truncated: bool) -> None:
        node = frame[RECORDER_SLOT]
        node.exit_us = exit_us
        node.self_us = frame[1]
        node.truncated = truncated
        node._inclusive_us = frame[1] + frame[2]

    def synthetic_frame(self, stack, name: str, exit_us: int, is_swtch: bool) -> None:
        frames = stack.frames
        node = CallNode(
            name=name,
            enter_us=stack.block_start_us,
            proc=stack.proc,
            is_swtch=is_swtch,
            synthetic=True,
            exit_us=exit_us,
            # An unmatched swtch exit stands outside the call nesting.
            depth=0 if is_swtch else len(frames),
        )
        if frames:
            frames[-1][RECORDER_SLOT].children.append(node)
        else:
            self.roots.append(node)

    def mark(self, stack, time_us: int, name: str) -> None:
        if stack.frames:
            stack.frames[-1][RECORDER_SLOT].inline_marks.append((time_us, name))
        else:
            # A point hit with no open frame: user-mode inline marks
            # between profiled calls land here.
            self.orphan_marks.append((time_us, name))

    def analysis(self, fold: SummaryAccumulator) -> CallTreeAnalysis:
        """The recorded forest with the (sealed) fold's accounting."""
        summary = fold.summary()
        return CallTreeAnalysis(
            roots=self.roots,
            anomalies=fold.anomalies,
            wall_us=summary.wall_us,
            idle_us=summary.idle_us,
            unattributed_us=fold.unattributed_us,
            event_count=fold.event_count,
            context_switches=fold.context_switches,
            procs=fold.procs,
            orphan_marks=self.orphan_marks,
            fold=fold,
        )


def build_call_tree(events: ColumnarEvents, names: NameTable) -> CallTreeAnalysis:
    """Reconstruct the call forest from a decoded batch.

    The summary fold steps the batch's absolute times and its tags,
    looked up in *names*, through its one loop
    (:meth:`~repro.analysis.summary.SummaryAccumulator.feed_events`) with
    a tree recorder attached, so the forest, its anomalies and its
    accounting are the fold's own.
    """
    fold = SummaryAccumulator(names)
    recorder = _TreeRecorder()
    fold.recorder = recorder
    fold.feed_events(events)
    return recorder.analysis(fold)


def analyze_capture(capture: Capture) -> CallTreeAnalysis:
    """Decode *capture* and reconstruct its call forest in one step."""
    return build_call_tree(decode_capture(capture), capture.names)
