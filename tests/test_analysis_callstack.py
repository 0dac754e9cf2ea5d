"""Tests for call-tree reconstruction and context-switch splitting."""

from __future__ import annotations

import pathlib
import random
import sys

import oracles
import pytest
from stream_helpers import capture_from_records, columns_of, stream

from repro.analysis import callstack, columnar
from repro.analysis.callstack import _TreeRecorder, analyze_capture
from repro.analysis.events import decode_capture
from repro.analysis.gprof import gprof_from_fold
from repro.analysis.summary import SPONTANEOUS, FoldRecorder, SummaryAccumulator
from repro.instrument.namefile import NameTable
from repro.profiler.capture import Capture
from repro.profiler.ram import RawRecord
from repro.telemetry import TELEMETRY

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


class TestSimpleNesting:
    def test_single_call(self, simple_names):
        analysis = analyze_capture(
            stream(simple_names, (">", "main", 0), ("<", "main", 100))
        )
        (root,) = analysis.roots
        assert root.name == "main"
        assert root.self_us == 100
        assert root.inclusive_us == 100
        assert root.closed and not root.truncated

    def test_nested_net_vs_elapsed(self, simple_names):
        """The paper's tcp_input example: elapsed includes subroutines,
        net excludes them."""
        analysis = analyze_capture(
            stream(
                simple_names,
                (">", "main", 0),
                (">", "read", 10),
                (">", "bcopy", 20),
                ("<", "bcopy", 70),
                ("<", "read", 90),
                ("<", "main", 100),
            )
        )
        (main,) = analysis.roots
        read = main.children[0]
        bcopy = read.children[0]
        assert main.inclusive_us == 100 and main.self_us == 20
        assert read.inclusive_us == 80 and read.self_us == 30
        assert bcopy.inclusive_us == 50 and bcopy.self_us == 50

    def test_sequential_siblings(self, simple_names):
        analysis = analyze_capture(
            stream(
                simple_names,
                (">", "main", 0),
                (">", "bcopy", 5),
                ("<", "bcopy", 15),
                (">", "cksum", 20),
                ("<", "cksum", 50),
                ("<", "main", 60),
            )
        )
        (main,) = analysis.roots
        assert [c.name for c in main.children] == ["bcopy", "cksum"]
        assert main.self_us == 60 - 10 - 30

    def test_inline_marks_attach_to_innermost(self, simple_names):
        analysis = analyze_capture(
            stream(
                simple_names,
                (">", "main", 0),
                (">", "read", 5),
                ("=", "MGET", 7),
                ("<", "read", 10),
                ("<", "main", 20),
            )
        )
        read = analysis.roots[0].children[0]
        assert read.inline_marks == [(7, "MGET")]


class TestContextSwitches:
    def test_idle_time_is_swtch_self(self, simple_names):
        """Paper: "The time in swtch itself is counted as CPU idle time,
        except when device interrupts occur"."""
        analysis = analyze_capture(
            stream(
                simple_names,
                (">", "main", 0),
                (">", "tsleep", 100),
                (">", "swtch", 120),
                # interrupt fires while idle: active, not idle
                (">", "intr", 200),
                ("<", "intr", 260),
                ("<", "swtch", 300),
                ("<", "tsleep", 310),
                ("<", "main", 400),
            )
        )
        # swtch self time: (200-120) + (300-260) = 120 us idle
        assert analysis.idle_us == 120
        assert analysis.busy_us == analysis.wall_us - 120
        assert analysis.context_switches == 1

    def test_suspended_stack_does_not_accumulate(self, simple_names):
        """While proc A sleeps and proc B runs, A's open frames gain no
        time (tsleep's "(22 us, 25 total)" in Figure 4)."""
        analysis = analyze_capture(
            stream(
                simple_names,
                # proc A runs, blocks
                (">", "main", 0),
                (">", "tsleep", 10),
                (">", "swtch", 20),
                ("<", "swtch", 30),      # switch in: next event is ENTRY
                # proc B (fresh stack) runs 1000 us
                (">", "read", 40),
                (">", "tsleep", 900),
                (">", "swtch", 910),
                ("<", "swtch", 1030),    # switch back to A (exit tsleep next)
                ("<", "tsleep", 1040),
                ("<", "main", 1100),
            )
        )
        (tsleep_a,) = [
            n
            for n in analysis.nodes_named("tsleep")
            if n.proc == analysis.roots[0].proc
        ]
        # A's tsleep: 10 us before swtch entry + 10 us after switch-in;
        # the 1000 us while B ran are not charged to it.
        assert tsleep_a.self_us == (20 - 10) + (1040 - 1030)
        # swtch subtree time is charged inside tsleep though:
        assert tsleep_a.inclusive_us == tsleep_a.self_us + 10  # first swtch frame

    def test_two_procs_resolved_by_matching_exit(self, simple_names):
        analysis = analyze_capture(
            stream(
                simple_names,
                (">", "main", 0),
                (">", "tsleep", 10),
                (">", "swtch", 20),
                ("<", "swtch", 50),
                (">", "read", 60),       # proc B starts fresh
                (">", "tsleep", 70),
                (">", "swtch", 80),
                ("<", "swtch", 100),
                ("<", "tsleep", 110),    # matches A's open tsleep
                ("<", "main", 150),
            )
        )
        procs = {root.proc for root in analysis.roots}
        assert len(procs) == 2
        main = analysis.nodes_named("main")[0]
        assert main.closed and main.exit_us == 150

    def test_single_proc_resumes_itself(self, simple_names):
        """One process sleeping and waking: the same stack resumes."""
        analysis = analyze_capture(
            stream(
                simple_names,
                (">", "main", 0),
                (">", "tsleep", 10),
                (">", "swtch", 20),
                ("<", "swtch", 500),
                ("<", "tsleep", 510),
                ("<", "main", 600),
            )
        )
        assert len({root.proc for root in analysis.roots}) == 1
        assert analysis.idle_us == 480

    def test_unmatched_swtch_exit_tolerated(self, simple_names):
        """Capture armed while the CPU was already idle inside swtch."""
        analysis = analyze_capture(
            stream(
                simple_names,
                ("<", "swtch", 100),
                (">", "main", 110),
                ("<", "main", 200),
            )
        )
        kinds = [a.kind for a in analysis.anomalies]
        assert "unmatched-swtch-exit" in kinds
        assert analysis.context_switches == 1


def _node_shape(node):
    return (
        node.name, node.proc, node.enter_us, node.exit_us, node.self_us,
        node.inclusive_us, node.is_swtch, node.synthetic, node.truncated,
        [_node_shape(child) for child in node.children],
    )


def _fold_in_batches(capture, size):
    """The call tree and summary of a fold fed *capture* *size* records
    at a time."""
    fold = SummaryAccumulator(capture.names)
    recorder = _TreeRecorder()
    fold.recorder = recorder
    records = capture.records.to_records()
    for start in range(0, len(records), size):
        fold.feed_columns(columns_of(records[start : start + size]))
    return recorder.analysis(fold), fold.summary()


class TestSwitchExitPaths:
    """A ``swtch`` exit closes its frame as the matched exit of the
    innermost frame, or, with frames left open above it, by closing
    through them.  Either way the switch's self time is idle and the
    stack is suspended until a later block resumes it."""

    def _records(self, simple_names):
        return stream(
            simple_names,
            (">", "main", 0),
            (">", "tsleep", 10),
            (">", "swtch", 20),
            (">", "intr", 50),     # taken while idle; its exit was lost
            ("<", "swtch", 80),    # intr still open above swtch
            ("<", "tsleep", 90),   # the next block unwinds the same stack
            ("<", "main", 100),
        )

    def test_exit_with_a_frame_open_above_swtch(self, simple_names):
        capture = self._records(simple_names)
        reference = oracles.reference_call_tree(
            list(oracles.decoded_events(capture.records.to_records(), simple_names))
        )
        for size in (len(capture.records), 1):
            analysis, summary = _fold_in_batches(capture, size)
            assert [a.kind for a in analysis.anomalies] == ["missed-exit"]
            (intr,) = analysis.nodes_named("intr")
            assert intr.truncated and intr.exit_us == 80 and intr.self_us == 30
            # swtch ran 20-50 before the interrupt: that is the idle time.
            assert analysis.idle_us == summary.idle_us == 30
            # Suspended at the switch and resumed by the next block: one
            # process, whose tsleep gains the 10 us after the switch-in.
            assert analysis.context_switches == 1
            assert analysis.procs == ("P0",)
            (tsleep,) = analysis.nodes_named("tsleep")
            assert not tsleep.truncated and tsleep.exit_us == 90
            assert tsleep.self_us == (20 - 10) + (90 - 80)

            assert summary.format() == oracles.reference_summary(reference).format()
            assert analysis.anomalies == reference.anomalies
            assert analysis.procs == reference.procs
            assert [_node_shape(root) for root in analysis.roots] == [
                _node_shape(root) for root in reference.roots
            ]

    def test_round_robin_peak_and_switch_count(self, simple_names):
        """Three processes block in ``tsleep`` in turn, four rounds: every
        switch is a matched exit, and all three stacks are suspended at
        once right after the third process switches out."""
        steps, t = [], 0
        for first in ("main", "read", "bcopy"):  # each process starts fresh
            steps += [(">", first, t), (">", "tsleep", t + 1), (">", "swtch", t + 2)]
            steps.append(("<", "swtch", t + 5))
            t += 10
        for _ in range(3 * 3):  # then each resumes its tsleep and blocks again
            steps += [("<", "tsleep", t), (">", "tsleep", t + 1)]
            steps += [(">", "swtch", t + 2), ("<", "swtch", t + 5)]
            t += 10
        steps.append(("<", "tsleep", t))  # the first process runs on
        capture = stream(simple_names, *steps)
        TELEMETRY.enable()
        try:
            for size in (len(capture.records), 1):
                TELEMETRY.reset()
                analysis, summary = _fold_in_batches(capture, size)
                assert analysis.anomalies == []
                assert analysis.procs == ("P0", "P1", "P2")
                assert analysis.context_switches == 12
                assert summary.idle_us == 12 * 3
                peak = TELEMETRY.registry.get("analysis.peak.suspended_procs")
                assert peak.value == 3
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()


class TestTruncation:
    def test_unmatched_exit_synthesised(self, simple_names):
        analysis = analyze_capture(
            stream(
                simple_names,
                ("<", "read", 50),
                (">", "main", 60),
                ("<", "main", 100),
            )
        )
        synthetic = [n for n in analysis.nodes() if n.synthetic]
        assert len(synthetic) == 1 and synthetic[0].name == "read"
        assert any(a.kind == "unmatched-exit" for a in analysis.anomalies)

    def test_open_frames_closed_at_end(self, simple_names):
        analysis = analyze_capture(
            stream(
                simple_names,
                (">", "main", 0),
                (">", "read", 10),
            )
        )
        read = analysis.nodes_named("read")[0]
        assert read.truncated and read.exit_us == 10
        main = analysis.nodes_named("main")[0]
        assert main.truncated and main.exit_us == 10

    def test_missed_exit_recovery(self, simple_names):
        """An exit arriving for a function below the top closes the
        intervening frames (multi-exit-point tolerance)."""
        analysis = analyze_capture(
            stream(
                simple_names,
                (">", "main", 0),
                (">", "read", 10),
                (">", "bcopy", 20),
                ("<", "read", 40),   # bcopy's exit was never recorded
                ("<", "main", 60),
            )
        )
        assert any(a.kind == "missed-exit" for a in analysis.anomalies)
        bcopy = analysis.nodes_named("bcopy")[0]
        assert bcopy.truncated and bcopy.exit_us == 40
        main = analysis.nodes_named("main")[0]
        assert main.closed and not main.truncated

    def test_empty_capture(self, simple_names):
        analysis = analyze_capture(stream(simple_names))
        assert analysis.roots == [] and analysis.wall_us == 0


class TestConservation:
    def test_time_is_conserved(self, simple_names):
        """Wall time equals attributed frame time plus unattributed gaps."""
        capture = stream(
            simple_names,
            (">", "main", 0),
            (">", "bcopy", 10),
            ("<", "bcopy", 30),
            ("<", "main", 50),
            (">", "read", 80),      # 30 us gap outside any frame
            ("<", "read", 100),
        )
        analysis = analyze_capture(capture)
        attributed = sum(n.self_us for n in analysis.nodes())
        assert attributed + analysis.unattributed_us == analysis.wall_us

    def test_inclusive_equals_subtree_self(self, simple_names):
        capture = stream(
            simple_names,
            (">", "main", 0),
            (">", "read", 10),
            (">", "bcopy", 20),
            ("<", "bcopy", 45),
            ("<", "read", 70),
            (">", "cksum", 75),
            ("<", "cksum", 99),
            ("<", "main", 120),
        )
        analysis = analyze_capture(capture)
        for node in analysis.nodes():
            assert node.inclusive_us == sum(d.self_us for d in node.walk())


class TestShardBoundaryIdle:
    """Regression: a ``swtch`` entry as a shard's final event must not
    double-count the idle interval that crosses the cut."""

    def _records(self, simple_names):
        # Two scheduling blocks separated by 1000 us of idle.  The cut
        # lands after the first swtch ENTRY (event 3), so that idle
        # interval crosses from one fed batch into the next.
        capture = stream(
            simple_names,
            ("<", "swtch", 100),
            (">", "main", 110),
            ("<", "main", 170),
            (">", "swtch", 180),    # shard 0 ends here; 1000 us idle follows
            ("<", "swtch", 1180),
            (">", "read", 1200),
            ("<", "read", 1260),
            (">", "swtch", 1300),
        )
        return capture

    def _fold(self, simple_names, records, *cuts):
        from repro.analysis.summary import SummaryAccumulator

        accumulator = SummaryAccumulator(simple_names)
        bounds = [0, *cuts, len(records)]
        for start, stop in zip(bounds, bounds[1:]):
            accumulator.feed_columns(columns_of(records[start:stop]))
        return accumulator.summary()

    def test_merged_idle_equals_batch_idle(self, simple_names):
        from repro.analysis.summary import summarize

        capture = self._records(simple_names)
        batch = summarize(analyze_capture(capture))
        # Fed in two batches cut right after the swtch entry: the 1000 us
        # of idle accrues once, inside the swtch frame that stays open
        # across the cut — idle must come out 1000, not 2000 or 0.
        merged = self._fold(simple_names, capture.records.to_records(), 4)
        assert merged.idle_us == batch.idle_us == 1000
        assert merged.wall_us == batch.wall_us
        assert merged.format() == batch.format()

    def test_trailing_swtch_entry_stays_open_not_idle_twice(self, simple_names):
        """An open swtch frame at the end of a fold is closed at its last
        event time: zero extra idle."""
        capture = self._records(simple_names)
        # The first block alone sees zero idle: the leading swtch exit is
        # unmatched and the trailing entry closes with zero self time.
        solo = self._fold(simple_names, capture.records.to_records()[:4])
        assert solo.idle_us == 0
        whole = self._fold(simple_names, capture.records.to_records())
        assert whole.idle_us == analyze_capture(capture).idle_us


#: The fold's high-water marks, read out at close().
PEAKS = (
    "analysis.peak.pending_block",
    "analysis.peak.suspended_procs",
    "analysis.peak.functions",
)


def _steps(names, *steps):
    """Records of ``(op, name, time_us)`` steps as :func:`stream` builds
    them, plus ``("?", tag, time_us)`` for a tag no name file knows."""
    records = []
    for op, name, time_us in steps:
        if op == "?":
            records.append(RawRecord(tag=name, time=time_us))
        else:
            records += stream(names, (op, name, time_us)).records.to_records()
    return records


class TestLeafPairs:
    """An entry whose next record is its own exit is stepped as one call
    when no recorder is attached; a fold with a recorder steps the same
    two records through a frame.  Both must equal the reference tree,
    whether the stream comes whole, one record at a time or cut at
    random."""

    CASES = {
        # Two tree roots; 6 us pass outside any frame between them.
        "root leaf after unattributed time": [
            (">", "bcopy", 0), ("<", "bcopy", 4), (">", "main", 10), ("<", "main", 25),
        ],
        # bcopy's 7 us become main's child time.
        "leaf inside an open frame": [
            (">", "main", 0), (">", "read", 3), ("<", "read", 5),
            (">", "bcopy", 5), ("<", "bcopy", 12), ("<", "main", 20),
        ],
        # The process switches out in user mode, twice; each block ends in
        # a switch before it returns into a frame, so it resumes itself.
        "swtch pair from user mode": [
            (">", "main", 0), ("<", "main", 5), (">", "swtch", 10), ("<", "swtch", 30),
            (">", "read", 35), ("<", "read", 40), (">", "swtch", 41), ("<", "swtch", 50),
            (">", "cksum", 52), ("<", "cksum", 60),
        ],
        # Asleep in tsleep twice; the block after the second switch never
        # names its process, so it is held to the end of the stream.
        "swtch pair inside tsleep, then a held tail": [
            (">", "main", 0), (">", "tsleep", 5), (">", "swtch", 8), ("<", "swtch", 20),
            ("<", "tsleep", 25), (">", "tsleep", 26), (">", "swtch", 27),
            ("<", "swtch", 40), (">", "bcopy", 41), ("<", "bcopy", 44),
            (">", "read", 45), (">", "cksum", 46), ("<", "cksum", 48),
        ],
        # bcopy's exit was lost: main's exit closes it administratively.
        "entry followed by another function's exit": [
            (">", "main", 0), (">", "bcopy", 2), ("<", "main", 9), (">", "read", 10),
            ("<", "read", 11),
        ],
        "entry followed by an unknown tag": [
            (">", "main", 0), (">", "bcopy", 2), ("?", 777, 4), ("<", "bcopy", 6),
            ("<", "main", 9),
        ],
        "entry followed by an inline mark": [
            (">", "main", 0), (">", "bcopy", 2), ("=", "MGET", 4), ("<", "bcopy", 6),
            ("<", "main", 9),
        ],
    }

    @staticmethod
    def _fold(names, records, cuts, recorder):
        """Fold *records* cut at *cuts*; its state and peaks, sealed."""
        fold = SummaryAccumulator(names)
        fold.recorder = recorder
        bounds = [0, *cuts, len(records)]
        for start, stop in zip(bounds, bounds[1:]):
            fold.feed_columns(columns_of(records[start:stop]))
        TELEMETRY.enable()
        try:
            TELEMETRY.reset()
            fold.close()
            peaks = {name: TELEMETRY.registry.get(name).value for name in PEAKS}
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        arcs = [arc[1:] for arc in sorted(fold.arcs())]
        state = (
            fold.summary().format(), arcs, fold.anomalies, fold.procs,
            fold.unattributed_us, fold.context_switches,
        )
        return state, peaks

    @staticmethod
    def _cuts(n):
        """Whole, one record at a time, and three random cuttings."""
        yield []
        yield list(range(1, n))
        for seed in range(3):
            rng = random.Random(seed)
            yield sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))

    @pytest.mark.parametrize("case", list(CASES))
    def test_pair_step_equals_reference_and_frame_path(self, simple_names, case):
        records = _steps(simple_names, *self.CASES[case])
        reference = oracles.reference_call_tree(
            list(oracles.decoded_events(records, simple_names))
        )
        want = (
            oracles.reference_summary(reference).format(),
            oracles.reference_arcs(reference),
            reference.anomalies, reference.procs, reference.unattributed_us,
            reference.context_switches,
        )
        functions = {node.name for node in reference.nodes() if not node.synthetic}
        held = "analysis.peak.pending_block"
        for cuts in self._cuts(len(records)):
            state, peaks = self._fold(simple_names, records, cuts, None)
            assert state == want, cuts
            assert peaks["analysis.peak.functions"] == len(functions)
            framed, framed_peaks = self._fold(simple_names, records, cuts, FoldRecorder())
            assert framed == state, cuts
            assert {**peaks, held: 0} == {**framed_peaks, held: 0}, cuts
            # A switch-in that needs no look-ahead holds nothing: every
            # switch out of user mode, none out of tsleep.
            if case == "swtch pair from user mode":
                assert peaks[held] == 0, cuts
            else:
                assert peaks[held] == framed_peaks[held], cuts

    def test_pair_cut_by_a_batch_boundary(self, simple_names):
        """The entry ends one batch and its exit opens the next: the
        entry sees no next tag, so the pair goes through a frame; a pair
        whose exit ends its batch is stepped whole."""
        records = _steps(simple_names, *self.CASES["leaf inside an open frame"])
        whole, _ = self._fold(simple_names, records, [], None)
        for cut in (4, 5):  # after bcopy's entry, after its exit
            assert self._fold(simple_names, records, [cut], None)[0] == whole

    def test_accounting(self, simple_names):
        """The pair step's arithmetic, by hand."""

        def fold(case):
            accumulator = SummaryAccumulator(simple_names)
            records = _steps(simple_names, *self.CASES[case])
            return accumulator.feed_columns(columns_of(records))

        roots = fold("root leaf after unattributed time")
        assert roots.unattributed_us == 6
        assert roots.summary().get("bcopy").net_us == 4
        main = fold("leaf inside an open frame").summary().get("main")
        assert (main.elapsed_us, main.net_us) == (20, 20 - 2 - 7)
        switches = fold("swtch pair from user mode")
        assert switches.summary().idle_us == 20 + 9
        assert switches.context_switches == 2 and switches.procs == ("P0",)


#: One turn of the 24-bit counter, in microseconds.
WRAP = 1 << 24

RUN_COUNTERS = ("analysis.leaf_runs", "analysis.leaf_run_calls")


class TestLeafRuns:
    """A leaf pair followed by the same call again opens a run, the shape
    of a per-page loop: with no recorder, every whole pair of the run
    left in the batch is added up in one step.  The fold must equal the
    reference tree and the frame path however the stream is cut, gprof's
    preorder keys included."""

    CASES = {
        # main calls bcopy five times; the counter wraps inside the third.
        "run inside a frame, wrapping": [
            (">", "main", WRAP - 40),
            (">", "bcopy", WRAP - 30), ("<", "bcopy", WRAP - 25),
            (">", "bcopy", WRAP - 20), ("<", "bcopy", WRAP - 18),
            (">", "bcopy", WRAP - 3), ("<", "bcopy", WRAP + 4),
            (">", "bcopy", WRAP + 6), ("<", "bcopy", WRAP + 9),
            (">", "bcopy", WRAP + 9), ("<", "bcopy", WRAP + 10),
            ("<", "main", WRAP + 30),
        ],
        # Four tree roots in a row, then a tree that calls bcopy too: the
        # root arc's preorder key is the run's first call.
        "run at depth 0": [
            (">", "bcopy", 0), ("<", "bcopy", 4), (">", "bcopy", 6), ("<", "bcopy", 7),
            (">", "bcopy", 10), ("<", "bcopy", 15),
            (">", "bcopy", 15), ("<", "bcopy", 16),
            (">", "main", 20), (">", "bcopy", 21), ("<", "bcopy", 23),
            ("<", "main", 30),
        ],
        # The stream ends inside the run; main's frame is truncated there.
        "run that ends the stream": [
            (">", "main", 0), (">", "cksum", 1), ("<", "cksum", 3),
            (">", "cksum", 5), ("<", "cksum", 8), (">", "cksum", 8), ("<", "cksum", 12),
        ],
        # The third bcopy calls cksum: the run holds only the second.
        "run broken by a nested call": [
            (">", "main", 0), (">", "bcopy", 1), ("<", "bcopy", 2),
            (">", "bcopy", 3), ("<", "bcopy", 5), (">", "bcopy", 6), (">", "cksum", 7),
            ("<", "cksum", 9), ("<", "bcopy", 10), ("<", "main", 12),
        ],
        "run broken by an inline mark": [
            (">", "bcopy", 0), ("<", "bcopy", 1), (">", "bcopy", 2), ("<", "bcopy", 3),
            ("=", "MGET", 4), (">", "bcopy", 5), ("<", "bcopy", 6), (">", "bcopy", 8),
            ("<", "bcopy", 9),
        ],
        # Each swtch pair is a context switch of its own, never a run.
        "swtch pairs back to back": [
            (">", "main", 0), ("<", "main", 2), (">", "swtch", 3), ("<", "swtch", 5),
            (">", "swtch", 6), ("<", "swtch", 9), (">", "read", 10), ("<", "read", 11),
        ],
    }

    #: The whole stream's ``(bulk steps, calls they added up)``.
    RUNS = {
        "run inside a frame, wrapping": [1, 4],
        "run at depth 0": [1, 3],
        "run that ends the stream": [1, 2],
        "run broken by a nested call": [1, 1],
        "run broken by an inline mark": [2, 2],
        "swtch pairs back to back": [0, 0],
    }

    @staticmethod
    def _fold(names, records, cuts, recorder=None):
        """Fold *records* cut at *cuts*: its sealed state, arcs with their
        preorder keys and the gprof text, and its run counters."""
        fold = SummaryAccumulator(names)
        fold.recorder = recorder
        bounds = [0, *cuts, len(records)]
        for start, stop in zip(bounds, bounds[1:]):
            fold.feed_columns(columns_of(records[start:stop]))
        TELEMETRY.enable()
        try:
            TELEMETRY.reset()
            fold.close()
            runs = [TELEMETRY.registry.get(name).value for name in RUN_COUNTERS]
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        state = (
            fold.summary().format(), sorted(fold.arcs()),
            gprof_from_fold(fold).format(),
            fold.anomalies, fold.procs, fold.unattributed_us, fold.context_switches,
        )
        return state, runs

    @pytest.mark.parametrize("case", list(CASES))
    def test_run_step_equals_reference_and_frame_path(self, simple_names, case):
        records = _steps(simple_names, *self.CASES[case])
        reference = oracles.reference_call_tree(
            list(oracles.decoded_events(records, simple_names))
        )
        whole, runs = self._fold(simple_names, records, [])
        assert runs == self.RUNS[case]
        summary, arcs, gprof, *rest = whole
        assert summary == oracles.reference_summary(reference).format()
        assert [arc[1:] for arc in arcs] == oracles.reference_arcs(reference)
        assert gprof == oracles.reference_gprof_report(reference).format()
        assert rest == [
            reference.anomalies, reference.procs, reference.unattributed_us,
            reference.context_switches,
        ]
        for cuts in TestLeafPairs._cuts(len(records)):
            assert self._fold(simple_names, records, cuts)[0] == whole, cuts
            framed, no_runs = self._fold(simple_names, records, cuts, FoldRecorder())
            assert (framed, no_runs) == (whole, [0, 0]), cuts

    def test_run_cut_by_a_batch_end(self, simple_names):
        """A batch end inside a run splits it: the pair it cuts, if any,
        takes the frame path, and the next batch opens a run of its own
        with its next pair."""
        records = _steps(simple_names, *self.CASES["run inside a frame, wrapping"])
        whole, _ = self._fold(simple_names, records, [])
        # 0 main, then bcopy's five pairs at 1-2, 3-4, 5-6, 7-8, 9-10.
        cuts = {4: [1, 2], 5: [2, 3], 6: [2, 2], 8: [1, 2], 10: [1, 3]}
        for cut, runs in cuts.items():
            assert self._fold(simple_names, records, [cut]) == (whole, runs), cut

    def test_accounting(self, simple_names):
        """The run step's arithmetic, by hand, wrapped counter included."""
        fold = SummaryAccumulator(simple_names)
        records = _steps(simple_names, *self.CASES["run inside a frame, wrapping"])
        summary = fold.feed_columns(columns_of(records)).summary()
        bcopy, main = summary.get("bcopy"), summary.get("main")
        assert (bcopy.calls, bcopy.elapsed_us, bcopy.max_us, bcopy.min_us) == (
            5, 5 + 2 + 7 + 3 + 1, 7, 1,
        )
        # main's own time: 10 us before the loop, 5 + 15 + 2 + 0 between
        # the calls and 20 after them.
        assert (main.elapsed_us, main.net_us) == (70, 10 + 22 + 20)
        depth_0 = SummaryAccumulator(simple_names)
        records = _steps(simple_names, *self.CASES["run at depth 0"])
        depth_0.feed_columns(columns_of(records))
        assert depth_0.unattributed_us == 2 + 3 + 0 + 4

    def test_a_depth_0_run_leaves_its_last_call_as_the_root(self, simple_names):
        """Each call of a run at depth 0 is a tree root; the run step
        leaves the stack where stepping each call would, its current tree
        the last call's (a recorder reads it as ``stack.root``)."""
        records = _steps(simple_names, *self.CASES["run at depth 0"][:8])
        roots = []
        for recorder in (None, FoldRecorder()):
            fold = SummaryAccumulator(simple_names)
            fold.recorder = recorder
            fold.feed_columns(columns_of(records))
            roots.append(fold._current.root)
        assert roots == [6, 6]

    @pytest.mark.parametrize("case", list(CASES))
    def test_feed_events_with_no_recorder(self, simple_names, case):
        """Decoded batches run the same loop with an all-ones mask: the
        same runs, the same sums."""
        records = _steps(simple_names, *self.CASES[case])
        events = decode_capture(capture_from_records(records, simple_names))
        fold = SummaryAccumulator(simple_names).feed_events(events)
        framed = SummaryAccumulator(simple_names)
        framed.recorder = FoldRecorder()
        framed.feed_events(events)
        by_columns = SummaryAccumulator(simple_names).feed_columns(columns_of(records))
        assert [fold._leaf_runs, fold._leaf_run_calls] == self.RUNS[case]
        for other in (framed, by_columns):
            assert fold.summary().format() == other.summary().format()
            assert sorted(fold.arcs()) == sorted(other.arcs())
            assert fold.anomalies == other.anomalies
            assert fold.unattributed_us == other.unattributed_us


LOOK_AHEAD_COUNTERS = ("analysis.look_aheads", "analysis.look_ahead_reads")


class TestSwitchIns:
    """Which process resumes after a switch.  With no recorder and no
    suspended process inside a call, the fold resumes the least recently
    suspended (empty) stack at once; the block's first ``swtch`` entry
    confirms that, a repaired exit at depth 0 refutes it, and one inside
    the block's frames hands it to a look-ahead.  Every other switch-in
    looks ahead, jumping runs of one leaf pair.  The fold must equal the
    reference tree and the fold with a recorder (which always looks
    ahead) however the stream is cut."""

    CASES = {
        # Two switches out of user mode; the first blocks in an idle loop
        # an interrupt visits, so its swtch frame is pushed.
        "switches out of user mode": [
            (">", "main", 0), (">", "read", 2), ("<", "read", 4), ("<", "main", 6),
            (">", "swtch", 8), (">", "intr", 9), ("<", "intr", 12), ("<", "swtch", 20),
            (">", "bcopy", 22), ("<", "bcopy", 25), (">", "swtch", 26), ("<", "swtch", 30),
            (">", "cksum", 31), ("<", "cksum", 33),
        ],
        # An exit no frame matches inside the idle loop's interrupt, after
        # the swtch entry that settled the switch-in.
        "a repair inside the idle loop": [
            (">", "main", 0), ("<", "main", 3), (">", "swtch", 4), ("<", "swtch", 8),
            (">", "read", 10), ("<", "read", 12), (">", "swtch", 14), (">", "intr", 16),
            ("<", "cksum", 18), ("<", "intr", 20), ("<", "swtch", 30),
            (">", "bcopy", 31), ("<", "bcopy", 33),
        ],
        # P0 sleeps in tsleep, so its switch-in looks ahead; once it has
        # woken, it switches out of user mode and needs none.
        "a sleeper wakes, then switches out of user mode": [
            (">", "main", 0), (">", "tsleep", 2), (">", "swtch", 3), ("<", "swtch", 10),
            ("<", "tsleep", 12), ("<", "main", 14), (">", "swtch", 16), ("<", "swtch", 20),
            (">", "read", 22), ("<", "read", 24),
        ],
        # read's exit names no frame of P0: a process not seen before ran.
        "an unmatched exit right after the switch": [
            (">", "main", 0), ("<", "main", 4), (">", "swtch", 5), ("<", "swtch", 9),
            ("<", "read", 12), (">", "bcopy", 14), ("<", "bcopy", 16),
            (">", "swtch", 18), ("<", "swtch", 25), (">", "cksum", 27), ("<", "cksum", 30),
        ],
        # cksum's and bcopy's exits were lost; the look-ahead from read's
        # exit reaches the block's swtch entry.
        "a missed exit, then the swtch entry": [
            (">", "main", 0), ("<", "main", 3), (">", "swtch", 4), ("<", "swtch", 8),
            (">", "read", 10), (">", "bcopy", 12), (">", "cksum", 13), ("<", "read", 20),
            (">", "swtch", 22), ("<", "swtch", 30), (">", "main", 31), ("<", "main", 33),
        ],
        # The look-ahead from read's exit unwinds below the block's start.
        "a missed exit, then exits below the block": [
            (">", "main", 0), ("<", "main", 3), (">", "swtch", 4), ("<", "swtch", 8),
            (">", "read", 10), (">", "bcopy", 12), ("<", "read", 14), ("<", "tsleep", 15),
            ("<", "main", 16), (">", "swtch", 18), ("<", "swtch", 20),
            (">", "cksum", 21), ("<", "cksum", 23),
        ],
        # A stray swtch exit inside read: the look-ahead from cksum's
        # exit runs past it into the next block, over a tsleep pair.
        "a stray swtch exit inside a call": [
            (">", "main", 0), ("<", "main", 2), (">", "swtch", 3), ("<", "swtch", 6),
            (">", "read", 8), (">", "bcopy", 9), ("<", "cksum", 11), ("<", "swtch", 14),
            (">", "tsleep", 15), ("<", "tsleep", 17), ("<", "read", 19),
            (">", "swtch", 21), ("<", "swtch", 24),
        ],
        # The look-ahead from read's exit runs off the end: the stream
        # ends with the rest held and the switch-in unconfirmed.
        "a missed exit, then the end": [
            (">", "main", 0), ("<", "main", 3), (">", "swtch", 4), ("<", "swtch", 8),
            (">", "read", 10), (">", "bcopy", 11), ("<", "read", 13), (">", "cksum", 14),
        ],
        "the end of the stream inside a call": [
            (">", "main", 0), ("<", "main", 3), (">", "swtch", 4), ("<", "swtch", 8),
            (">", "read", 10), (">", "bcopy", 11), ("<", "bcopy", 13),
        ],
        # P0 sleeps in tsleep: the look-ahead jumps a run of interrupts
        # at depth 0 and a run of cksum inside read, and a process not seen
        # before blocks; then tsleep's exit names P0.
        "look-ahead over runs at depth 0 and inside a frame": [
            (">", "main", 0), (">", "tsleep", 2), (">", "swtch", 3), ("<", "swtch", 5),
            (">", "intr", 6), ("<", "intr", 7), (">", "intr", 8), ("<", "intr", 9),
            (">", "intr", 10), ("<", "intr", 11), (">", "read", 12),
            (">", "cksum", 13), ("<", "cksum", 14), (">", "cksum", 15), ("<", "cksum", 16),
            ("<", "read", 19), (">", "tsleep", 20), (">", "swtch", 21), ("<", "swtch", 22),
            ("<", "tsleep", 25), ("<", "main", 27),
        ],
        "look-ahead over runs broken by a mark and an unknown tag": [
            (">", "main", 0), (">", "tsleep", 2), (">", "swtch", 3), ("<", "swtch", 5),
            (">", "bcopy", 6), ("<", "bcopy", 7), (">", "bcopy", 8), ("<", "bcopy", 9),
            ("=", "MGET", 10), (">", "bcopy", 11), ("<", "bcopy", 12), ("?", 777, 13),
            (">", "bcopy", 14), ("<", "bcopy", 15), (">", "bcopy", 16), ("<", "bcopy", 17),
            ("<", "tsleep", 20), ("<", "main", 22),
        ],
    }

    #: The whole stream's processes, ``(look-aheads, records they read
    #: one by one)`` and ``analysis.peak.pending_block``, with no recorder.
    PINS = {
        "switches out of user mode": (("P0",), (0, 0), 0),
        "a repair inside the idle loop": (("P0",), (0, 0), 0),
        "a sleeper wakes, then switches out of user mode": (("P0",), (1, 1), 0),
        "an unmatched exit right after the switch": (("P0", "P1"), (0, 0), 0),
        "a missed exit, then the swtch entry": (("P0",), (1, 2), 0),
        "a missed exit, then exits below the block": (("P0", "P1"), (1, 3), 0),
        "a stray swtch exit inside a call": (("P0", "P1", "P2"), (3, 8), 0),
        "a missed exit, then the end": (("P0",), (1, 2), 2),
        "the end of the stream inside a call": (("P0",), (0, 0), 0),
        "look-ahead over runs at depth 0 and inside a frame": (("P0", "P1"), (2, 9), 0),
        "look-ahead over runs broken by a mark and an unknown tag": (("P0",), (1, 9), 0),
    }

    @staticmethod
    def _fold(names, records, cuts, recorder):
        """Fold *records* cut at *cuts*: its sealed state, and its
        look-ahead counters and held-block peak."""
        fold = SummaryAccumulator(names)
        fold.recorder = recorder
        bounds = [0, *cuts, len(records)]
        for start, stop in zip(bounds, bounds[1:]):
            fold.feed_columns(columns_of(records[start:stop]))
        TELEMETRY.enable()
        try:
            TELEMETRY.reset()
            fold.close()
            values = {
                name: TELEMETRY.registry.get(name).value
                for name in (*LOOK_AHEAD_COUNTERS, *PEAKS[:2])
            }
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        state = (
            fold.summary().format(), sorted(fold.arcs()), gprof_from_fold(fold).format(),
            fold.anomalies, fold.procs, fold.unattributed_us, fold.context_switches,
            values["analysis.peak.suspended_procs"],
        )
        counters = tuple(values[name] for name in LOOK_AHEAD_COUNTERS)
        return state, counters, values["analysis.peak.pending_block"]

    @pytest.mark.parametrize("case", list(CASES))
    def test_equals_reference_and_look_ahead(self, simple_names, case):
        records = _steps(simple_names, *self.CASES[case])
        reference = oracles.reference_call_tree(
            list(oracles.decoded_events(records, simple_names))
        )
        (summary, arcs, gprof, *rest, _), counters, held = self._fold(
            simple_names, records, [], None
        )
        assert summary == oracles.reference_summary(reference).format()
        assert [arc[1:] for arc in arcs] == oracles.reference_arcs(reference)
        assert gprof == oracles.reference_gprof_report(reference).format()
        assert rest == [
            reference.anomalies, reference.procs, reference.unattributed_us,
            reference.context_switches,
        ]
        assert (reference.procs, counters, held) == self.PINS[case]
        for cuts in TestLeafPairs._cuts(len(records)):
            state, _, held = self._fold(simple_names, records, cuts, None)
            framed, _, framed_held = self._fold(simple_names, records, cuts, FoldRecorder())
            assert state == framed, cuts
            assert held <= framed_held, cuts

    def test_a_refuted_stack_goes_back_as_it_was(self, simple_names):
        """The stack resumed with no look-ahead returns to the front of
        the suspended ones with no frames and its tree root and block
        start as they were; a process not seen before takes over the
        block, its open frames included.  (Without a recorder, empty
        suspended stacks are interchangeable, so this is pinned on the
        fold's own state.)"""
        records = _steps(
            simple_names,
            # P0 switches out of user mode; read's exit refutes it at once.
            (">", "main", 0), ("<", "main", 3), (">", "swtch", 4), ("<", "swtch", 8),
            ("<", "read", 9), (">", "swtch", 10), ("<", "swtch", 12),
            # P0 again; cksum's exit hands the choice to a look-ahead,
            # which main's exit below the block settles.
            (">", "read", 14), (">", "bcopy", 15), ("<", "cksum", 16),
            ("<", "tsleep", 17), ("<", "main", 18),
        )
        fold = SummaryAccumulator(simple_names)
        fold.feed_columns(columns_of(records[:9]))
        p0, (p1,) = fold._current, fold._suspended
        assert (p0.proc, p0.root, p0.block_start_us) == ("P0", 7, 12)
        assert p1.proc == "P1"
        fold.feed_columns(columns_of(records[9:]))
        assert fold._suspended == [p0, p1]
        # Its tree root is the swtch call it blocked in.
        assert (p0.frames, p0.root, p0.block_start_us) == ([], 2, 0)
        p2 = fold._current
        assert (p2.proc, p2.root, p2.block_start_us) == ("P2", 7, 12)
        assert [frame[0] for frame in p2.frames] == ["read", "bcopy"]

    def test_look_ahead_run_cut_by_a_batch_end(self, simple_names):
        """A batch end inside a run the look-ahead is jumping: the next
        batch continues the look-ahead from the pair the end cut."""
        records = _steps(
            simple_names, *self.CASES["look-ahead over runs broken by a mark and an unknown tag"]
        )
        whole, (_, reads), _ = self._fold(simple_names, records, [], None)
        for cut in range(5, len(records)):
            state, counters, held = self._fold(simple_names, records, [cut], None)
            assert state == whole, cut
            # The look-ahead ran off the first batch only when the
            # block's tsleep exit (record 16) was not in it.
            assert counters[0] == 1 and held == (cut - 4 if cut <= 16 else 0), cut


def _clocked(t, *parts):
    """``(op, name, time)`` steps of ``(op, name, gap)`` parts: each record
    *gap* microseconds after the one before it, the first after *t*."""
    steps = []
    for op, name, gap in parts:
        t += gap
        steps.append((op, name, t))
    return steps


#: read calls bcopy, then cksum, which calls bcopy too: a body three calls
#: deep.  Per copy read takes 14 us (4 its own), cksum 7 (3), the bcopy
#: under read 3 and the one under cksum 4; its caller's own 2 come first.
BODY = [
    (">", "read", 2), (">", "bcopy", 1), ("<", "bcopy", 3), (">", "cksum", 1),
    (">", "bcopy", 2), ("<", "bcopy", 4), ("<", "cksum", 1), ("<", "read", 2),
]

CALL_RUN_COUNTERS = (
    "analysis.call_runs", "analysis.call_run_calls",
    "analysis.leaf_runs", "analysis.leaf_run_calls",
    *LOOK_AHEAD_COUNTERS,
)


class TestCallRuns:
    """A call closed with its entry in the batch and followed by the same
    call again opens a run whatever its body calls, the shape of a
    page-fault loop: with no recorder, every whole repeat of its records
    left in the batch is added up with its whole subtree in one step, and
    a look-ahead jumps the same repeats.  The fold must equal the
    reference tree and the frame path however the stream is cut, gprof's
    preorder keys included."""

    CASES = {
        "a nested body repeated inside a frame": [
            (">", "main", 0), *_clocked(0, *BODY * 3), ("<", "main", 53),
        ],
        # Each repeat is a tree root; main's tree then calls read again.
        "a nested body repeated at depth 0": [
            *_clocked(0, *BODY * 3),
            *_clocked(48, (">", "main", 3), (">", "read", 1), (">", "bcopy", 1),
                      ("<", "bcopy", 2), ("<", "read", 1), ("<", "main", 1)),
        ],
        # The counter wraps inside the third of four copies (between
        # cksum's entry and bcopy's): the second copy is one run, the
        # third is stepped, and the fourth is a run of its own.
        "a wrap inside a body": [
            (">", "main", WRAP - 40), *_clocked(WRAP - 40, *BODY * 4),
            ("<", "main", WRAP + 29),
        ],
        # Each read lasts 1.5 turns of the counter, so its exit snapshot
        # is 0.5 turns after its entry's: every copy is stepped.
        "a body longer than a turn of the counter": [
            (">", "main", 0),
            *_clocked(0, *[(">", "read", 2), (">", "bcopy", WRAP // 2),
                           ("<", "bcopy", WRAP // 2), ("<", "read", WRAP // 2)] * 3),
            ("<", "main", 3 * (WRAP // 2 * 3 + 2) + 5),
        ],
        # The counter wraps between the second and third bcopy: a leaf's
        # time and a gap are one interval each, so it is one run.
        "a wrap between leaf repeats": [
            (">", "main", WRAP - 20),
            *_clocked(WRAP - 20, *[(">", "bcopy", 5), ("<", "bcopy", 2)] * 2),
            *_clocked(WRAP - 8, *[(">", "bcopy", 11), ("<", "bcopy", 2)] * 2),
            ("<", "main", WRAP + 25),
        ],
        "a body holding a mark": [
            (">", "main", 0),
            *_clocked(0, *[(">", "read", 2), (">", "cksum", 1), ("=", "MGET", 1),
                           ("<", "cksum", 2), ("<", "read", 1)] * 3),
            ("<", "main", 25),
        ],
        "a body holding an unknown tag": [
            (">", "main", 0),
            *_clocked(0, *[(">", "read", 2), (">", "cksum", 1), ("?", 777, 1),
                           ("<", "cksum", 2), ("<", "read", 1)] * 3),
            ("<", "main", 25),
        ],
        # read blocks in swtch and resumes, three times over.
        "a body holding a swtch pair": [
            (">", "main", 0),
            *_clocked(0, *[(">", "read", 2), (">", "swtch", 1), ("<", "swtch", 4),
                           ("<", "read", 1)] * 3),
            ("<", "main", 30),
        ],
        # bcopy's exit is lost in every copy: cksum's exit closes it.
        "a body holding a missed exit": [
            (">", "main", 0),
            *_clocked(0, *[(">", "read", 2), (">", "cksum", 1), (">", "bcopy", 1),
                           ("<", "cksum", 2), ("<", "read", 1)] * 3),
            ("<", "main", 25),
        ],
        "a body holding an unmatched exit": [
            (">", "main", 0),
            *_clocked(0, *[(">", "read", 2), ("<", "bcopy", 1), ("<", "read", 1)] * 3),
            ("<", "main", 15),
        ],
        # P0 sleeps in tsleep: the look-ahead reads the first copy, jumps
        # the other two, and tsleep's exit names P0.
        "a look-ahead over a repeated body": [
            (">", "main", 0), (">", "tsleep", 1), (">", "swtch", 2), ("<", "swtch", 7),
            *_clocked(7, *BODY * 3), ("<", "tsleep", 57), ("<", "main", 58),
        ],
    }

    #: The whole stream's call runs and the calls they added up, leaf runs
    #: and their calls, look-aheads and the records they read one by one.
    PINS = {
        "a nested body repeated inside a frame": (1, 8, 0, 0, 0, 0),
        "a nested body repeated at depth 0": (1, 8, 0, 0, 0, 0),
        "a wrap inside a body": (2, 8, 0, 0, 0, 0),
        "a body longer than a turn of the counter": (0, 0, 0, 0, 0, 0),
        "a wrap between leaf repeats": (0, 0, 1, 3, 0, 0),
        "a body holding a mark": (0, 0, 0, 0, 0, 0),
        "a body holding an unknown tag": (0, 0, 0, 0, 0, 0),
        "a body holding a swtch pair": (0, 0, 0, 0, 3, 3),
        "a body holding a missed exit": (0, 0, 0, 0, 0, 0),
        "a body holding an unmatched exit": (0, 0, 0, 0, 0, 0),
        "a look-ahead over a repeated body": (1, 8, 0, 0, 1, 9),
    }

    @staticmethod
    def _fold(names, records, cuts, recorder=None):
        """Fold *records* cut at *cuts*: its sealed state, arcs with their
        preorder keys and the gprof text, and its run and look-ahead
        counters."""
        fold = SummaryAccumulator(names)
        fold.recorder = recorder
        bounds = [0, *cuts, len(records)]
        for start, stop in zip(bounds, bounds[1:]):
            fold.feed_columns(columns_of(records[start:stop]))
        TELEMETRY.enable()
        try:
            TELEMETRY.reset()
            fold.close()
            counters = tuple(
                TELEMETRY.registry.get(name).value for name in CALL_RUN_COUNTERS
            )
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        state = (
            fold.summary().format(), sorted(fold.arcs()),
            gprof_from_fold(fold).format(),
            fold.anomalies, fold.procs, fold.unattributed_us, fold.context_switches,
        )
        return state, counters

    @pytest.mark.parametrize("case", list(CASES))
    def test_run_step_equals_reference_and_frame_path(self, simple_names, case):
        records = _steps(simple_names, *self.CASES[case])
        reference = oracles.reference_call_tree(
            list(oracles.decoded_events(records, simple_names))
        )
        whole, counters = self._fold(simple_names, records, [])
        assert counters == self.PINS[case]
        summary, arcs, gprof, *rest = whole
        assert summary == oracles.reference_summary(reference).format()
        assert [arc[1:] for arc in arcs] == oracles.reference_arcs(reference)
        assert gprof == oracles.reference_gprof_report(reference).format()
        assert rest == [
            reference.anomalies, reference.procs, reference.unattributed_us,
            reference.context_switches,
        ]
        for cuts in TestLeafPairs._cuts(len(records)):
            assert self._fold(simple_names, records, cuts)[0] == whole, cuts
            framed, framed_counters = self._fold(
                simple_names, records, cuts, FoldRecorder()
            )
            assert framed == whole, cuts
            assert framed_counters[:4] == (0, 0, 0, 0), cuts

    #: Where a cut falls in "a nested body repeated inside a frame" (main
    #: at 0, the copies at 1-8, 9-16 and 17-24, main's exit at 25), and
    #: the call runs and calls it leaves.
    BATCH_CUTS = {
        3: (1, 4),  # copy 1 began in the previous batch: stepped
        9: (1, 4),  # copy 1 ends its batch, so it sees no repeat
        12: (0, 0),  # copy 2 is cut: copy 1 sees no whole repeat, then
        # copy 2 began in the previous batch
        17: (1, 4),  # the run holds copy 2 only
        20: (1, 4),  # copy 3 is cut off the run, then stepped
    }

    @pytest.mark.parametrize("cut", list(BATCH_CUTS))
    def test_run_cut_by_a_batch(self, simple_names, cut):
        """A call whose entry lies in an earlier batch is stepped, and a
        run holds only the whole repeats left in its batch."""
        records = _steps(simple_names, *self.CASES["a nested body repeated inside a frame"])
        whole, _ = self._fold(simple_names, records, [])
        state, counters = self._fold(simple_names, records, [cut])
        assert state == whole
        assert counters[:2] == self.BATCH_CUTS[cut]

    def test_a_call_entered_in_an_earlier_batch_is_stepped(self, simple_names):
        """main's exit closes a frame the previous batch opened, and the
        next batch's records read like a repeat of its last ones: a
        period reaching back past the batch's start is no run."""
        records = _steps(simple_names, *_clocked(
            0, (">", "main", 1), (">", "bcopy", 1), ("<", "bcopy", 1),
            (">", "cksum", 1), ("<", "cksum", 1), (">", "bcopy", 1), ("<", "bcopy", 1),
            *[(">", "main", 1), ("<", "main", 1), ("<", "main", 1)] * 2,
        ))
        whole, counters = self._fold(simple_names, records, [])
        assert counters[:4] == (0, 0, 0, 0)
        assert self._fold(simple_names, records, [7]) == (whole, counters)

    def test_accounting(self, simple_names):
        """The run step's arithmetic, by hand: each nested call adds up
        into the arc under its own caller, net of its callees."""
        fold = SummaryAccumulator(simple_names)
        records = _steps(simple_names, *self.CASES["a nested body repeated inside a frame"])
        fold.feed_columns(columns_of(records))
        arcs = {(caller, callee): rest for _, caller, callee, *rest in fold.arcs()}
        assert arcs == {
            (SPONTANEOUS, "main"): [1, 53, 5 + 3 * 2],
            ("main", "read"): [3, 3 * 14, 3 * 4],
            ("read", "bcopy"): [3, 3 * 3, 3 * 3],
            ("read", "cksum"): [3, 3 * 7, 3 * 3],
            ("cksum", "bcopy"): [3, 3 * 4, 3 * 4],
        }
        bcopy = fold.summary().get("bcopy")
        assert (bcopy.calls, bcopy.max_us, bcopy.min_us) == (6, 4, 3)
        depth_0 = SummaryAccumulator(simple_names)
        records = _steps(simple_names, *self.CASES["a nested body repeated at depth 0"])
        depth_0.feed_columns(columns_of(records))
        # 2 us before the second and the third copy, 3 before main.
        assert depth_0.unattributed_us == 2 * 2 + 3
        # Each repeat is a tree root, the last one current; read's arc
        # out of the root table keeps its first call's preorder key.
        keys = {(caller, callee): key for key, caller, callee, *_ in depth_0.arcs()}
        assert keys[(SPONTANEOUS, "read")] == (0, 0)
        assert keys[("cksum", "bcopy")] == (0, 4)
        assert keys[("main", "read")] == (24, 25)

    def test_a_depth_0_run_leaves_its_last_repeat_as_the_root(self, simple_names):
        records = _steps(simple_names, *self.CASES["a nested body repeated at depth 0"][:24])
        roots = []
        for recorder in (None, FoldRecorder()):
            fold = SummaryAccumulator(simple_names)
            fold.recorder = recorder
            fold.feed_columns(columns_of(records))
            roots.append(fold._current.root)
        assert roots == [16, 16]

    #: Call runs and their calls where decoded batches, which never
    #: wrap, take in one run the copies a wrap cut off.
    UNWRAPPED_RUNS = {
        "a wrap inside a body": (1, 12),
        "a body longer than a turn of the counter": (1, 4),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_feed_events_with_no_recorder(self, simple_names, case):
        """Decoded batches never wrap: the same sums, with every repeat of
        a wrapping body in one run."""
        records = _steps(simple_names, *self.CASES[case])
        events = decode_capture(capture_from_records(records, simple_names))
        fold = SummaryAccumulator(simple_names).feed_events(events)
        framed = SummaryAccumulator(simple_names)
        framed.recorder = FoldRecorder()
        framed.feed_events(events)
        assert (fold._call_runs, fold._call_run_calls) == self.UNWRAPPED_RUNS.get(
            case, self.PINS[case][:2]
        )
        assert fold.summary().format() == framed.summary().format()
        assert sorted(fold.arcs()) == sorted(framed.arcs())
        assert fold.anomalies == framed.anomalies
        assert fold.unattributed_us == framed.unattributed_us

    def test_look_ahead_held_across_a_batch_end(self, simple_names):
        """A look-ahead that runs off its batch inside the first copy
        holds the block, and the next batch continues it with the frames
        it opened, so it still jumps the other two copies; the held tail
        is the batch the fold then steps, so they are still one run."""
        records = _steps(simple_names, *self.CASES["a look-ahead over a repeated body"])
        whole, counters = self._fold(simple_names, records, [])
        for cut in range(5, 13):
            state, cut_counters = self._fold(simple_names, records, [cut])
            assert state == whole, cut
            assert cut_counters[:2] == counters[:2], cut
            # Cut after the first copy's exit, the look-ahead only sees
            # the repeat from the second copy's exit: it reads one more.
            assert cut_counters[5] == (9 + 8 if cut == 12 else 9), cut


def _rebind_everywhere(monkeypatch, original, replacement) -> None:
    """Rebind *original* in every ``repro`` module that holds it by name,
    as perfbench's layer tracer (``perfbench/layers.py``) does."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not getattr(module, "__name__", "").startswith("repro") or not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


class TestOneDecode:
    """The call tree decodes once: the counter unwrap ahead of the fold,
    and one tag lookup per record inside it."""

    @pytest.fixture
    def golden(self):
        names = NameTable.read(GOLDEN_DIR / "case_study.tags")
        return Capture.load(GOLDEN_DIR / "figure5_forkexec_v2.mpf", names)

    def test_one_decode_map_per_tree(self, monkeypatch, golden):
        """The fold's tag table is the only one built."""
        built = []
        original = columnar.build_decode_map

        def counting(names):
            built.append(names)
            return original(names)

        _rebind_everywhere(monkeypatch, original, counting)
        analyze_capture(golden)
        assert len(built) == 1

    def test_each_layer_called_once_by_name(self, monkeypatch, golden):
        """perfbench times ``decode_capture``, ``unwrap_times`` and
        ``build_call_tree`` by rebinding their module-level names, so a
        tree must reach each through one, once."""
        calls: dict[str, int] = {}
        for original in (decode_capture, columnar.unwrap_times, callstack.build_call_tree):

            def counting(*args, _original=original, **kwargs):
                name = _original.__name__
                calls[name] = calls.get(name, 0) + 1
                return _original(*args, **kwargs)

            _rebind_everywhere(monkeypatch, original, counting)
        analysis = analyze_capture(golden)
        assert calls == {"decode_capture": 1, "unwrap_times": 1, "build_call_tree": 1}
        assert analysis.event_count == len(golden.records)
