"""Tests for the gprof-style report and the folded-stack output."""

from __future__ import annotations

from repro.analysis.callstack import analyze_capture
from repro.analysis.folded import flame_ascii, hot_stacks, to_folded
from repro.analysis.gprof import gprof_from_fold, gprof_report
from repro.analysis.summary import SPONTANEOUS, SummaryAccumulator, fold_capture

from stream_helpers import stream


def sample_capture(simple_names):
    return stream(
        simple_names,
        (">", "main", 0),
        (">", "read", 10),
        (">", "bcopy", 20),
        ("<", "bcopy", 120),
        ("<", "read", 130),
        (">", "read", 140),
        (">", "bcopy", 150),
        ("<", "bcopy", 200),
        ("<", "read", 210),
        (">", "cksum", 220),
        ("<", "cksum", 320),
        ("<", "main", 340),
    )


class TestGprof:
    def test_arcs_exact(self, simple_names):
        report = gprof_report(analyze_capture(sample_capture(simple_names)))
        read = report.entry("read")
        assert read.calls == 2
        (caller_arc,) = read.callers
        assert caller_arc.caller == "main" and caller_arc.calls == 2
        (callee_arc,) = read.callees
        assert callee_arc.callee == "bcopy"
        assert callee_arc.inclusive_us == 100 + 50

    def test_spontaneous_root(self, simple_names):
        report = gprof_report(analyze_capture(sample_capture(simple_names)))
        main = report.entry("main")
        assert main.callers[0].caller == SPONTANEOUS

    def test_net_vs_inclusive(self, simple_names):
        report = gprof_report(analyze_capture(sample_capture(simple_names)))
        main = report.entry("main")
        assert main.inclusive_us == 340
        assert main.net_us == 340 - 120 - 70 - 100

    def test_ordering_and_format(self, simple_names):
        report = gprof_report(analyze_capture(sample_capture(simple_names)))
        ordered = [e.name for e in report.ordered()]
        assert ordered[0] == "bcopy"  # 150 us net
        text = report.format(limit=3)
        assert "bcopy" in text and "calls" in text and "%" in text

    def test_merged_folds_keep_each_capture_in_preorder(self, simple_names):
        """The fleet merge puts the second capture's arcs after the first's."""
        first = stream(
            simple_names,
            (">", "main", 0),
            (">", "read", 10),
            ("<", "read", 20),
            ("<", "main", 30),
        )
        second = stream(
            simple_names,
            (">", "cksum", 0),
            (">", "main", 5),
            ("<", "main", 8),
            ("<", "cksum", 10),
        )
        merged = SummaryAccumulator(simple_names)
        merged.merge(fold_capture(first)).merge(fold_capture(second))
        report = gprof_from_fold(merged)
        assert list(report.entries) == ["main", "read", "cksum"]
        callers = [arc.caller for arc in report.entry("main").callers]
        assert callers == [SPONTANEOUS, "cksum"]
        assert report.entry("main").calls == 2

    def test_merged_folds_keep_each_capture_s_open_frames(self, simple_names):
        """The second capture's frames open at its end follow the first's,
        their stream indices offset as its arcs' are."""
        first = stream(
            simple_names, (">", "main", 0), (">", "read", 10), ("<", "read", 20)
        )
        second = stream(simple_names, (">", "cksum", 0))
        merged = SummaryAccumulator(simple_names)
        merged.merge(fold_capture(first)).merge(fold_capture(second))
        assert merged.open_at_end == [(0, 0, "main"), (3, 3, "cksum")]

    def test_real_capture_arcs(self):
        from repro.system import build_case_study
        from repro.workloads.network_recv import network_receive

        system = build_case_study()
        capture = system.profile(
            lambda: network_receive(system.kernel, total_packets=8)
        )
        report = gprof_report(system.analyze(capture))
        weget = report.entry("weget")
        assert {a.caller for a in weget.callers} == {"weread"}
        bcopy_callers = {a.caller for a in report.entry("bcopy").callers}
        assert "weget" in bcopy_callers


class TestFolded:
    def test_folded_lines(self, simple_names):
        folded = to_folded(analyze_capture(sample_capture(simple_names)))
        lines = dict(
            line.rsplit(" ", 1) for line in folded.splitlines()
        )
        assert lines["all;main;read;bcopy"] == "150"
        assert lines["all;main;read"] == "40"
        assert lines["all;main;cksum"] == "100"
        assert lines["all;main"] == "50"

    def test_folded_counts_conserve_busy_time(self, simple_names):
        analysis = analyze_capture(sample_capture(simple_names))
        folded = to_folded(analysis)
        total = sum(int(line.rsplit(" ", 1)[1]) for line in folded.splitlines())
        attributed = sum(n.self_us for n in analysis.nodes())
        assert total == attributed

    def test_hot_stacks(self, simple_names):
        analysis = analyze_capture(sample_capture(simple_names))
        hottest = hot_stacks(analysis, n=2)
        assert hottest[0] == ("all;main;read;bcopy", 150)

    def test_flame_ascii_renders(self, simple_names):
        analysis = analyze_capture(sample_capture(simple_names))
        art = flame_ascii(analysis, width=60)
        assert "main" in art
        assert "read" in art or "re" in art
        # Deeper frames on higher lines: bcopy's row above main's.
        rows = art.splitlines()
        assert any("bcopy" in r or "bc" in r for r in rows[:-1])
        assert "main" in rows[-1]

    def test_flame_ascii_empty(self, simple_names):
        analysis = analyze_capture(stream(simple_names))
        assert flame_ascii(analysis) == "(empty capture)"
