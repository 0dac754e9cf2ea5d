"""Tests for the summary report, trace report, histograms and graphs."""

from __future__ import annotations

from repro.analysis.callstack import analyze_capture
from repro.analysis.graph import (
    call_graph,
    heaviest_paths,
    idle_active_split,
    subsystem_rollup,
    to_dot,
)
from repro.analysis.histogram import histogram_for
from repro.analysis.reports import full_report
from repro.analysis.summary import summarize
from repro.analysis.trace import format_trace

from stream_helpers import stream


def busy_capture(simple_names):
    return stream(
        simple_names,
        (">", "main", 0),
        (">", "read", 10),
        (">", "bcopy", 20),
        ("<", "bcopy", 120),
        ("<", "read", 150),
        (">", "read", 160),
        (">", "bcopy", 170),
        ("<", "bcopy", 240),
        ("<", "read", 260),
        (">", "tsleep", 270),
        (">", "swtch", 280),
        ("<", "swtch", 380),
        ("<", "tsleep", 390),
        ("<", "main", 400),
    )


class TestSummary:
    def test_counts_and_times(self, simple_names):
        summary = summarize(analyze_capture(busy_capture(simple_names)))
        bcopy = summary.get("bcopy")
        assert bcopy.calls == 2
        assert bcopy.elapsed_us == 100 + 70
        assert bcopy.net_us == 170
        assert bcopy.max_us == 100 and bcopy.min_us == 70 and bcopy.avg_us == 85
        read = summary.get("read")
        assert read.calls == 2
        assert read.elapsed_us == 140 + 100
        assert read.net_us == (140 - 100) + (100 - 70)

    def test_idle_accounting(self, simple_names):
        summary = summarize(analyze_capture(busy_capture(simple_names)))
        assert summary.wall_us == 400
        assert summary.idle_us == 100
        assert summary.busy_us == 300
        assert abs(summary.busy_fraction - 0.75) < 1e-9

    def test_swtch_excluded_by_default(self, simple_names):
        summary = summarize(analyze_capture(busy_capture(simple_names)))
        assert summary.get("swtch") is None

    def test_rows_sorted_by_net_desc(self, simple_names):
        summary = summarize(analyze_capture(busy_capture(simple_names)))
        nets = [row.net_us for row in summary.rows()]
        assert nets == sorted(nets, reverse=True)

    def test_percentages(self, simple_names):
        summary = summarize(analyze_capture(busy_capture(simple_names)))
        bcopy = summary.get("bcopy")
        assert abs(summary.pct_real(bcopy) - 100 * 170 / 400) < 1e-9
        assert abs(summary.pct_net(bcopy) - 100 * 170 / 300) < 1e-9

    def test_format_has_figure3_header(self, simple_names):
        text = summarize(analyze_capture(busy_capture(simple_names))).format()
        assert "Elapsed time = 0 sec 400 us (14 tags)" in text
        assert "Accumulated run time = 0 sec 300 us (75.00%)" in text
        assert "Idle time = 0 sec 100 us" in text
        assert "% real" in text and "% net" in text
        # Sorted body: bcopy is the top row.
        body = text.splitlines()[5:]
        assert "bcopy" in body[0]

    def test_format_limit(self, simple_names):
        summary = summarize(analyze_capture(busy_capture(simple_names)))
        assert len(summary.format(limit=1).splitlines()) < len(
            summary.format().splitlines()
        )


class TestTrace:
    def test_trace_shape(self, simple_names):
        text = format_trace(analyze_capture(busy_capture(simple_names)))
        assert "-> main" in text
        assert "-> bcopy (100 us)" in text          # leaf: single time
        assert "-> read (40 us, 140 total)" in text  # non-leaf: net, total
        assert "<- swtch" in text

    def test_timestamps_figure4_format(self, simple_names):
        """Times are relative to the first event and render s:mmm uuu."""
        capture = stream(
            simple_names,
            (">", "main", 0),
            (">", "read", 2_671),
            ("<", "read", 1_002_345),
            ("<", "main", 1_500_000),
        )
        text = format_trace(analyze_capture(capture))
        assert "0:002 671" in text  # read's entry
        assert "1:500 000" in text  # main's return

    def test_context_switch_line(self, simple_names):
        capture = stream(
            simple_names,
            (">", "main", 0),
            (">", "tsleep", 10),
            (">", "swtch", 20),
            ("<", "swtch", 50),
            (">", "read", 60),  # fresh proc
            ("<", "read", 90),
        )
        text = format_trace(analyze_capture(capture))
        assert "---- Context switch in ----" in text

    def test_window_filtering(self, simple_names):
        analysis = analyze_capture(busy_capture(simple_names))
        text = format_trace(analysis, start_us=155, end_us=265)
        assert "-> read (30 us, 100 total)" in text
        assert "(100 us)" not in text  # first bcopy call is outside

    def test_inline_marks_rendered(self, simple_names):
        capture = stream(
            simple_names,
            (">", "main", 0),
            ("=", "MGET", 5),
            ("<", "main", 10),
        )
        text = format_trace(analyze_capture(capture))
        assert "== MGET" in text


class TestHistogram:
    def test_histogram_buckets(self, simple_names):
        analysis = analyze_capture(busy_capture(simple_names))
        hist = histogram_for(analysis, "bcopy", buckets=3)
        assert hist.samples == 2
        assert sum(hist.counts) == 2
        assert hist.min_us == 70 and hist.max_us == 100

    def test_histogram_empty(self, simple_names):
        analysis = analyze_capture(busy_capture(simple_names))
        hist = histogram_for(analysis, "nonexistent")
        assert hist.samples == 0
        assert "0 calls" in hist.format()

    def test_histogram_render(self, simple_names):
        analysis = analyze_capture(busy_capture(simple_names))
        text = histogram_for(analysis, "bcopy").format()
        assert "bcopy: 2 calls" in text and "#" in text


class TestGraph:
    def test_call_graph_edges(self, simple_names):
        graph = call_graph(analyze_capture(busy_capture(simple_names)))
        assert graph.edges["main"]["read"]["calls"] == 2
        assert graph.edges["read"]["bcopy"]["inclusive_us"] == 170
        assert graph.nodes["bcopy"]["net_us"] == 170
        assert list(graph.nodes) == ["main", "read", "tsleep", "bcopy", "swtch"]

    def test_subsystem_rollup(self, simple_names):
        analysis = analyze_capture(busy_capture(simple_names))
        rollup = subsystem_rollup(
            analysis, {"bcopy": "libkern", "read": "fs", "main": "user"}
        )
        assert rollup["libkern"]["net_us"] == 170
        assert rollup["fs"]["calls"] == 2
        assert "tsleep" not in rollup  # maps to default bucket
        assert rollup["other"]["calls"] == 1

    def test_heaviest_paths(self, simple_names):
        graph = call_graph(analyze_capture(busy_capture(simple_names)))
        chains = heaviest_paths(graph, "main")
        assert chains[0][0][:2] == ["main", "read"]

    def test_to_dot(self, simple_names):
        graph = call_graph(analyze_capture(busy_capture(simple_names)))
        dot = to_dot(graph)
        assert dot.startswith("digraph") and '"main" -> "read"' in dot

    def test_idle_active_split(self, simple_names):
        split = idle_active_split(analyze_capture(busy_capture(simple_names)))
        assert split["wall_us"] == 400 and split["idle_us"] == 100


class TestFullReport:
    def test_report_contains_both_sections(self, simple_names):
        text = full_report(busy_capture(simple_names))
        assert "Elapsed time" in text
        assert "Code path trace:" in text
        assert "-> main" in text

    def test_overflow_note(self, simple_names):
        capture = busy_capture(simple_names)
        capture.overflowed = True
        assert "overflowed" in full_report(capture)

    def test_label_shown(self, simple_names):
        assert "synthetic" in full_report(busy_capture(simple_names))
