"""Tests for the per-process timeline view."""

from __future__ import annotations

from repro.analysis.callstack import analyze_capture
from repro.analysis.timeline import (
    Span,
    interrupt_spans,
    process_spans,
    render_timeline,
    utilization_by_proc,
)

from stream_helpers import stream


def two_proc_capture(simple_names):
    return stream(
        simple_names,
        (">", "main", 0),
        (">", "tsleep", 100),
        (">", "swtch", 110),
        ("<", "swtch", 150),
        (">", "read", 160),        # fresh proc B
        (">", "tsleep", 380),
        (">", "swtch", 390),
        ("<", "swtch", 420),
        ("<", "tsleep", 430),      # back to A
        ("<", "main", 600),
    )


class TestSpans:
    def test_process_spans_split_by_proc(self, simple_names):
        analysis = analyze_capture(two_proc_capture(simple_names))
        spans = process_spans(analysis)
        assert len(spans) == 2
        all_spans = [s for items in spans.values() for s in items]
        assert Span(0, 600) in all_spans        # proc A's main
        assert any(s.start_us == 160 for s in all_spans)  # proc B

    def test_touching_spans_merge(self, simple_names):
        capture = stream(
            simple_names,
            (">", "main", 0),
            ("<", "main", 100),
            (">", "read", 100),  # back-to-back: rendered as one span
            ("<", "read", 150),
        )
        analysis = analyze_capture(capture)
        spans = process_spans(analysis)
        (proc_spans,) = spans.values()
        assert proc_spans == [Span(0, 150)]

    def test_interrupt_spans(self, simple_names):
        capture = stream(
            simple_names,
            (">", "main", 0),
            (">", "intr", 50),
            ("<", "intr", 80),
            ("<", "main", 200),
        )
        analysis = analyze_capture(capture)
        spans = interrupt_spans(analysis, "intr")
        assert spans == [Span(50, 80)]


class TestRender:
    def test_rows_per_proc(self, simple_names):
        analysis = analyze_capture(two_proc_capture(simple_names))
        art = render_timeline(analysis, width=60)
        lines = art.splitlines()
        assert len(lines) == 3  # two procs + axis (no interrupts here)
        assert lines[0].startswith("P0")
        assert "#" in lines[0] and "#" in lines[1]

    def test_empty(self, simple_names):
        analysis = analyze_capture(stream(simple_names))
        assert render_timeline(analysis) == "(empty capture)"

    def test_axis_shows_wall(self, simple_names):
        analysis = analyze_capture(two_proc_capture(simple_names))
        assert "600 us" in render_timeline(analysis)

    def test_real_capture_renders(self):
        from repro.system import build_case_study
        from repro.workloads.network_recv import network_receive

        system = build_case_study()
        capture = system.profile(
            lambda: network_receive(system.kernel, total_packets=6)
        )
        art = render_timeline(system.analyze(capture))
        assert "^" in art  # interrupts visible


class TestUtilization:
    def test_shares(self, simple_names):
        analysis = analyze_capture(two_proc_capture(simple_names))
        shares = utilization_by_proc(analysis)
        total_window = 600
        a_share = shares[analysis.roots[0].proc]
        assert abs(a_share - 1.0) < 1e-9  # A's main spans the window
        # B was suspended at the swtch exit (420 us) and never resumed,
        # so its truncated span ends there.
        b_share = [v for p, v in shares.items() if v != a_share][0]
        assert abs(b_share - (420 - 160) / total_window) < 0.02
