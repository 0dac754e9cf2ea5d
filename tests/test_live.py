"""Live profiling: open-ended wire streams, the live analyzer, repro top.

Covers the concurrent capture→analyze pipeline end to end: the
open-ended MPF2 wire form over real socketpairs and FIFOs, mid-stream
truncation salvage, the invariant that a drained live summary is
byte-identical to batch analysis, the peek/delta snapshot algebra the
rolling windows are built on, heartbeat cadence on an injected clock,
the reusable /metrics HTTP server, the Chrome trace written as the
stream flows (its events equal the reference exporter's across
wire-batch cuts and context switches, and a broken stream still leaves a
closed array), the P8xx lint family, and the ``repro live``/``repro
top`` CLI.
"""

from __future__ import annotations

import io
import json
import os
import socket
import threading
import urllib.request
import zlib

import pytest

import oracles
from stream_helpers import (
    capture_from_records,
    columns_of,
    iter_records,
    make_names,
    salvage_records,
)
from repro.analysis.callstack import analyze_capture
from repro.analysis.chrome_trace import ChromeTraceWriter
from repro.analysis.summary import (
    FUNCTION_SORTS,
    SummaryAccumulator,
    fold_columns,
    sort_rows,
    summarize,
)
from repro.lint.live_lint import lint_live_stream
from repro.lint.runner import render_text
from repro.live.analyzer import LiveAnalyzer, LiveWindow
from repro.live.top import TopView, render_top
from repro.profiler.ram import RawRecord
from repro.profiler.upload import (
    TRAILER_BYTES,
    CaptureFormatError,
    CaptureStreamWriter,
    iter_capture_columns,
    read_capture,
    write_capture_file,
)
from repro.telemetry import TELEMETRY
from repro.telemetry.heartbeat import HeartbeatFlusher
from repro.__main__ import main


def run_cli(*argv: str) -> tuple[int, str]:
    lines: list[str] = []
    code = main(list(argv), out=lines.append)
    return code, "\n".join(lines)


def _names():
    return make_names(
        ("main", 500), ("read", 502), ("bcopy", 504), ("swtch", 600, "!")
    )


def _records(n: int = 600) -> list[RawRecord]:
    """A well-formed entry/exit stream: main{ read{} bcopy{} ... }main."""
    names = _names()
    records = [RawRecord(tag=names.by_name("main").entry_value, time=0)]
    t = 0
    inner = ("read", "bcopy")
    for i in range((n - 2) // 2):
        entry = names.by_name(inner[i % 2])
        t += 3
        records.append(RawRecord(tag=entry.entry_value, time=t & 0xFFFFFF))
        t += 5
        records.append(RawRecord(tag=entry.exit_value, time=t & 0xFFFFFF))
    t += 2
    records.append(
        RawRecord(tag=names.by_name("main").exit_value, time=t & 0xFFFFFF)
    )
    return records


def _narrow_counter_records() -> list[RawRecord]:
    """24 records on a 16-bit counter: ``main`` calls ``read`` five times,
    twice over, and each 30 ms ``read`` spans most of a 65.5 ms wrap."""
    names = _names()
    f, g = names.by_name("main"), names.by_name("read")
    records = []
    start = 0
    for _ in range(2):
        records.append(RawRecord(tag=f.entry_value, time=start & 0xFFFF))
        for i in range(5):
            t = start + 1_000 + i * 32_000
            records.append(RawRecord(tag=g.entry_value, time=t & 0xFFFF))
            records.append(RawRecord(tag=g.exit_value, time=(t + 30_000) & 0xFFFF))
        start += 161_500
        records.append(RawRecord(tag=f.exit_value, time=start & 0xFFFF))
        start += 500
    return records


def _wire_bytes(records, *, chunk=100, label="wire") -> bytes:
    sink = io.BytesIO()
    with CaptureStreamWriter(sink, label=label) as writer:
        for start in range(0, len(records), chunk):
            writer.write_records(records[start : start + chunk])
    return sink.getvalue()


# -- the wire over real pipes -------------------------------------------------


class TestOpenStreamWire:
    def test_socketpair_round_trip(self):
        records = _records(400)
        left, right = socket.socketpair()

        def produce():
            sink = left.makefile("wb")
            try:
                with CaptureStreamWriter(sink, label="sock") as writer:
                    for start in range(0, len(records), 64):
                        writer.write_records(records[start : start + 64])
                        writer.flush()
            finally:
                sink.close()
                left.close()

        thread = threading.Thread(target=produce)
        thread.start()
        source = right.makefile("rb")
        got = []
        for batch in iter_capture_columns(source):
            got.extend(batch.to_records())
        source.close()
        right.close()
        thread.join()
        assert got == records

    def test_fifo_round_trip(self, tmp_path):
        fifo = tmp_path / "wire.fifo"
        os.mkfifo(fifo)
        records = _records(300)

        def produce():
            with open(fifo, "wb") as sink:
                with CaptureStreamWriter(sink, label="fifo") as writer:
                    writer.write_records(records)

        thread = threading.Thread(target=produce)
        thread.start()
        got = list(iter_records(str(fifo)))
        thread.join()
        assert got == records

    def test_read_capture_adopts_trailer_truth(self):
        records = _records(100)
        got, meta = read_capture(io.BytesIO(_wire_bytes(records)))
        assert got.to_records() == records
        assert meta.streamed
        assert meta.count == len(records)
        assert meta.crc32 is not None

    def test_truncation_raises_strict_and_salvages(self):
        records = _records(200)
        blob = _wire_bytes(records)
        cut = blob[: len(blob) - TRAILER_BYTES - 3]  # trailer + partial record
        with pytest.raises(CaptureFormatError):
            list(iter_capture_columns(io.BytesIO(cut)))
        salvaged, defects = salvage_records(io.BytesIO(cut))
        kinds = {defect.kind for defect in defects}
        assert "missing-trailer" in kinds
        assert salvaged == records[: len(salvaged)]
        assert len(salvaged) >= len(records) - 1

    def test_bit_flip_fails_trailer_crc(self):
        blob = bytearray(_wire_bytes(_records(100)))
        blob[60] ^= 0x10
        with pytest.raises(CaptureFormatError, match="CRC32"):
            list(iter_capture_columns(io.BytesIO(bytes(blob))))


# -- live == batch ------------------------------------------------------------


class TestLiveBatchIdentity:
    def test_drained_summary_byte_identical_to_batch(self):
        records = _records(500)
        names = _names()
        analyzer = LiveAnalyzer(names, window_s=1e-9)  # rotate every batch
        live = analyzer.consume(
            io.BytesIO(_wire_bytes(records, chunk=77)), chunk_records=61
        )
        batch = summarize(analyze_capture(capture_from_records(records, names)))
        assert live.format() == batch.format()
        assert analyzer.windows >= 1
        assert analyzer.records_total == len(records)

    def test_open_stream_folds_at_its_header_counter_width(self):
        """A 16-bit stream over a pipe folds at 16 bits, as the batch
        fold of the same records does, not at the stock 24."""
        records = _narrow_counter_records()
        names = _names()
        read_fd, write_fd = os.pipe()

        def produce():
            with os.fdopen(write_fd, "wb") as sink:
                with CaptureStreamWriter(sink, counter_width_bits=16) as writer:
                    for start in range(0, len(records), 5):
                        writer.write_records(records[start : start + 5])
                        writer.flush()

        thread = threading.Thread(target=produce)
        thread.start()
        with os.fdopen(read_fd, "rb") as source:
            live = LiveAnalyzer(names).consume(source, chunk_records=4)
        thread.join()
        batch = fold_columns([columns_of(records)], names, width_bits=16).summary()
        assert live.format() == batch.format()
        assert live.functions["read"].max_us == 30_000

    def test_finish_idempotent_and_counts_drain(self):
        records = _records(100)
        analyzer = LiveAnalyzer(_names())
        first = analyzer.consume(io.BytesIO(_wire_bytes(records)))
        assert analyzer.finish() is first
        assert analyzer.records_total == len(records)


# -- peek / delta -------------------------------------------------------------


class TestPeekDelta:
    def test_peek_never_seals(self):
        records = _records(400)
        names = _names()
        accumulator = SummaryAccumulator(names)
        for record in records[:150]:
            accumulator.feed_columns(columns_of([record]))
            if len(records) % 50 == 0:
                accumulator.peek()
        mid = accumulator.peek()
        assert mid.event_count == 150
        for record in records[150:]:
            accumulator.feed_columns(columns_of([record]))
        reference = SummaryAccumulator(names)
        reference.feed_columns(columns_of(records))
        assert accumulator.summary().format() == reference.summary().format()

    def test_delta_is_exact_for_monotone_counters(self):
        records = _records(400)
        names = _names()
        accumulator = SummaryAccumulator(names)
        accumulator.feed_columns(columns_of(records[:200]))
        older = accumulator.peek()
        accumulator.feed_columns(columns_of(records[200:]))
        newer = accumulator.peek()
        delta = newer.delta(older)
        assert delta.event_count == 200
        for name, stats in delta.functions.items():
            old = older.functions.get(name)
            new = newer.functions[name]
            assert stats.calls == new.calls - (old.calls if old else 0)
            assert stats.net_us == new.net_us - (old.net_us if old else 0)
        # a function untouched in the window is dropped entirely
        frozen = newer.delta(newer)
        assert frozen.functions == {}
        assert frozen.event_count == 0

    def test_peek_never_shows_an_open_call(self):
        names = _names()
        f, g = names.by_name("main"), names.by_name("read")
        accumulator = SummaryAccumulator(names)
        accumulator.feed_columns(
            columns_of(
                [
                    RawRecord(tag=f.entry_value, time=0),
                    RawRecord(tag=g.entry_value, time=3),
                    RawRecord(tag=g.exit_value, time=8),
                ]
            )
        )
        inside = accumulator.peek()
        assert inside.functions["read"].calls == 1
        assert "main" not in inside.functions
        accumulator.feed_columns(columns_of([RawRecord(tag=f.exit_value, time=10)]))
        after = accumulator.peek()
        assert after.functions["main"].calls == 1
        assert after.functions["main"].elapsed_us == 10
        assert set(after.delta(inside).functions) == {"main"}


# -- windows, gauges, heartbeat ------------------------------------------------


class TestLiveAnalyzerWindows:
    def test_windows_rotate_on_injected_clock(self):
        ticks = iter([0.0, 0.0, 0.1, 0.3, 0.7, 1.2, 1.3, 1.4, 2.6, 9.9, 9.9, 9.9])
        windows: list[LiveWindow] = []
        analyzer = LiveAnalyzer(
            _names(),
            window_s=1.0,
            clock=lambda: next(ticks),
            on_window=windows.append,
        )
        records = _records(400)
        for start in range(0, len(records), 100):
            analyzer.feed(
                columns_of(records[start : start + 100]), arrival=0.0
            )
        analyzer.finish()
        assert analyzer.windows == len(windows)
        assert [w.seq for w in windows] == list(range(len(windows)))
        assert windows[-1].cumulative.event_count == len(records)
        assert sum(w.events for w in windows) == len(records)

    def test_gauges_published_when_enabled(self):
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            analyzer = LiveAnalyzer(_names(), window_s=1e-9)
            analyzer.consume(io.BytesIO(_wire_bytes(_records(200))))
            names = {m["name"] for m in TELEMETRY.snapshot()["metrics"]}
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert {
            "live.records.total",
            "live.lag_ms",
            "live.events_per_sec",
            "live.window.events_per_sec",
            "live.windows",
        } <= names

    def test_window_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            LiveAnalyzer(_names(), window_s=0.0)


class TestHeartbeat:
    def test_cadence_on_injected_clock(self, tmp_path):
        path = tmp_path / "beats.jsonl"
        clock_box = {"now": 0.0}
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            TELEMETRY.set_gauge("live.records.total", 7)
            flusher = HeartbeatFlusher(
                path, TELEMETRY, interval_s=5.0, clock=lambda: clock_box["now"]
            )
            assert flusher.maybe_flush()  # first beat is immediate
            clock_box["now"] = 4.9
            assert not flusher.maybe_flush()  # within the interval
            clock_box["now"] = 5.1
            assert flusher.maybe_flush()
            assert not flusher.maybe_flush()  # beat resets the timer
            clock_box["now"] = 10.2
            assert flusher.maybe_flush()
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        beats = [line for line in lines if line["type"] == "heartbeat"]
        assert [beat["seq"] for beat in beats] == [0, 1, 2]
        assert beats[1]["uptime_s"] == pytest.approx(5.1)
        metric_lines = [line for line in lines if line["type"] == "metric"]
        assert any(m["name"] == "live.records.total" for m in metric_lines)

    def test_interval_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            HeartbeatFlusher(tmp_path / "x.jsonl", TELEMETRY, interval_s=0)


# -- /metrics endpoint --------------------------------------------------------


class TestMetricsServer:
    def test_scrape_round_trip(self):
        from repro.fleet.serve import MetricsHTTPServer

        server = MetricsHTTPServer(lambda: "live_up 1\n", name="test-metrics")
        server.start()
        try:
            url = f"http://127.0.0.1:{server.port}/metrics"
            with urllib.request.urlopen(url, timeout=5) as response:
                body = response.read().decode()
        finally:
            server.close()
        assert body == "live_up 1\n"


# -- repro top ----------------------------------------------------------------


class TestTop:
    def test_sorts_match_db_function_sorts(self):
        """``repro top`` and ``repro db query`` take one sort vocabulary:
        every key ranks a live frame and orders a database query."""
        from repro.db.query import query_functions
        from repro.db.schema import connect

        summary = self._window().cumulative
        conn = connect(":memory:")
        try:
            for sort in FUNCTION_SORTS:
                assert TopView(sort=sort).sort == sort
                assert len(sort_rows(summary, sort)) == len(summary.functions)
                assert query_functions(conn, sort=sort) == []
        finally:
            conn.close()

    def _window(self):
        records = _records(300)
        analyzer = LiveAnalyzer(_names(), window_s=1e-9)
        analyzer.consume(io.BytesIO(_wire_bytes(records)))
        return analyzer.latest_window

    def test_sort_rows_orderings(self):
        window = self._window()
        summary = window.cumulative
        by_net = sort_rows(summary, "net")
        assert by_net == summary.rows()
        by_calls = sort_rows(summary, "calls")
        assert [s.calls for s in by_calls] == sorted(
            (s.calls for s in by_calls), reverse=True
        )
        by_name = sort_rows(summary, "name")
        assert [s.name for s in by_name] == sorted(s.name for s in by_name)
        with pytest.raises(ValueError, match="unknown sort"):
            sort_rows(summary, "bogus")

    def test_render_top_frame(self):
        frame = render_top(self._window(), sort="net", limit=2, label="t")
        lines = frame.splitlines()
        assert "repro top — t" in lines[0]
        assert "sort=net" in lines[0]
        # header rows + separator + column header + 2 function rows
        assert len(lines) == 6
        assert "\x1b" not in frame  # the frame itself is ANSI-free

    def test_once_mode_prints_single_final_frame(self):
        out = io.StringIO()
        view = TopView(sort="calls", limit=3, once=True, out=out)
        window = self._window()
        view.update(window)
        assert out.getvalue() == ""  # no live redraw in once mode
        frame = view.final()
        assert frame is not None
        assert out.getvalue() == frame + "\n"
        assert view.frames == 1

    def test_unknown_sort_rejected(self):
        with pytest.raises(ValueError, match="unknown sort"):
            TopView(sort="bogus")


# -- incremental Chrome trace --------------------------------------------------


def _two_process_records(rounds: int = 6) -> list[RawRecord]:
    """Two processes that each sleep inside ``read``.

    Process A blocks in ``read``; process B runs, enters its own ``read``
    and blocks too; from then on each switch-in returns from the ``read``
    of the process that slept longest, so every ``read`` call is suspended
    across the other process's run.  One global call stack would pair A's
    exits with B's entries.
    """
    names = _names()
    script = [">main", ">read", ">swtch", "<swtch", ">bcopy", "<bcopy", ">read", ">swtch"]
    script += ["<swtch", "<read", ">read", ">swtch"] * rounds
    script += ["<swtch", "<read", "<main"]
    records = []
    t = 0
    for step, op in enumerate(script):
        entry = names.by_name(op[1:])
        tag = entry.entry_value if op[0] == ">" else entry.exit_value
        records.append(RawRecord(tag=tag, time=t))
        t += 3 + step % 7
    return records


def _live_trace(tmp_path, records, cut, **options):
    """Feed *records* in *cut*-record batches through a traced analyzer;
    the written events, counter samples and trailer excepted, and the
    trailer's args."""
    path = tmp_path / f"live-{cut}.trace.json"
    with path.open("w") as handle:
        analyzer = LiveAnalyzer(_names(), trace=ChromeTraceWriter(handle, **options))
        for start in range(0, len(records), cut):
            analyzer.feed(columns_of(records[start : start + cut]))
        analyzer.finish()
    *events, trailer = json.loads(path.read_text())
    assert trailer["name"] == "trace_end"
    return [e for e in events if e["ph"] != "C"], trailer["args"]


def _sorted_events(events):
    return sorted(json.dumps(e, sort_keys=True) for e in events)


def _export_events(records):
    """The reference exporter's events of *records*, walking the tree."""
    analysis = analyze_capture(capture_from_records(records, _names()))
    return oracles.capture_to_chrome_trace(analysis)["traceEvents"]


def _slices(events):
    return sorted((e["name"], e["ts"], e["dur"]) for e in events if e["ph"] == "X")


class TestLiveTrace:
    def test_document_valid_and_spans_cross_batches(self, tmp_path):
        records = _records(120)
        expected = _export_events(records)
        # Batches of 7 and 13 guarantee entry/exit pairs straddle the cuts
        # (pairs are written at even offsets).
        for cut in (7, 13):
            events, trailer = _live_trace(tmp_path, records, cut)
            assert _sorted_events(events) == _sorted_events(expected)
            assert trailer["records"] == len(records)
            assert trailer["slices"] == len(_slices(events))
            assert trailer["truncated"] == 0

    def test_slice_cap_bounds_file(self, tmp_path):
        events, trailer = _live_trace(tmp_path, _records(100), 100, max_slices=3)
        assert len(_slices(events)) == 3
        assert trailer["slices"] == 3
        assert trailer["dropped_slices"] == 50 - 3

    def test_pairing_carry_matches_single_pass(self, tmp_path):
        """Calls suspended across ``swtch`` while another process runs,
        carried over 7- and 13-record cuts, close into exactly the
        reference exporter's events."""
        records = _two_process_records()
        expected = _export_events(records)
        assert len({ts for name, ts, _ in _slices(expected) if name == "read"}) == 8
        for cut in (7, 13):
            events, _ = _live_trace(tmp_path, records, cut)
            assert _sorted_events(events) == _sorted_events(expected)

    def test_cut_wire_still_ends_in_the_trailer(self, tmp_path):
        """A stream that breaks mid-flight fails the run, but the trace
        written so far is a whole array closed by its trailer."""
        blob = _wire_bytes(_records(600))
        wire, tags = tmp_path / "cut.mpf", tmp_path / "cut.tags"
        trace = tmp_path / "cut.trace.json"
        wire.write_bytes(blob[: len(blob) // 2])
        _names().write(tags)
        code, _ = run_cli(
            "live", "analyze", str(wire), "--names", str(tags),
            "--trace-out", str(trace),
        )
        assert code == 2
        *events, trailer = json.loads(trace.read_text())
        assert trailer["name"] == "trace_end"
        assert 0 < trailer["args"]["records"] < 600
        assert trailer["args"]["slices"] == len(_slices(events)) > 0


# -- P8xx lint ----------------------------------------------------------------


class TestLiveLint:
    def test_clean_stream_is_clean(self, tmp_path):
        path = tmp_path / "ok.mpf"
        path.write_bytes(_wire_bytes(_records(60)))
        report = lint_live_stream(path)
        assert report.ok and len(report) == 0, render_text(report)

    def test_p801_missing_trailer(self, tmp_path):
        blob = _wire_bytes(_records(60))
        path = tmp_path / "cut.mpf"
        path.write_bytes(blob[: len(blob) - TRAILER_BYTES])
        report = lint_live_stream(path)
        assert [d.code for d in report] == ["P801"]

    def test_p802_crc_mismatch(self, tmp_path):
        blob = bytearray(_wire_bytes(_records(60)))
        blob[50] ^= 0x04
        path = tmp_path / "flip.mpf"
        path.write_bytes(bytes(blob))
        report = lint_live_stream(path)
        assert [d.code for d in report] == ["P802"]

    def test_p803_count_lie(self, tmp_path):
        records = _records(60)
        blob = bytearray(_wire_bytes(records))
        lying = len(records) - 2
        blob[-8:-4] = lying.to_bytes(4, "big")
        # keep the trailer internally consistent so only the count lies
        path = tmp_path / "lie.mpf"
        path.write_bytes(bytes(blob))
        report = lint_live_stream(path)
        assert [d.code for d in report] == ["P803"]

    def test_backpatched_capture_out_of_scope(self, tmp_path):
        from repro.profiler.upload import write_capture_file

        path = tmp_path / "plain.mpf"
        write_capture_file(path, columns_of(_records(30)))
        assert len(lint_live_stream(path)) == 0

    def test_cli_lint_reports_p801(self, tmp_path):
        blob = _wire_bytes(_records(60))
        path = tmp_path / "cut.mpf"
        path.write_bytes(blob[:-5])
        names_path = tmp_path / "t.tags"
        _names().write(names_path)
        code, text = run_cli(
            "lint", str(path), "--names", str(names_path)
        )
        assert code != 0
        assert "P801" in text


# -- CLI ----------------------------------------------------------------------


class TestLiveCli:
    def test_live_capture_analyze_matches_batch_stream(self, tmp_path):
        wire = tmp_path / "run.mpf"
        tags = tmp_path / "run.tags"
        code, _ = run_cli(
            "live", "capture", "--workload", "mixed", "--packets", "40",
            "--names", str(tags), "--out", str(wire),
        )
        assert code == 0
        code, live_text = run_cli(
            "live", "analyze", str(wire), "--names", str(tags),
            "--summary-limit", "8",
        )
        assert code == 0
        code, batch_text = run_cli(
            "analyze", str(wire), "--names", str(tags),
            "--summary-limit", "8",
        )
        assert code == 0
        # batch adds a "loaded N events" line and the desync footer
        batch_lines = batch_text.split("\n")
        assert batch_lines[0].startswith("loaded ")
        assert batch_lines[-2].startswith("kstack desyncs = ")
        assert live_text.split("\n") == batch_lines[1:-2] + batch_lines[-1:]

    def test_live_analyze_uses_the_file_counter_width(self, tmp_path):
        capture = tmp_path / "narrow.mpf"
        tags = tmp_path / "narrow.tags"
        records = columns_of(_narrow_counter_records())
        write_capture_file(capture, records, counter_width_bits=16)
        _names().write(tags)
        code, live_text = run_cli(
            "live", "analyze", str(capture), "--names", str(tags)
        )
        assert code == 0
        code, batch_text = run_cli("analyze", str(capture), "--names", str(tags))
        assert code == 0
        batch_lines = batch_text.split("\n")
        assert batch_lines[-2].startswith("kstack desyncs = ")
        assert live_text.split("\n") == batch_lines[1:-2] + batch_lines[-1:]
        assert "Elapsed time = 0 sec 323500 us" in live_text

    def test_top_once(self, capsys):
        code, _ = run_cli(
            "top", "--workload", "mixed", "--packets", "30", "--once",
            "--limit", "3", "--interval", "0.01",
        )
        assert code == 0
        frame = capsys.readouterr().out
        assert "repro top — mixed" in frame
        assert "sort=net" in frame
