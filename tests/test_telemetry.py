"""Tests for the self-telemetry subsystem and its exporters.

Covers the metric/span primitives, the disabled no-op fast path, the
three exporters (JSON lines, Prometheus text exposition, Chrome
``trace_event``), the capture's Chrome-trace writer over golden captures
(including the ``swtch()`` per-process split and the interrupt track),
the ``--progress`` heartbeat, the P4xx telemetry lint family and the
CLI surface — notably that analyze report bytes are identical with
telemetry on and off.
"""

from __future__ import annotations

import io
import json
import pathlib
import re
import threading

import pytest

from repro.__main__ import main
from repro.analysis.callstack import analyze_capture
from repro.analysis.chrome_trace import ChromeTraceWriter
from repro.analysis.summary import fold_capture
from repro.instrument.namefile import NameTable
from repro.lint.telemetry_lint import lint_telemetry
from repro.profiler.capture import Capture
from repro.profiler.ram import RawRecord
from repro.telemetry import TELEMETRY
from repro.telemetry.core import Telemetry
from repro.telemetry.metrics import MetricError, MetricRegistry, prometheus_name
from repro.telemetry.progress import ProgressReporter
from repro.telemetry.spans import NOOP_SPAN, NoopSpan, SpanTracer
from repro.telemetry.export import (
    infer_format,
    render_telemetry,
    telemetry_to_chrome_trace,
    to_jsonl,
    to_prometheus,
    write_telemetry,
)
from stream_helpers import capture_from_records, make_names

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def _clean_singleton():
    """The module singleton is global state: leave it as we found it."""
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


def make_telemetry() -> Telemetry:
    return Telemetry("test").enable()


def golden_capture(name: str) -> Capture:
    names = NameTable.read(GOLDEN_DIR / "case_study.tags")
    return Capture.load(GOLDEN_DIR / name, names)


def golden_analysis(name: str = "figure5_forkexec_v2.mpf"):
    return analyze_capture(golden_capture(name))


def golden_trace(name: str = "figure5_forkexec_v2.mpf", **options):
    """A golden capture through the Chrome-trace writer: the written
    text, its events and its trailer's args."""
    out = io.StringIO()
    writer = ChromeTraceWriter(out, **options)
    writer.close(fold_capture(golden_capture(name), recorder=writer).close())
    *events, trailer = json.loads(out.getvalue())
    assert trailer["name"] == "trace_end"
    return out.getvalue(), events, trailer["args"]


# -- primitives ---------------------------------------------------------------


class TestMetrics:
    def test_counter_accumulates(self):
        t = make_telemetry()
        t.count("a.b", 2)
        t.count("a.b", 3)
        (sample,) = t.samples()
        assert (sample.name, sample.kind, sample.value) == ("a.b", "counter", 5)

    def test_counter_rejects_negative(self):
        t = make_telemetry()
        with pytest.raises(MetricError):
            t.counter("a").inc(-1)

    def test_counter_labels_vend_children(self):
        t = make_telemetry()
        t.count("defects", kind="crc")
        t.count("defects", kind="crc")
        t.count("defects", kind="magic")
        by_labels = {s.labels: s.value for s in t.samples()}
        assert by_labels[(("kind", "crc"),)] == 2
        assert by_labels[(("kind", "magic"),)] == 1

    def test_gauge_set_and_max(self):
        t = make_telemetry()
        t.set_gauge("g", 4)
        t.set_gauge("g", 2)
        assert t.samples()[0].value == 2
        t.max_gauge("g", 9)
        t.max_gauge("g", 5)
        assert t.samples()[0].value == 9

    def test_histogram_samples_and_suffixes(self):
        t = make_telemetry()
        t.histogram("h", buckets=(1.0, 10.0))
        t.observe("h", 0.5)
        t.observe("h", 5.0)
        t.observe("h", 500.0)
        names = {s.name for s in t.samples()}
        assert names == {"h.bucket", "h.sum", "h.count"}
        buckets = {
            dict(s.labels)["le"]: s.value
            for s in t.samples()
            if s.name == "h.bucket"
        }
        assert buckets["1.0"] == 1
        assert buckets["10.0"] == 2  # cumulative
        assert buckets["+Inf"] == 3

    def test_registry_idempotent_and_kind_checked(self):
        registry = MetricRegistry("r")
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(MetricError):
            registry.gauge("x")

    def test_prometheus_name_sanitises(self):
        assert prometheus_name("upload.records.decoded") == "upload_records_decoded"
        assert re.fullmatch(
            r"[a-zA-Z_:][a-zA-Z0-9_:]*", prometheus_name("9weird-name.metric")
        )


class TestSpans:
    def test_nesting_depth_and_attrs(self):
        t = make_telemetry()
        with t.span("outer", shards=2):
            with t.span("inner"):
                pass
        records = {r.name: r for r in t.spans()}
        assert records["outer"].depth == 0
        assert records["inner"].depth == 1
        assert dict(records["outer"].attrs)["shards"] == 2

    def test_span_set_and_close_idempotent(self):
        t = make_telemetry()
        span = t.span("s")
        span.set(records=7)
        span.close()
        span.close()
        (record,) = t.spans()
        assert dict(record.attrs)["records"] == 7

    def test_out_of_order_close_unwinds_the_stack(self):
        t = make_telemetry()
        outer = t.span("outer")
        t.span("inner")
        outer.close()  # pops inner off the stack, abandoned
        assert [r.name for r in t.spans()] == ["outer"]
        assert t.tracer.open_span_names() == ()
        assert t.tracer.open_count == 1  # inner never finished -> P401

    def test_traced_decorator(self):
        t = make_telemetry()

        @t.traced("work")
        def work(x):
            return x + 1

        assert work(1) == 2
        assert [r.name for r in t.spans()] == ["work"]

    def test_buffer_bound_drops_and_counts(self):
        t = Telemetry("small").enable()
        t.tracer.max_spans = 3
        for i in range(5):
            t.span(f"s{i}").close()
        assert len(t.spans()) == 3
        assert t.tracer.dropped == 2

    def test_worker_thread_spans_carry_thread_name(self):
        t = make_telemetry()

        def work():
            with t.span("in-thread"):
                pass

        thread = threading.Thread(target=work, name="shard-worker")
        thread.start()
        thread.join()
        (record,) = t.spans()
        assert record.thread_name == "shard-worker"


class TestDisabledNoop:
    def test_recorders_leave_no_state(self):
        t = Telemetry("off")
        t.count("c")
        t.set_gauge("g", 1)
        t.max_gauge("g2", 1)
        t.observe("h", 1)
        with t.span("s", k="v"):
            pass
        assert t.samples() == []
        assert list(t.spans()) == []

    def test_disabled_span_is_the_shared_noop(self):
        t = Telemetry("off")
        span = t.span("anything")
        assert span is NOOP_SPAN
        assert isinstance(span, NoopSpan)
        span.set(x=1)  # all no-ops, never raises
        span.close()

    def test_instrument_creation_allowed_while_disabled(self):
        t = Telemetry("off")
        counter = t.counter("pre.created")
        t.enable()
        counter.inc()
        assert t.samples()[0].value == 1

    def test_singleton_starts_disabled(self):
        assert TELEMETRY.enabled is False


# -- exporters ----------------------------------------------------------------


class TestJsonlExport:
    def test_every_line_parses_and_meta_leads(self):
        t = make_telemetry()
        t.count("c", 2)
        with t.span("s"):
            pass
        lines = to_jsonl(t).splitlines()
        docs = [json.loads(line) for line in lines]
        assert docs[0]["type"] == "meta"
        assert docs[0]["metrics"] == 1
        assert docs[0]["spans"] == 1
        kinds = [d["type"] for d in docs]
        assert kinds == ["meta", "metric", "span"]
        span_doc = docs[-1]
        assert span_doc["name"] == "s"
        assert span_doc["duration_ns"] >= 0


PROM_HELP = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* \S.*$")
PROM_TYPE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$")
PROM_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r" (-?[0-9.eE+-]+|[+-]Inf|NaN)$"
)


def check_prometheus_text(text: str) -> None:
    """A line-format checker for the Prometheus text exposition format."""
    assert text.endswith("\n")
    typed: set[str] = set()
    for line in text.splitlines():
        if line.startswith("# HELP"):
            assert PROM_HELP.match(line), line
        elif line.startswith("# TYPE"):
            match = PROM_TYPE.match(line)
            assert match, line
            assert match.group(1) not in typed, f"duplicate TYPE for {line}"
            typed.add(match.group(1))
        else:
            match = PROM_SAMPLE.match(line)
            assert match, line
            base = re.sub(r"_(bucket|sum|count)$", "", match.group(1))
            assert match.group(1) in typed or base in typed, (
                f"sample {line!r} has no preceding TYPE header"
            )


class TestPrometheusExport:
    def test_exposition_format_is_valid(self):
        t = make_telemetry()
        t.count("upload.records.decoded", 1484)
        t.count("upload.salvage.defects", kind='we"ird\\kind')
        t.set_gauge("profiler.ram.occupancy", 0.75)
        t.histogram("chunk.bytes", buckets=(1024.0,))
        t.observe("chunk.bytes", 40960)
        check_prometheus_text(to_prometheus(t))

    def test_type_header_once_per_histogram_family(self):
        t = make_telemetry()
        t.histogram("h", buckets=(1.0,))
        t.observe("h", 2.0)
        text = to_prometheus(t)
        assert text.count("# TYPE h histogram") == 1
        assert "h_bucket" in text and "h_sum" in text and "h_count" in text

    def test_label_escaping(self):
        t = make_telemetry()
        t.count("c", kind='a"b\\c\nd')
        text = to_prometheus(t)
        assert r'kind="a\"b\\c\nd"' in text
        check_prometheus_text(text)


def check_chrome_events(events: list[dict]) -> None:
    """Schema + stack-discipline (nesting containment) per (pid, tid)."""
    for event in events:
        assert {"name", "ph", "pid", "tid"} <= set(event), event
        if event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0
        elif event["ph"] == "i":
            assert "ts" in event and event["s"] in ("t", "p", "g")
    by_track: dict[tuple, list[dict]] = {}
    for event in events:
        if event["ph"] == "X":
            by_track.setdefault((event["pid"], event["tid"]), []).append(event)
    for track in by_track.values():
        track.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[tuple[float, float]] = []
        for event in track:
            start, end = event["ts"], event["ts"] + event["dur"]
            while stack and start >= stack[-1][1]:
                stack.pop()
            if stack:
                assert start >= stack[-1][0] and end <= stack[-1][1], (
                    f"event {event['name']} at {start}..{end} overlaps "
                    f"enclosing frame {stack[-1]} without nesting"
                )
            stack.append((start, end))


class TestChromeTelemetryExport:
    def test_schema_and_thread_metadata(self):
        t = make_telemetry()
        t.count("c", 3)
        with t.span("outer"):
            with t.span("inner"):
                pass
        doc = telemetry_to_chrome_trace(t)
        events = doc["traceEvents"]
        check_chrome_events(events)
        assert any(
            e["ph"] == "M" and e["name"] == "process_name" for e in events
        )
        assert any(e["ph"] == "M" and e["name"] == "thread_name" for e in events)
        names = [e["name"] for e in events if e["ph"] == "X"]
        assert set(names) == {"outer", "inner"}
        assert doc["otherData"]["metrics"]["c"] == 3


class TestCaptureChromeExport:
    def test_swtch_split_makes_per_process_tracks(self):
        _, events, trailer = golden_trace("figure5_forkexec_v2.mpf")
        assert len(trailer["procs"]) >= 2  # the golden forkexec run switches
        check_chrome_events(events)
        track_names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        for proc in trailer["procs"]:
            assert proc in track_names.values()
        assert track_names[0] == "interrupts"
        # Kernel frames land on their own process's track.
        frame_pids = {
            e["pid"] for e in events if e["ph"] == "X" and e["cat"] == "kernel"
        }
        assert len(frame_pids) >= 2

    def test_interrupt_frames_route_to_dedicated_track(self):
        _, events, _ = golden_trace("figure3_network_v2.mpf")
        interrupt_events = [
            e for e in events if e["ph"] == "X" and e["cat"] == "interrupt"
        ]
        assert interrupt_events
        assert {e["pid"] for e in interrupt_events} == {0}
        # The whole subtree moves, not just the dispatcher frame.
        assert {e["name"] for e in interrupt_events} > {"ISAINTR"}

    def test_custom_interrupt_names(self):
        _, events, trailer = golden_trace(
            "figure3_network_v2.mpf", interrupt_names=frozenset()
        )
        assert not any(e.get("cat") == "interrupt" for e in events)
        assert trailer["interrupt_frames"] == []

    def test_swtch_renders_as_idle_category(self):
        _, events, _ = golden_trace("figure5_forkexec_v2.mpf")
        idle = [e for e in events if e.get("cat") == "idle"]
        assert idle
        assert all(e["name"] == "swtch" for e in idle)

    def test_other_data_carries_capture_stats(self):
        analysis = golden_analysis("figure5_forkexec_v2.mpf")
        _, _, trailer = golden_trace("figure5_forkexec_v2.mpf", label="golden")
        assert trailer["label"] == "golden"
        assert trailer["wall_us"] == analysis.wall_us
        assert trailer["event_count"] == analysis.event_count
        assert trailer["procs"] == list(analysis.procs)

    def test_document_round_trips_through_json(self):
        text, events, _ = golden_trace("figure5_forkexec_v2.mpf")
        document = json.loads(text)
        assert json.loads(json.dumps(document)) == document
        assert document[:-1] == events


class TestFormatDispatch:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("t.jsonl", "jsonl"),
            ("t.ndjson", "jsonl"),
            ("t.prom", "prometheus"),
            ("t.txt", "prometheus"),
            ("t.json", "chrome"),
            ("t.trace", "chrome"),
            ("T.JSONL", "jsonl"),
        ],
    )
    def test_infer_format(self, path, expected):
        assert infer_format(path) == expected

    def test_unknown_extension_raises(self):
        with pytest.raises(ValueError, match="cannot infer"):
            infer_format("telemetry.csv")
        with pytest.raises(ValueError, match="unknown telemetry format"):
            render_telemetry(Telemetry(), "csv")

    def test_write_telemetry_round_trip(self, tmp_path):
        t = make_telemetry()
        t.count("c")
        path = tmp_path / "snap.jsonl"
        assert write_telemetry(path, t) == "jsonl"
        assert json.loads(path.read_text().splitlines()[0])["type"] == "meta"
        path = tmp_path / "snap.json"
        assert write_telemetry(path, t) == "chrome"
        assert "traceEvents" in json.loads(path.read_text())


# -- the --progress heartbeat -------------------------------------------------


class TestProgressReporter:
    def test_force_mode_emits_heartbeats(self):
        sink = io.StringIO()
        reporter = ProgressReporter(
            100, stream=sink, mode="force", interval_s=0.0, check_every=1
        )
        for _ in range(50):
            reporter.update()
        reporter.finish()
        text = sink.getvalue()
        assert reporter.heartbeats >= 2
        assert "50" in text and "/s" in text
        assert "ETA" in text  # total known -> percentage and ETA
        assert text.rstrip("\n").endswith("in 0.0s") or "in " in text

    def test_auto_mode_is_silent_off_tty(self):
        sink = io.StringIO()  # isatty() -> False
        reporter = ProgressReporter(
            100, stream=sink, mode="auto", interval_s=0.0, check_every=1
        )
        for _ in range(50):
            reporter.update()
        reporter.finish()
        assert sink.getvalue() == ""
        assert reporter.active is False
        assert reporter.count == 50  # still counts, for callers

    def test_wall_clock_cadence_limits_emits(self):
        sink = io.StringIO()
        reporter = ProgressReporter(
            stream=sink, mode="force", interval_s=3600.0, check_every=1
        )
        for _ in range(10_000):
            reporter.update()
        assert reporter.heartbeats == 0  # never due inside the interval
        reporter.finish()
        assert reporter.heartbeats == 1  # the final line always lands

    def test_wrap_counts_and_finishes(self):
        sink = io.StringIO()
        reporter = ProgressReporter(
            3, stream=sink, mode="force", interval_s=0.0, check_every=1
        )
        assert list(reporter.wrap(iter("abc"))) == ["a", "b", "c"]
        assert reporter.count == 3
        assert sink.getvalue().rstrip().endswith("s")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ProgressReporter(mode="loud")


# -- the P4xx lint family -----------------------------------------------------


class TestTelemetryLint:
    def test_clean_telemetry_is_clean(self):
        t = make_telemetry()
        with t.span("s"):
            t.count("c")
        report = lint_telemetry(t)
        assert len(report) == 0

    def test_p401_open_span(self):
        t = make_telemetry()
        t.span("never.closed")
        report = lint_telemetry(t)
        codes = [d.code for d in report]
        assert codes == ["P401"]
        assert "never.closed" in report[0].message

    def test_p402_name_in_two_registries(self):
        t = make_telemetry()
        t.counter("dup")
        extra = MetricRegistry("extra")
        extra.counter("dup")
        t.attach_registry(extra)
        codes = [d.code for d in lint_telemetry(t)]
        assert "P402" in codes

    def test_p403_sanitisation_collision(self):
        t = make_telemetry()
        t.counter("a.b")
        t.counter("a_b")
        codes = [d.code for d in lint_telemetry(t)]
        assert "P403" in codes

    def test_p404_dropped_spans(self):
        t = make_telemetry()
        t.tracer.max_spans = 1
        t.span("a").close()
        t.span("b").close()
        codes = [d.code for d in lint_telemetry(t)]
        assert "P404" in codes

    def test_self_check_stays_clean(self):
        # The shipped configuration must be vacuously clean: a disabled
        # singleton records nothing, so the pass finds nothing.
        report = lint_telemetry(TELEMETRY)
        assert len(report) == 0


# -- CLI ----------------------------------------------------------------------


def run_cli(*argv: str) -> list[str]:
    lines: list[str] = []
    code = main(list(argv), out=lines.append)
    assert code == 0
    return lines


class TestCliTelemetry:
    def test_analyze_report_bytes_identical_with_telemetry(self, tmp_path):
        capture = str(GOLDEN_DIR / "figure5_forkexec_v2.mpf")
        names = str(GOLDEN_DIR / "case_study.tags")
        plain = run_cli("analyze", capture, "--names", names)
        telem = run_cli(
            "analyze", capture, "--names", names,
            "--telemetry", str(tmp_path / "t.jsonl"),
        )
        assert "\n".join(plain) == "\n".join(telem)
        assert TELEMETRY.enabled is False  # disabled again on the way out

    def test_analyze_stream_telemetry_identical_too(self, tmp_path):
        capture = str(GOLDEN_DIR / "figure3_network_v2.mpf")
        names = str(GOLDEN_DIR / "case_study.tags")
        plain = run_cli("analyze", capture, "--names", names)
        telem = run_cli(
            "analyze", capture, "--names", names,
            "--telemetry", str(tmp_path / "t.prom"),
        )
        assert plain == telem

    def test_capture_telemetry_snapshot_has_the_catalog(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run_cli(
            "capture", "--workload", "network", "--packets", "4",
            "--telemetry", str(path),
        )
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        metric_names = {d["name"] for d in docs if d["type"] == "metric"}
        assert "profiler.triggers.latched" in metric_names
        assert "profiler.ram.occupancy" in metric_names
        assert "sim.intrq.popped" in metric_names
        span_names = {d["name"] for d in docs if d["type"] == "span"}
        assert "capture.run" in span_names

    @pytest.mark.parametrize("report", ["summary", "gprof"])
    def test_analyze_telemetry_has_fold_span_and_rate(self, tmp_path, report):
        path = tmp_path / "fold.jsonl"
        run_cli(
            "analyze", str(GOLDEN_DIR / "figure5_forkexec_v2.mpf"),
            "--names", str(GOLDEN_DIR / "case_study.tags"),
            "--report", report,
            "--telemetry", str(path),
        )
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        assert "analysis.fold" in {d["name"] for d in docs if d["type"] == "span"}
        rates = [d for d in docs if d.get("name") == "analysis.events_per_sec"]
        assert rates and rates[0]["value"] > 0

    @staticmethod
    def _fold_metrics(path) -> dict:
        """The fold's trust metrics in a jsonl snapshot:
        ``(name, kind label or None) -> value``."""
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        return {
            (d["name"], d["labels"].get("kind")): d["value"]
            for d in docs
            if d["type"] == "metric"
            and d["name"] in ("analysis.anomalies", "analysis.unattributed_us")
        }

    def test_analyze_telemetry_counts_each_repair_kind(self, tmp_path):
        """One repair of every kind the fold makes, each counted once,
        and the time no open frame could absorb."""
        names = make_names(("A", 500), ("B", 502), ("C", 504), ("swtch", 600, "!"))
        a, b, c, swtch = (names.by_name(n) for n in ("A", "B", "C", "swtch"))
        steps = [
            (swtch.exit_value, 0),  # no open swtch frame
            (a.entry_value, 10),
            (b.entry_value, 20),
            (a.exit_value, 30),  # B never exited
            (9999, 35),  # in no name file
            (c.exit_value, 40),  # C never entered
            (swtch.entry_value, 50),
        ]
        capture = capture_from_records(
            [RawRecord(tag=tag, time=time) for tag, time in steps], names
        )
        capture.save(tmp_path / "repairs.mpf")
        names.write(tmp_path / "repairs.tags")
        path = tmp_path / "repairs.jsonl"
        run_cli(
            "analyze", str(tmp_path / "repairs.mpf"),
            "--names", str(tmp_path / "repairs.tags"),
            "--telemetry", str(path),
        )
        assert self._fold_metrics(path) == {
            ("analysis.anomalies", "unmatched-swtch-exit"): 1,
            ("analysis.anomalies", "missed-exit"): 1,
            ("analysis.anomalies", "unknown-tag"): 1,
            ("analysis.anomalies", "unmatched-exit"): 1,
            # 0-10 before A opened, then 30-50 once A and B had closed.
            ("analysis.unattributed_us", None): 30,
        }

    @pytest.mark.parametrize(
        "reports,held",
        [
            # Read in 8,192-record chunks: one block straddles the cut.
            (["summary"], 4621),
            # The call tree's fold steps the capture as one batch.
            (["trace", "summary"], 0),
        ],
    )
    def test_analyze_telemetry_on_figure5(self, tmp_path, reports, held):
        path = tmp_path / "fig5.jsonl"
        argv = ["analyze", str(GOLDEN_DIR / "figure5_forkexec_v2.mpf")]
        argv += ["--names", str(GOLDEN_DIR / "case_study.tags")]
        for report in reports:
            argv += ["--report", report]
        run_cli(*argv, "--telemetry", str(path))
        # A clean capture: no repairs, 373 us before the first frame opened.
        assert self._fold_metrics(path) == {("analysis.unattributed_us", None): 373}
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        peaks = [d["value"] for d in docs if d.get("name") == "analysis.peak.pending_block"]
        assert peaks == [held]

    def test_telemetry_prometheus_output_validates(self, tmp_path):
        path = tmp_path / "run.prom"
        run_cli(
            "analyze", str(GOLDEN_DIR / "figure3_network_v2.mpf"),
            "--names", str(GOLDEN_DIR / "case_study.tags"),
            "--telemetry", str(path),
        )
        check_prometheus_text(path.read_text())

    def test_bad_telemetry_extension_fails_before_the_run(self, tmp_path, capsys):
        lines: list[str] = []
        code = main(
            [
                "analyze", str(GOLDEN_DIR / "figure3_network_v2.mpf"),
                "--names", str(GOLDEN_DIR / "case_study.tags"),
                "--telemetry", str(tmp_path / "t.csv"),
            ],
            out=lines.append,
        )
        assert code == 2
        assert lines == []  # the analysis never ran
        assert capsys.readouterr().err.startswith("repro: error: cannot infer")
        assert not (tmp_path / "t.csv").exists()

    def test_progress_force_emits_on_stderr_only(self, capsys):
        out_lines = run_cli(
            "analyze", str(GOLDEN_DIR / "figure3_network_v2.mpf"),
            "--names", str(GOLDEN_DIR / "case_study.tags"),
            "--progress=force",
        )
        captured = capsys.readouterr()
        assert "records" in captured.err and "/s" in captured.err
        plain = run_cli(
            "analyze", str(GOLDEN_DIR / "figure3_network_v2.mpf"),
            "--names", str(GOLDEN_DIR / "case_study.tags"),
        )
        assert out_lines == plain  # stdout untouched by the heartbeat

    def test_progress_auto_is_silent_off_tty(self, capsys):
        run_cli(
            "analyze", str(GOLDEN_DIR / "figure3_network_v2.mpf"),
            "--names", str(GOLDEN_DIR / "case_study.tags"),
            "--progress",
        )
        assert capsys.readouterr().err == ""


class TestCliTraceExport:
    def test_trace_export_writes_perfetto_document(self, tmp_path):
        output = tmp_path / "fig5.trace.json"
        lines = run_cli(
            "trace", "export", str(GOLDEN_DIR / "figure5_forkexec_v2.mpf"),
            "--names", str(GOLDEN_DIR / "case_study.tags"),
            "-o", str(output),
        )
        assert "chrome trace written" in lines[-1]
        *events, trailer = json.loads(output.read_text())
        assert trailer["name"] == "trace_end"
        assert f"{len(events)} event(s)" in lines[-1]
        check_chrome_events(events)
        track_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {"P0", "P1", "interrupts"} <= track_names

    def test_trace_export_default_output_path(self, tmp_path):
        capture = tmp_path / "run.mpf"
        capture.write_bytes(
            (GOLDEN_DIR / "figure3_network_v2.mpf").read_bytes()
        )
        run_cli(
            "trace", "export", str(capture),
            "--names", str(GOLDEN_DIR / "case_study.tags"),
        )
        assert (tmp_path / "run.trace.json").exists()

    def test_trace_export_custom_interrupt_frames(self, tmp_path):
        output = tmp_path / "no-intr.json"
        run_cli(
            "trace", "export", str(GOLDEN_DIR / "figure3_network_v2.mpf"),
            "--names", str(GOLDEN_DIR / "case_study.tags"),
            "-o", str(output), "--interrupt-frames", "nosuchframe",
        )
        *events, trailer = json.loads(output.read_text())
        assert trailer["args"]["interrupt_frames"] == ["nosuchframe"]
        assert not any(e.get("cat") == "interrupt" for e in events)
