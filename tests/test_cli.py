"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
from typing import Optional

import pytest

from repro.__main__ import main
from repro.db.schema import connect

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def run_cli(*argv: str) -> list[str]:
    lines: list[str] = []
    code = main(list(argv), out=lines.append)
    assert code == 0
    return lines


def run_cli_code(*argv: str) -> tuple[int, list[str]]:
    lines: list[str] = []
    code = main(list(argv), out=lines.append)
    return code, lines


class TestCaptureCommand:
    def test_network_summary(self):
        lines = run_cli("capture", "--workload", "network", "--packets", "6")
        text = "\n".join(lines)
        assert "captured" in text
        assert "Elapsed time" in text
        assert "bcopy" in text

    def test_multiple_reports(self):
        lines = run_cli(
            "capture",
            "--workload",
            "network",
            "--packets",
            "4",
            "--report",
            "summary",
            "--report",
            "flame",
        )
        text = "\n".join(lines)
        assert "Elapsed time" in text
        assert "[" in text  # flame bars

    def test_gprof_and_folded(self):
        lines = run_cli(
            "capture", "--workload", "mixed", "--packets", "8",
            "--report", "gprof", "--report", "folded",
        )
        text = "\n".join(lines)
        assert "calls" in text
        assert ";" in text  # folded stacks

    def test_micro_profile_modules(self):
        lines = run_cli(
            "capture", "--workload", "network", "--packets", "4",
            "--modules", "netinet,isa/if_we",
        )
        text = "\n".join(lines)
        assert "tcp_input" in text
        assert "pmap_remove" not in text

    def test_save_and_analyze_roundtrip(self, tmp_path):
        capture_file = tmp_path / "run.mpf"
        names_file = tmp_path / "run.tags"
        run_cli(
            "capture", "--workload", "network", "--packets", "5",
            "--save", str(capture_file), "--names", str(names_file),
        )
        assert capture_file.exists() and names_file.exists()
        lines = run_cli(
            "analyze", str(capture_file), "--names", str(names_file),
            "--report", "trace",
        )
        text = "\n".join(lines)
        assert "loaded" in text
        assert "-> tcp_input" in text

    def test_tty_workload(self):
        lines = run_cli("capture", "--workload", "tty", "--packets", "20")
        assert any("comintr" in line for line in lines)

    def test_snmp_workload(self):
        lines = run_cli(
            "capture", "--workload", "snmp-btree", "--packets", "5"
        )
        assert any("mib_search_btree" in line for line in lines)


class TestDesyncFooter:
    def test_capture_summary_reports_zero_desyncs(self):
        lines = run_cli("capture", "--workload", "network", "--packets", "4")
        assert "kstack desyncs = 0" in lines

    def test_streaming_capture_also_reports_desyncs(self):
        lines = run_cli(
            "capture", "--workload", "network", "--packets", "4",
            "--report", "trace", "--report", "summary",
        )
        assert "kstack desyncs = 0" in lines

    def test_analyze_summary_reports_desyncs(self, tmp_path):
        capture_file = tmp_path / "run.mpf"
        names_file = tmp_path / "run.tags"
        run_cli(
            "capture", "--workload", "network", "--packets", "4",
            "--save", str(capture_file), "--names", str(names_file),
        )
        lines = run_cli("analyze", str(capture_file), "--names", str(names_file))
        assert "kstack desyncs = 0" in lines


class TestLintCommand:
    def test_self_check_is_default_and_clean(self):
        code, lines = run_cli_code("lint")
        assert code == 0
        assert any("clean" in line for line in lines)

    def test_golden_captures_lint_clean(self):
        captures = sorted(str(p) for p in GOLDEN_DIR.glob("*.mpf"))
        assert captures, "golden captures missing from tests/golden/"
        code, _ = run_cli_code(
            "lint", *captures, "--names", str(GOLDEN_DIR / "case_study.tags")
        )
        assert code == 0

    def test_kernel_ast_pass_is_clean(self):
        code, _ = run_cli_code("lint", "--kernel-ast")
        assert code == 0

    def test_error_diagnostics_exit_one(self, tmp_path):
        bad = tmp_path / "bad.tags"
        bad.write_text("main/502\nmain/510\n")
        code, lines = run_cli_code("lint", "--names", str(bad))
        assert code == 1
        assert any("P001" in line for line in lines)

    def test_captures_without_names_exit_two(self, tmp_path):
        capture = tmp_path / "x.mpf"
        capture.write_bytes(b"MPF1\x00\x00\x00\x00")
        code, _ = run_cli_code("lint", str(capture))
        assert code == 2

    def test_json_report(self, tmp_path):
        bad = tmp_path / "bad.tags"
        bad.write_text("broken/501\n")
        code, lines = run_cli_code("lint", "--names", str(bad), "--json")
        assert code == 1
        document = json.loads("\n".join(lines))
        assert document["tool"] == "proflint"
        assert document["counts"]["error"] == 1
        assert document["diagnostics"][0]["code"] == "P003"


class TestStrictAnalyze:
    def test_clean_capture_analyzes(self, tmp_path):
        capture_file = tmp_path / "run.mpf"
        names_file = tmp_path / "run.tags"
        run_cli(
            "capture", "--workload", "network", "--packets", "4",
            "--save", str(capture_file), "--names", str(names_file),
        )
        lines = run_cli(
            "analyze", str(capture_file), "--names", str(names_file), "--strict"
        )
        text = "\n".join(lines)
        assert "clean" in text and "Elapsed time" in text

    def test_corrupt_capture_refused(self, tmp_path):
        capture_file = tmp_path / "run.mpf"
        names_file = tmp_path / "run.tags"
        run_cli(
            "capture", "--workload", "network", "--packets", "4",
            "--save", str(capture_file), "--names", str(names_file),
        )
        data = capture_file.read_bytes()
        capture_file.write_bytes(data[:-3])  # tear the last record
        code, lines = run_cli_code(
            "analyze", str(capture_file), "--names", str(names_file), "--strict"
        )
        assert code == 1
        text = "\n".join(lines)
        assert "P200" in text and "refusing to analyze" in text
        assert "Elapsed time" not in text  # analysis never ran


class TestGprofFromTheFold:
    """gprof is assembled from the fold's arcs: ``analyze`` serves it, with
    or without the summary, from one pass over the file, no call tree and
    no recorder on the fold."""

    @pytest.mark.parametrize("reports", [["gprof"], ["summary", "gprof"]])
    def test_one_columnar_pass_no_load_no_tree(self, monkeypatch, reports):
        import repro.__main__ as cli
        from repro.analysis import callstack
        from repro.profiler.capture import Capture

        def forbidden(*args, **kwargs):
            raise AssertionError("the gprof path built the call tree or loaded the capture")

        monkeypatch.setattr(Capture, "load", forbidden)
        monkeypatch.setattr(callstack, "build_call_tree", forbidden)
        passes = []
        iter_columns = cli.iter_capture_columns

        def counted(*args, **kwargs):
            passes.append(args)
            return iter_columns(*args, **kwargs)

        monkeypatch.setattr(cli, "iter_capture_columns", counted)
        recorders = []
        fold_columns = cli.fold_columns

        def recorded(*args, **kwargs):
            recorders.append(kwargs.get("recorder"))
            return fold_columns(*args, **kwargs)

        monkeypatch.setattr(cli, "fold_columns", recorded)
        argv = ["analyze", str(GOLDEN_DIR / "figure5_forkexec_v2.mpf")]
        argv += ["--names", str(GOLDEN_DIR / "case_study.tags")]
        for report in reports:
            argv += ["--report", report]
        text = "\n".join(run_cli(*argv))
        assert len(passes) == 1
        assert recorders == [None]
        assert text.endswith((GOLDEN_DIR / "figure5_forkexec_gprof.txt").read_text())


class TestSinglePassFold:
    """The summary and gprof folds step the file's raw (time, tag) pairs:
    no decoded-column batch is built on the way."""

    @pytest.mark.parametrize(
        "report,limit,golden",
        [
            ("summary", "20", "figure5_forkexec_summary.txt"),
            ("gprof", "12", "figure5_forkexec_gprof.txt"),
        ],
    )
    def test_no_columnar_decode(self, monkeypatch, report, limit, golden):
        from repro.analysis import columnar

        def forbidden(*args, **kwargs):
            raise AssertionError("the fold decoded a batch to columns")

        # Rebind every name the function is reachable by, as a tracer would.
        original = columnar.decode_columns
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, "decode_columns", None) is original
            ):
                monkeypatch.setattr(module, "decode_columns", forbidden)
        lines = run_cli(
            "analyze", str(GOLDEN_DIR / "figure5_forkexec_v2.mpf"),
            "--names", str(GOLDEN_DIR / "case_study.tags"),
            "--report", report, "--summary-limit", limit,
        )
        text = "\n".join(lines[1:])
        assert text.startswith((GOLDEN_DIR / golden).read_text())


def _bad_inputs(tmp_path) -> dict[str, tuple[pathlib.Path, pathlib.Path]]:
    """Unreadable inputs: name -> (capture, name file)."""
    names = GOLDEN_DIR / "case_study.tags"
    golden = (GOLDEN_DIR / "figure3_network_v2.mpf").read_bytes()
    empty = tmp_path / "empty.mpf"
    empty.write_bytes(b"")
    random_bytes = tmp_path / "random.mpf"
    random_bytes.write_bytes(bytes((i * 151 + 7) % 256 for i in range(3000)))
    truncated = tmp_path / "truncated.mpf"
    truncated.write_bytes(golden[: len(golden) - 3])
    malformed_names = tmp_path / "malformed.tags"
    malformed_names.write_text("garbage line\n")
    return {
        "missing capture": (tmp_path / "missing.mpf", names),
        "empty capture": (empty, names),
        "random capture": (random_bytes, names),
        "truncated capture": (truncated, names),
        "missing name file": (GOLDEN_DIR / "figure3_network_v2.mpf", tmp_path / "missing.tags"),
        "malformed name file": (GOLDEN_DIR / "figure3_network_v2.mpf", malformed_names),
    }


#: The capture faults of :func:`_bad_inputs`.
CAPTURE_FAULTS = ["missing capture", "empty capture", "random capture", "truncated capture"]


class TestUnreadableInput:
    """Bad input fails with one line on stderr and exit 2, never a
    traceback, whichever report was asked for — and every reader says
    the same thing about the same fault."""

    @pytest.mark.parametrize(
        "case",
        [*CAPTURE_FAULTS, "missing name file", "malformed name file"],
    )
    def test_one_line_and_exit_two(self, tmp_path, capsys, case):
        capture, names = _bad_inputs(tmp_path)[case]
        commands = {
            report: ["analyze", str(capture), "--names", str(names), "--report", report]
            for report in ("summary", "gprof", "trace")
        }
        commands["export"] = [
            "trace", "export", str(capture), "--names", str(names),
            "-o", str(tmp_path / "out.trace.json"),
        ]
        messages = {}
        for command, argv in commands.items():
            code, lines = run_cli_code(*argv)
            err = capsys.readouterr().err
            assert code == 2, (command, err)
            assert lines == []
            assert "Traceback" not in err
            assert len(err.splitlines()) == 1, err
            assert err.startswith("repro: error: ")
            messages[command] = err
        assert len(set(messages.values())) == 1, messages

    def test_subprocess_prints_no_traceback(self, tmp_path):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [
                sys.executable, "-m", "repro", "analyze", str(tmp_path / "missing.mpf"),
                "--names", str(GOLDEN_DIR / "case_study.tags"), "--report", "gprof",
            ],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("repro: error: ")
        assert len(done.stderr.splitlines()) == 1, done.stderr


class TestBadCaptureExitCodes:
    """The other entry points on the same bad captures: a documented
    exit code and never a traceback."""

    def _run(self, capsys, *argv: str) -> int:
        code, lines = run_cli_code(*argv)
        captured = capsys.readouterr()
        for text in (*lines, captured.out, captured.err):
            assert "Traceback" not in text
        return code

    @pytest.mark.parametrize("case", CAPTURE_FAULTS)
    def test_per_capture_commands(self, tmp_path, capsys, case):
        capture, names = _bad_inputs(tmp_path)[case]
        assert self._run(capsys, "lint", str(capture), "--names", str(names)) == 1
        doctor = self._run(capsys, "capture", "doctor", str(capture))
        assert doctor == (1 if case == "truncated capture" else 2)
        live = self._run(capsys, "live", "analyze", str(capture), "--names", str(names))
        assert live == 2
        db = tmp_path / "corpus.db"
        ingest = ["db", "ingest", str(capture), "--db", str(db), "--names", str(names)]
        assert self._run(capsys, *ingest) == 1

    def test_fleet_ingest(self, tmp_path, capsys):
        names = str(GOLDEN_DIR / "case_study.tags")
        _bad_inputs(tmp_path)
        assert self._run(capsys, "fleet", "ingest", str(tmp_path), "--names", names) == 1
        missing = str(tmp_path / "no-such-dir")
        assert self._run(capsys, "fleet", "ingest", missing, "--names", names) == 2


def _bad_input_argv(case: str, tmp_path: pathlib.Path) -> list[str]:
    """One command line per kind of bad input."""
    names = str(GOLDEN_DIR / "case_study.tags")
    capture = str(GOLDEN_DIR / "figure3_network_v2.mpf")
    unopenable = str(tmp_path / "no-such-dir" / "x.db")
    connect(tmp_path / "empty.db").close()  # a database no capture was ingested into
    cut = tmp_path / "cut.mpf"
    cut.write_bytes((GOLDEN_DIR / "figure3_network_v2.mpf").read_bytes()[:-3])
    return {
        "capture workload": ["capture", "--workload", "nope"],
        "live capture workload": [
            "live", "capture", "--workload", "nope", "--names", str(tmp_path / "t.tags"),
        ],
        "top workload": ["top", "--workload", "nope", "--once"],
        "db diff unknown selector": [
            "db", "diff", "before", "nonesuch", "--db", str(tmp_path / "empty.db"),
        ],
        "db ingest unopenable": ["db", "ingest", capture, "--db", unopenable, "--names", names],
        "db runs unopenable": ["db", "runs", "--db", unopenable],
        "db query unopenable": ["db", "query", "--db", unopenable],
        "db diff unopenable": ["db", "diff", "a", "b", "--db", unopenable],
        "telemetry extension": [
            "analyze", capture, "--names", names, "--telemetry", str(tmp_path / "t.csv"),
        ],
        "live analyze cut mid-record": [
            "live", "analyze", str(cut), "--names", names, "--window", "3600",
        ],
        "lint without names": ["lint", str(tmp_path / "x.mpf")],
        "coverage missing root": [
            "coverage", "report", str(tmp_path / "no-such-root"), "--names", names,
        ],
    }[case]


class TestBadInputIsOneErrorLine:
    """Every bad input, whatever the command: exit 2, one
    ``repro: error:`` line on stderr, nothing on stdout."""

    @pytest.mark.parametrize(
        "case",
        [
            "capture workload",
            "live capture workload",
            "top workload",
            "db diff unknown selector",
            "db ingest unopenable",
            "db runs unopenable",
            "db query unopenable",
            "db diff unopenable",
            "telemetry extension",
            "live analyze cut mid-record",
            "lint without names",
            "coverage missing root",
        ],
    )
    def test_exit_two_one_line(self, tmp_path, capsys, case):
        code, lines = run_cli_code(*_bad_input_argv(case, tmp_path))
        captured = capsys.readouterr()
        assert code == 2, captured.err
        assert lines == [] and captured.out == ""
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1, captured.err
        assert captured.err.startswith("repro: error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["live", "capture", "--names", "x.tags", "--chunk-records", "0"],
            ["coverage", "hunt", "root", "--names", "x.tags", "--candidates", "0"],
        ],
    )
    def test_usage_errors_exit_two(self, argv):
        with pytest.raises(SystemExit) as usage:
            main(argv, out=lambda line: None)
        assert usage.value.code == 2

    @pytest.mark.parametrize(
        "command",
        [
            ["capture", "--workload", "nope"],
            ["analyze", "x.mpf", "--names", "x.tags"],
            ["fleet", "ingest", "no-such-root", "--names", "x.tags"],
            ["fleet", "serve", "no-such-root", "--names", "x.tags", "--max-polls", "1"],
            ["live", "analyze", "x.mpf", "--names", str(GOLDEN_DIR / "case_study.tags")],
        ],
        ids=["capture", "analyze", "fleet ingest", "fleet serve", "live analyze"],
    )
    def test_negative_summary_limit_is_a_usage_error(self, capsys, command):
        """A negative row limit would slice rows off the end of the
        summary; every command that prints one refuses it."""
        with pytest.raises(SystemExit) as usage:
            main([*command, "--summary-limit", "-1"], out=lambda line: None)
        assert usage.value.code == 2
        assert "--summary-limit: must be at least 0, got -1" in capsys.readouterr().err

    def test_trace_export_names_the_output_it_was_given(self, tmp_path, capsys):
        """An output directory that does not exist is reported by the path
        given, not by the temp file written beside it, and nothing is left
        behind."""
        output = tmp_path / "missing" / "x.json"
        code, lines = run_cli_code(
            "trace", "export", str(GOLDEN_DIR / "figure3_network_v2.mpf"),
            "--names", str(GOLDEN_DIR / "case_study.tags"), "-o", str(output),
        )
        assert code == 2 and lines == []
        assert capsys.readouterr().err.splitlines() == [
            f"repro: error: [Errno 2] No such file or directory: '{output}'"
        ]
        assert list(tmp_path.iterdir()) == []

    def test_zero_summary_limit_prints_the_header_alone(self):
        lines = run_cli(
            "analyze", str(GOLDEN_DIR / "figure3_network_v2.mpf"),
            "--names", str(GOLDEN_DIR / "case_study.tags"), "--summary-limit", "0",
        )
        summary = lines[1].splitlines()
        assert summary[-1].split()[-1] == "name"  # the column header, no row
        assert lines[2:] == ["kstack desyncs = 0", ""]


class TestOneFold:
    """A summary printed beside a call-tree report comes from the tree's
    own fold: the capture is folded once, and the text is the text each
    report prints alone."""

    @pytest.mark.parametrize("order", [["summary", "trace"], ["trace", "summary"]])
    def test_summary_beside_trace_steps_one_fold(self, monkeypatch, order):
        from repro.analysis.summary import SummaryAccumulator

        capture = str(GOLDEN_DIR / "figure3_network_v2.mpf")
        argv = ["analyze", capture, "--names", str(GOLDEN_DIR / "case_study.tags")]
        alone = {report: run_cli(*argv, "--report", report)[1:] for report in order}
        folds = []
        original = SummaryAccumulator.__init__

        def counted(self, *args, **kwargs):
            folds.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(SummaryAccumulator, "__init__", counted)
        reports = [flag for report in order for flag in ("--report", report)]
        mixed = run_cli(*argv, *reports)
        assert len(folds) == 1
        assert mixed[1:] == alone[order[0]] + alone[order[1]]
        trace = (GOLDEN_DIR / "figure4_code_path_trace.txt").read_text()
        assert trace in "\n".join(mixed) + "\n"


#: Modules a ``capture`` to its default summary has no use for.
NOT_LOADED_BY_CAPTURE = (
    "repro.lint", "repro.fleet", "repro.db", "repro.coverage", "repro.live",
    "repro.baselines",
    "repro.analysis.callstack", "repro.analysis.trace", "repro.analysis.folded",
    "repro.analysis.timeline", "repro.analysis.compare", "repro.analysis.graph",
    "repro.analysis.histogram", "repro.analysis.reports", "repro.telemetry.export",
    "http.server", "concurrent.futures", "multiprocessing", "sqlite3",
)

#: Modules an ``analyze`` to a summary or gprof report has no use for:
#: those, and the simulated machine a ``capture`` boots.
NOT_LOADED_BY_ANALYZE = NOT_LOADED_BY_CAPTURE + (
    "repro.system", "repro.kernel", "repro.sim", "repro.workloads",
    "repro.profiler.hardware",
)


def _modules_loaded_by(argv: Optional[list[str]]) -> list[str]:
    """The modules a fresh interpreter holds after importing the CLI
    and, if *argv* is given, running that command."""
    run = ""
    if argv is not None:
        run = f"assert repro.__main__.main({argv!r}, out=lambda line: None) == 0\n"
    code = "import sys\nimport repro.__main__\n" + run + "print(*sys.modules)\n"
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def _within(loaded: list[str], packages: tuple[str, ...]) -> list[str]:
    """The *loaded* modules that are one of *packages* or inside one."""
    return sorted(
        module
        for module in loaded
        if any(module == name or module.startswith(name + ".") for name in packages)
    )


class TestLeanStartup:
    """The CLI imports a command's modules when the command runs: the
    import itself and an ``analyze`` to a summary or gprof report load
    neither the other commands' subsystems nor the simulator, and only
    the call-tree reports build a call tree."""

    @pytest.mark.parametrize("report", [None, "summary", "gprof"])
    def test_analyze_loads_only_what_it_uses(self, report):
        argv = None
        if report is not None:
            argv = [
                "analyze", str(GOLDEN_DIR / "figure5_forkexec_v2.mpf"),
                "--names", str(GOLDEN_DIR / "case_study.tags"), "--report", report,
            ]
        loaded = _modules_loaded_by(argv)
        assert "repro.analysis.summary" in loaded
        assert _within(loaded, NOT_LOADED_BY_ANALYZE) == []

    def test_capture_loads_only_what_it_uses(self):
        """``capture`` boots the simulator, and folds its default summary
        like ``analyze``: no call tree, no tree report."""
        loaded = _modules_loaded_by(
            ["capture", "--workload", "network", "--packets", "2"]
        )
        assert {"repro.system", "repro.analysis.summary"} <= set(loaded)
        assert _within(loaded, NOT_LOADED_BY_CAPTURE) == []

    @pytest.mark.parametrize("command", ["trace export", "lint", "live analyze"])
    def test_only_tree_reports_build_a_call_tree(self, tmp_path, command):
        """The other commands that read a capture fold it too, and do not
        load the tree module either."""
        capture = str(GOLDEN_DIR / "figure5_forkexec_v2.mpf")
        names = ["--names", str(GOLDEN_DIR / "case_study.tags")]
        argv = {
            "trace export": [
                "trace", "export", capture, *names, "-o", str(tmp_path / "t.json"),
            ],
            "lint": ["lint", capture, *names],
            "live analyze": [
                "live", "analyze", capture, *names,
                "--trace-out", str(tmp_path / "live.json"),
            ],
        }[command]
        loaded = _modules_loaded_by(argv)
        assert "repro.analysis.summary" in loaded
        assert "repro.analysis.callstack" not in loaded


class TestOtherCommands:
    def test_workloads_listing(self):
        from repro.workloads import WORKLOAD_REGISTRY

        lines = run_cli("workloads")
        text = "\n".join(lines)
        for name in WORKLOAD_REGISTRY:
            assert name in text

    def test_bad_workload_rejected(self, capsys):
        code, lines = run_cli_code("capture", "--workload", "nope")
        assert (code, lines) == (2, [])
        err = capsys.readouterr().err
        assert err.startswith("repro: error: unknown workload 'nope'")

    def test_analyze_requires_names(self):
        with pytest.raises(SystemExit) as usage:
            main(["analyze", "whatever.mpf"], out=lambda s: None)
        assert usage.value.code == 2

    def test_cli_imports_without_networkx(self):
        """The CLI needs nothing outside the standard library: it imports
        with networkx blocked."""
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        code = "import sys; sys.modules['networkx'] = None; import repro.__main__"
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
