"""CLI surface of the fleet engine: ``repro fleet ingest`` / ``serve``.

Serve-mode tests drive a real subprocess — ephemeral-port discovery, a
live ``/metrics`` scrape, and the SIGINT drain contract (exit 0 with a
final merged summary, never a hang) only mean anything across a process
boundary.  Timeouts are generous for single-core CI boxes.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.__main__ import main

from stream_helpers import build_fleet_corpus

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
REPO_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def run_cli_code(*argv: str) -> tuple[int, list[str]]:
    lines: list[str] = []
    code = main(list(argv), out=lines.append)
    return code, lines


def write_names(tmp_path: pathlib.Path) -> str:
    names = build_fleet_corpus(tmp_path / "unused", captures=0)
    path = tmp_path / "fleet.tags"
    names.write(path)
    return str(path)


class TestFleetIngestCommand:
    def test_jobs_one_and_two_byte_identical(self, tmp_path):
        corpus = tmp_path / "corpus"
        build_fleet_corpus(corpus, captures=6, events=48)
        names = write_names(tmp_path)
        code1, lines1 = run_cli_code(
            "fleet", "ingest", str(corpus), "--names", names, "--jobs", "1"
        )
        code2, lines2 = run_cli_code(
            "fleet", "ingest", str(corpus), "--names", names, "--jobs", "2"
        )
        assert code1 == 0 and code2 == 0
        assert lines1 == lines2

    def test_manifest_is_deterministic(self, tmp_path):
        corpus = tmp_path / "corpus"
        build_fleet_corpus(corpus, captures=4, events=32)
        names = write_names(tmp_path)
        manifests = []
        for jobs in ("1", "2"):
            out = tmp_path / f"manifest_{jobs}.json"
            code, _ = run_cli_code(
                "fleet", "ingest", str(corpus), "--names", names,
                "--jobs", jobs, "--manifest", str(out),
            )
            assert code == 0
            manifests.append(out.read_text())
        assert manifests[0] == manifests[1]
        rows = json.loads(manifests[0])
        assert [row["index"] for row in rows] == list(range(4))
        assert all(row["status"] == "ok" for row in rows)
        assert all("elapsed_us" not in row for row in rows)

    def test_empty_root_exits_2(self, tmp_path):
        (tmp_path / "empty").mkdir()
        names = write_names(tmp_path)
        code, lines = run_cli_code(
            "fleet", "ingest", str(tmp_path / "empty"), "--names", names
        )
        assert code == 2
        assert any("P501" in line for line in lines)

    def test_missing_root_exits_2_with_p506(self, tmp_path):
        names = write_names(tmp_path)
        code, lines = run_cli_code(
            "fleet", "ingest", str(tmp_path / "nope"), "--names", names
        )
        assert code == 2
        assert any("P506" in line for line in lines)

    def test_failed_capture_exits_1_without_salvage(self, tmp_path):
        corpus = tmp_path / "corpus"
        build_fleet_corpus(corpus, captures=2, events=32)
        (corpus / "broken.mpf").write_bytes(b"MPF2 but then lies")
        names = write_names(tmp_path)
        code, lines = run_cli_code(
            "fleet", "ingest", str(corpus), "--names", names, "--jobs", "1"
        )
        assert code == 1
        assert any("P502" in line for line in lines)

    @pytest.mark.skipif(
        not list(GOLDEN_DIR.glob("*.mpf.corrupt")),
        reason="corrupt goldens not checked in",
    )
    def test_salvage_recovers_and_exits_0(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for source in ("figure3_network_v2.mpf", "figure5_forkexec_v2.mpf"):
            shutil.copy(GOLDEN_DIR / source, corpus / source)
        corrupt = sorted(GOLDEN_DIR.glob("*.mpf.corrupt"))[0]
        shutil.copy(corrupt, corpus / corrupt.name)
        tags = str(GOLDEN_DIR / "case_study.tags")
        code, lines = run_cli_code(
            "fleet", "ingest", str(corpus), "--names", tags,
            "--jobs", "2", "--salvage",
        )
        assert code == 0
        text = "\n".join(lines)
        assert "P505" in text and "salvaged=1" in text


def _ci_corpus(root: pathlib.Path) -> pathlib.Path:
    """The CI fleet corpus: 20 captures, 3 of them the corrupt goldens."""
    root.mkdir()
    for i in range(8):
        shutil.copy(GOLDEN_DIR / "figure3_network_v2.mpf", root / f"net_{i}.mpf")
        shutil.copy(GOLDEN_DIR / "figure5_forkexec_v2.mpf", root / f"fork_{i}.mpf")
    shutil.copy(GOLDEN_DIR / "figure3_network.mpf", root / "legacy.mpf")
    for corrupt in GOLDEN_DIR.glob("*.mpf.corrupt"):
        shutil.copy(corrupt, root / corrupt.name)
    return root


class TestFleetTelemetry:
    """``fleet ingest --telemetry`` exports the fleet metrics, pool or not."""

    EXPECTED = {
        "fleet.captures.ingested": 20,
        "fleet.captures.failed": 0,
        "fleet.records.decoded": 97177,
        "fleet.salvage.recoveries": 3,
        "fleet.salvage.defects": 4,
        "fleet.stage.probe_us.count": 20,
        "fleet.stage.decode_us.count": 17,
        "fleet.stage.salvage_us.count": 3,
    }

    @pytest.mark.skipif(
        len(list(GOLDEN_DIR.glob("*.mpf.corrupt"))) != 3,
        reason="corrupt goldens not checked in",
    )
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_fleet_metrics_reach_telemetry(self, tmp_path, jobs):
        corpus = _ci_corpus(tmp_path / "corpus")
        out = tmp_path / "t.jsonl"
        code, _ = run_cli_code(
            "fleet", "ingest", str(corpus),
            "--names", str(GOLDEN_DIR / "case_study.tags"),
            "--jobs", jobs, "--salvage", "--telemetry", str(out),
        )
        assert code == 0
        samples = {}
        for line in out.read_text().splitlines():
            record = json.loads(line)
            if record.get("type") == "metric" and not record["labels"]:
                samples[record["name"]] = record["value"]
        assert {name: samples.get(name) for name in self.EXPECTED} == self.EXPECTED


def _spawn_serve(corpus, names, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "fleet", "serve", str(corpus),
            "--names", str(names), "--jobs", "1", "--poll", "0.2", *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )


def _wait_for_port(process, deadline_s: float = 30.0) -> int:
    """Read stderr until the serve banner names its ephemeral port."""
    start = time.monotonic()
    banner = ""
    while time.monotonic() - start < deadline_s:
        line = process.stderr.readline()
        if not line:
            if process.poll() is not None:
                break
            time.sleep(0.05)
            continue
        banner += line
        match = re.search(r"http://127\.0\.0\.1:(\d+)/metrics", line)
        if match:
            return int(match.group(1))
    raise AssertionError(f"serve never published its port; stderr: {banner}")


class TestFleetServeCommand:
    def test_scrape_then_max_polls_exit(self, tmp_path):
        corpus = tmp_path / "corpus"
        build_fleet_corpus(corpus, captures=3, events=32)
        names = write_names(tmp_path)
        process = _spawn_serve(corpus, names, "--max-polls", "40")
        try:
            port = _wait_for_port(process)
            body = ""
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                body = urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=10
                ).read().decode()
                if "fleet_captures_ingested 3" in body:
                    break
                time.sleep(0.2)
            assert "fleet_captures_ingested 3" in body
            assert "fleet_records_decoded" in body
            stdout, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "fleet serve: 3 capture(s)" in stdout

    def test_sigint_drains_and_exits_0(self, tmp_path):
        corpus = tmp_path / "corpus"
        build_fleet_corpus(corpus, captures=2, events=32)
        names = write_names(tmp_path)
        process = _spawn_serve(corpus, names)  # no --max-polls: runs forever
        try:
            _wait_for_port(process)
            time.sleep(1.5)  # let the first poll ingest the corpus
            process.send_signal(signal.SIGINT)
            stdout, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, "SIGINT must exit 0, not hang or die"
        assert "fleet serve: 2 capture(s)" in stdout
        assert "Elapsed time" in stdout  # the final merged summary printed
