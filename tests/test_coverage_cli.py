"""CLI surface of the coverage subsystem: ``repro coverage`` + lint flag.

The report and blind-spot walkthrough over the shipped seed corpus (the
two golden v2 captures) are golden files, asserted byte-for-byte — the
coverage cross is a pure function of the corpus and the kernel sources,
so any drift in extraction, classification or formatting lands here as
a reviewable diff.  Regenerate after an intentional change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_coverage_cli.py
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil

import pytest

from repro.__main__ import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
NAMES = str(GOLDEN / "case_study.tags")
SEED_CAPTURES = ("figure3_network_v2.mpf", "figure5_forkexec_v2.mpf")


def run_cli(*argv: str) -> tuple[int, str]:
    lines: list[str] = []
    code = main(list(argv), out=lines.append)
    return code, "\n".join(lines) + "\n"


def check_golden(name: str, text: str) -> None:
    path = GOLDEN / name
    if os.environ.get("REGEN_GOLDEN"):
        path.write_text(text)
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"golden file {path} missing; run with REGEN_GOLDEN=1 to create it"
    )
    assert text == path.read_text(), (
        f"{name} drifted from the golden copy; if the change is "
        "intentional, regenerate with REGEN_GOLDEN=1 and review the diff"
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    # The directory is always named 'corpus' so the report header (which
    # prints the root's basename only) is checkout-independent.
    root = tmp_path_factory.mktemp("covcli") / "corpus"
    root.mkdir()
    for name in SEED_CAPTURES:
        shutil.copy(GOLDEN / name, root / name)
    return str(root)


class TestCoverageReportCommand:
    def test_text_report_matches_golden(self, corpus):
        code, text = run_cli("coverage", "report", corpus, "--names", NAMES)
        assert code == 0
        check_golden("coverage_report.txt", text)

    def test_json_report_matches_golden(self, corpus):
        code, text = run_cli(
            "coverage", "report", corpus, "--names", NAMES, "--json"
        )
        assert code == 0
        check_golden("coverage_report.json", text)

    def test_json_counts_partition_the_universe(self, corpus):
        _, text = run_cli(
            "coverage", "report", corpus, "--names", NAMES, "--json"
        )
        document = json.loads(text)
        counts = document["counts"]
        assert counts["reachable"] == counts["covered"] + counts["blind_spots"]
        assert counts["instrumented"] == (
            counts["reachable"] + counts["unreachable"] + counts["unmapped"]
        )
        assert len(document["covered"]) == counts["covered"]
        assert len(document["blind_spots"]) == counts["blind_spots"]
        assert document["coverage_percent"] == round(
            100.0 * counts["covered"] / counts["reachable"], 1
        )

    def test_jobs_two_is_byte_identical(self, corpus):
        base = run_cli("coverage", "report", corpus, "--names", NAMES, "--json")
        jobs2 = run_cli(
            "coverage", "report", corpus, "--names", NAMES, "--json",
            "--jobs", "2",
        )
        assert base == jobs2

    def test_missing_root_exits_2(self, tmp_path):
        code, _ = run_cli(
            "coverage", "report", str(tmp_path / "nope"), "--names", NAMES
        )
        assert code == 2

    def test_corrupt_capture_exits_1(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        shutil.copy(GOLDEN / SEED_CAPTURES[0], root / SEED_CAPTURES[0])
        (root / "junk.mpf").write_bytes(b"garbage")
        code, text = run_cli("coverage", "report", str(root), "--names", NAMES)
        assert code == 1
        assert "P605" in text or "junk.mpf" in text


class TestBlindspotsCommand:
    def test_text_matches_golden(self, corpus):
        code, text = run_cli("coverage", "blindspots", corpus, "--names", NAMES)
        assert code == 0
        check_golden("coverage_blindspots.txt", text)

    def test_every_blind_spot_has_a_line(self, corpus):
        _, report = run_cli(
            "coverage", "report", corpus, "--names", NAMES, "--json"
        )
        _, walkthrough = run_cli(
            "coverage", "blindspots", corpus, "--names", NAMES
        )
        for spot in json.loads(report)["blind_spots"]:
            assert spot["name"] in walkthrough


class TestHuntCommand:
    def test_fixed_seed_hunt_improves_and_reproduces(self, corpus):
        argv = (
            "coverage", "hunt", corpus, "--names", NAMES,
            "--seed", "1", "--rounds", "1", "--candidates", "2", "--json",
        )
        code, text = run_cli(*argv)
        assert code == 0
        document = json.loads(text)
        assert document["tool"] == "profcov-hunt"
        assert document["covered"] > document["baseline"]
        assert document["gained"]
        assert document["steps"][0]["label"].startswith("hunt: ")
        code2, text2 = run_cli(*argv)
        assert (code, text) == (code2, text2)

    def test_bad_knobs_raise(self, corpus):
        with pytest.raises(SystemExit) as usage:
            run_cli(
                "coverage", "hunt", corpus, "--names", NAMES, "--rounds", "0"
            )
        assert usage.value.code == 2


class TestLintCoverageFlag:
    def test_lint_coverage_corpus_reports_p6xx(self, corpus):
        code, text = run_cli(
            "lint", "--coverage-corpus", corpus, "--names", NAMES
        )
        assert code == 0  # blind spots and dead code are warnings
        assert "P601" in text
        assert "P602" in text

    def test_lint_coverage_corpus_needs_names(self, corpus, capsys):
        code, text = run_cli("lint", "--coverage-corpus", corpus)
        assert code == 2
        assert text == "\n"  # no output lines
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and "--names" in err

    def test_lint_json_schema_carries_p6xx(self, corpus):
        code, text = run_cli(
            "lint", "--coverage-corpus", corpus, "--names", NAMES, "--json"
        )
        assert code == 0
        document = json.loads(text)
        codes = {d["code"] for d in document["diagnostics"]}
        assert {"P601", "P602"} <= codes
