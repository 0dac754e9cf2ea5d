"""CLI surface of the profile database: ``repro db ingest/runs/query/diff/check``.

Everything here drives :func:`repro.__main__.main` in-process; exit
codes are the contract CI scripts branch on, so every path asserts
them.  The golden diff report pins the MPF1/MPF2 figure3 pair — two
files holding identical records — as the canonical all-unchanged,
exit-0 diff.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.__main__ import main

from stream_helpers import build_regression_corpus

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_TAGS = str(GOLDEN_DIR / "case_study.tags")
# Content fingerprints of the frozen figure3 captures (stable: the
# goldens are never regenerated).
FIG3_V1 = "7b402bf026f3"
FIG3_V2 = "3b37790100d7"


def run_cli(*argv: str) -> tuple[int, str]:
    lines: list[str] = []
    code = main(list(argv), out=lines.append)
    return code, "\n".join(lines)


def ingest_goldens(db: str) -> str:
    code, text = run_cli(
        "db", "ingest",
        str(GOLDEN_DIR / "figure3_network.mpf"),
        str(GOLDEN_DIR / "figure3_network_v2.mpf"),
        str(GOLDEN_DIR / "figure5_forkexec_v2.mpf"),
        "--db", db, "--names", GOLDEN_TAGS,
    )
    assert code == 0, text
    return text


@pytest.fixture
def regression_db(tmp_path) -> str:
    """A database holding 3 baseline + 3 seeded-slowdown runs."""
    corpus = tmp_path / "corpus"
    names = build_regression_corpus(
        corpus, label="before", runs=3, spin_us=100
    )
    build_regression_corpus(corpus, label="after", runs=3, spin_us=300)
    names_path = tmp_path / "regress.tags"
    names.write(names_path)
    db = str(tmp_path / "regress.db")
    code, text = run_cli(
        "db", "ingest", str(corpus), "--db", db,
        "--names", str(names_path), "--workload", "regress",
    )
    assert code == 0, text
    return db


class TestIngestCommand:
    def test_ingest_and_idempotence(self, tmp_path):
        db = str(tmp_path / "p.db")
        first = ingest_goldens(db)
        assert "3 added, 0 duplicate(s), 0 failed" in first
        second = ingest_goldens(db)
        assert "0 added, 3 duplicate(s), 0 failed" in second
        assert "3 run(s)" in second

    def test_nothing_found_exits_2(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        code, text = run_cli(
            "db", "ingest", str(tmp_path / "empty"),
            "--db", str(tmp_path / "p.db"), "--names", GOLDEN_TAGS,
        )
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and "no capture files" in err

    def test_failed_capture_exits_1(self, tmp_path):
        bad = tmp_path / "bad.mpf"
        bad.write_bytes(b"\x00" * 64)
        code, text = run_cli(
            "db", "ingest", str(bad),
            "--db", str(tmp_path / "p.db"), "--names", GOLDEN_TAGS,
        )
        assert code == 1
        assert "1 failed" in text

    def test_salvage_ingests_corrupt_goldens(self, tmp_path):
        db = str(tmp_path / "p.db")
        code, text = run_cli(
            "db", "ingest",
            str(GOLDEN_DIR / "salvage_fuzz_bitflip.mpf.corrupt"),
            "--db", db, "--names", GOLDEN_TAGS, "--salvage",
        )
        assert code == 0
        assert "salvaged" in text


class TestRunsAndQueryCommands:
    def test_runs_catalog(self, tmp_path):
        db = str(tmp_path / "p.db")
        ingest_goldens(db)
        code, text = run_cli("db", "runs", "--db", db)
        assert code == 0
        assert "3 run(s)" in text
        assert FIG3_V1 in text and FIG3_V2 in text
        assert "mpf1" in text  # the legacy capture is flagged

    def test_runs_json_is_strict(self, tmp_path):
        db = str(tmp_path / "p.db")
        ingest_goldens(db)
        code, text = run_cli("db", "runs", "--db", db, "--json")
        document = json.loads(text)
        json.dumps(document, allow_nan=False)
        assert len(document["runs"]) == 3
        assert document["runs"] == sorted(
            document["runs"], key=lambda r: r["fingerprint"]
        )

    def test_query_filters_compose(self, tmp_path):
        db = str(tmp_path / "p.db")
        ingest_goldens(db)
        code, text = run_cli(
            "db", "query", "--db", db, "--workload", "network",
            "--function", "*cksum*", "--min-pct-net", "1",
        )
        assert code == 0
        assert "in_cksum" in text
        assert "forkexec" not in text

    def test_query_json_and_sort(self, tmp_path):
        db = str(tmp_path / "p.db")
        ingest_goldens(db)
        code, text = run_cli(
            "db", "query", "--db", db, "--sort", "calls",
            "--limit", "5", "--json",
        )
        rows = json.loads(text)["functions"]
        assert len(rows) == 5
        calls = [row["calls"] for row in rows]
        assert calls == sorted(calls, reverse=True)


class TestDiffCommand:
    def test_identical_records_golden_report(self, tmp_path):
        """figure3 v1/v2 hold identical records: the exit-0 golden."""
        db = str(tmp_path / "p.db")
        ingest_goldens(db)
        code, text = run_cli("db", "diff", FIG3_V1, FIG3_V2, "--db", db)
        assert code == 0
        golden = (GOLDEN_DIR / "db_diff.txt").read_text()
        assert text + "\n" == golden

    def test_seeded_regression_exits_2(self, regression_db):
        code, text = run_cli(
            "db", "diff", "before", "after", "--db", regression_db
        )
        assert code == 2
        assert "REGRESSION" in text
        assert "spin" in text

    def test_benign_direction_exits_1(self, regression_db):
        code, text = run_cli(
            "db", "diff", "after", "before", "--db", regression_db
        )
        assert code == 1
        assert "REGRESSION" not in text

    def test_json_document(self, regression_db):
        code, text = run_cli(
            "db", "diff", "before", "after", "--db", regression_db, "--json"
        )
        assert code == 2
        document = json.loads(text)
        json.dumps(document, allow_nan=False)
        assert document["exit_code"] == 2
        assert document["functions"][0]["name"] == "spin"
        assert document["baseline"]["selector"] == "before"

    def test_baseline_label_sugar(self, regression_db):
        code, _ = run_cli(
            "db", "diff", "after", "--db", regression_db,
            "--baseline-label", "before",
        )
        assert code == 2

    def test_baseline_label_conflicts_with_two_positionals(self, regression_db, capsys):
        code, text = run_cli(
            "db", "diff", "a", "b", "--db", regression_db,
            "--baseline-label", "before",
        )
        assert (code, text) == (2, "")
        assert "not both" in capsys.readouterr().err

    def test_missing_candidate_rejected(self, regression_db, capsys):
        code, text = run_cli("db", "diff", "before", "--db", regression_db)
        assert (code, text) == (2, "")
        assert "need a baseline and a candidate" in capsys.readouterr().err

    def test_unknown_selector_rejected(self, regression_db, capsys):
        code, text = run_cli("db", "diff", "before", "nonesuch", "--db", regression_db)
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and "no run matches" in err

    def test_threshold_knobs(self, regression_db):
        # An absurd absolute floor silences the seeded regression.
        code, text = run_cli(
            "db", "diff", "before", "after", "--db", regression_db,
            "--min-abs-us", "10000000",
        )
        assert code == 0
        assert "no movement beyond noise" in text


class TestRowLimits:
    """``--limit N`` prints at most N rows: 0 the header alone, and a
    negative count is a usage error, not a slice off the end."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["db", "query", "--function", "tcp_*"],
            ["db", "diff", FIG3_V1, FIG3_V2],
        ],
        ids=["query", "diff"],
    )
    def test_negative_limit_is_a_usage_error(self, tmp_path, capsys, argv):
        db = str(tmp_path / "p.db")
        ingest_goldens(db)
        with pytest.raises(SystemExit) as usage:
            run_cli(*argv, "--db", db, "--limit", "-1")
        assert usage.value.code == 2
        assert "--limit: must be at least 0, got -1" in capsys.readouterr().err

    def test_query_limit_zero_prints_the_header_alone(self, tmp_path):
        db = str(tmp_path / "p.db")
        ingest_goldens(db)
        code, text = run_cli("db", "query", "--db", db, "--function", "tcp_*")
        assert code == 0 and len(text.splitlines()) > 3
        code, text = run_cli(
            "db", "query", "--db", db, "--function", "tcp_*", "--limit", "0"
        )
        assert code == 0
        assert text.splitlines()[1:] == ["0 row(s)"]

    def test_diff_text_limit(self, tmp_path):
        """The delta table holds 10 rows unless ``--limit`` says
        otherwise, 0 included."""
        db = str(tmp_path / "p.db")
        ingest_goldens(db)
        golden = (GOLDEN_DIR / "db_diff.txt").read_text().splitlines()
        header = golden.index(f"{'net before':>11} {'net after':>10} {'delta':>9}   name")
        for limit, rows in ((None, 10), ("0", 0), ("3", 3)):
            flag = [] if limit is None else ["--limit", limit]
            code, text = run_cli("db", "diff", FIG3_V1, FIG3_V2, "--db", db, *flag)
            assert code == 0
            assert text.splitlines() == (
                golden[: header + 1 + rows] + golden[header + 11 :]
            ), limit


class TestCheckCommand:
    def test_clean_db(self, regression_db):
        code, text = run_cli("db", "check", "--db", regression_db)
        assert code == 0
        assert "clean" in text

    def test_json_report(self, regression_db):
        code, text = run_cli("db", "check", "--db", regression_db, "--json")
        document = json.loads(text)
        assert document["tool"] == "proflint"
        assert document["ok"]

    def test_drifted_db_exits_1(self, tmp_path, regression_db):
        import sqlite3

        raw = sqlite3.connect(regression_db)
        with raw:
            raw.execute("UPDATE schema_version SET version = 99")
        raw.close()
        code, text = run_cli("db", "check", "--db", regression_db)
        assert code == 1
        assert "P701" in text

    def test_lint_db_flag_is_the_same_pass(self, regression_db):
        code, text = run_cli("lint", "--db", regression_db)
        assert code == 0
        # The --db flag alone must not trigger the self-check pass.
        assert "case-study" not in text


#: The commands that only read a database, and the exit code each gives
#: for one it cannot read.
READ_ONLY_COMMANDS = [
    (["db", "runs"], 2),
    (["db", "query"], 2),
    (["db", "diff", "before", "after"], 2),
    (["db", "check"], 1),
    (["lint"], 1),
]
READ_ONLY_IDS = [" ".join(command) for command, _ in READ_ONLY_COMMANDS]


class TestReadOnlyCommands:
    """Only ``db ingest`` creates a database.  The commands that read one
    leave a missing path missing and an empty file empty: ``db runs``,
    ``query`` and ``diff`` fail with one ``repro: error:`` line, ``db
    check`` and ``lint --db`` report one P701 diagnostic."""

    @staticmethod
    def _run(command, db, capsys):
        code, text = run_cli(*command, "--db", str(db))
        captured = capsys.readouterr()
        if command[0] == "db" and command[1] != "check":
            assert text == "" and captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith("repro: error: ")
        else:
            line, verdict = text.splitlines()
            assert line.startswith(f"{db}: error P701: ")
            assert verdict.startswith("proflint: 1 error(s)")
        return code, line

    @pytest.mark.parametrize(
        "command, exit_code", READ_ONLY_COMMANDS, ids=READ_ONLY_IDS
    )
    def test_missing_path_stays_missing(self, tmp_path, capsys, command, exit_code):
        db = tmp_path / "missing.db"
        code, line = self._run(command, db, capsys)
        assert code == exit_code
        assert "unable to open database file" in line
        assert not db.exists()

    @pytest.mark.parametrize(
        "command, exit_code", READ_ONLY_COMMANDS, ids=READ_ONLY_IDS
    )
    def test_empty_file_stays_empty(self, tmp_path, capsys, command, exit_code):
        db = tmp_path / "empty.mpf"
        db.touch()
        code, line = self._run(command, db, capsys)
        assert code == exit_code
        assert "database is empty" in line
        assert db.stat().st_size == 0


class TestDeterminismAcrossIngestOrders:
    def test_diff_report_independent_of_ingest_order(self, tmp_path):
        corpus = tmp_path / "corpus"
        names = build_regression_corpus(
            corpus, label="before", runs=2, spin_us=100
        )
        build_regression_corpus(corpus, label="after", runs=2, spin_us=300)
        names_path = tmp_path / "r.tags"
        names.write(names_path)
        captures = sorted(str(p) for p in corpus.glob("*.mpf"))
        outputs = []
        for index, order in enumerate((captures, list(reversed(captures)))):
            db = str(tmp_path / f"o{index}.db")
            for capture in order:
                code, _ = run_cli(
                    "db", "ingest", capture, "--db", db,
                    "--names", str(names_path), "--workload", "regress",
                )
                assert code == 0
            code, text = run_cli(
                "db", "diff", "before", "after", "--db", db, "--json"
            )
            assert code == 2
            outputs.append(text)
        assert outputs[0] == outputs[1]
