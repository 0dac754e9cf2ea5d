"""Unit tests for the profile corpus database (repro.db).

The contracts under test, in schema -> ingest -> query -> diff order:

* the schema version gate (fresh file initialised, drift refused);
* content-fingerprint idempotence: re-ingesting a corpus — in any
  order, under any paths — changes nothing and renders identically;
* selector resolution and deterministic query ordering;
* the statistical diff: pooled noise, the singleton fallback, the
  appeared/vanished rules, and the 0/1/2 exit-code gate;
* the P7xx integrity lint over mutated databases.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.analysis.compare import WorkloadMismatchWarning
from repro.db.diff import DiffThresholds, diff_runs
from repro.db.ingest import ingest_capture, ingest_paths
from repro.db.query import (
    function_row_count,
    list_runs,
    query_functions,
    resolve_runs,
    run_count,
)
from repro.db.render import (
    render_diff_json,
    render_diff_text,
    render_query_text,
    render_runs_text,
)
from repro.db.schema import SCHEMA_VERSION, ProfileDbError, connect, read_schema_version
from repro.fleet.ingest import discover_captures
from repro.fleet import ingest as fleet_ingest
from repro.lint.db_lint import lint_profile_db
from repro.profiler.upload import write_capture_file
from repro.workloads import workload_tag

from stream_helpers import (
    build_regression_corpus,
    columns_of,
    fleet_names,
    regression_records,
    synth_capture_records,
)


@pytest.fixture
def names():
    return fleet_names()


def write_run(path, index=0, events=48, label=None):
    write_capture_file(
        path,
        columns_of(synth_capture_records(index, events)),
        label=label if label is not None else f"cap-{index:04d}",
    )
    return path


class TestSchema:
    def test_fresh_file_initialised(self, tmp_path):
        conn = connect(tmp_path / "p.db")
        assert read_schema_version(conn) == SCHEMA_VERSION
        conn.close()

    def test_reopen_is_fine(self, tmp_path):
        connect(tmp_path / "p.db").close()
        conn = connect(tmp_path / "p.db")
        assert run_count(conn) == 0
        conn.close()

    def test_version_drift_refused(self, tmp_path):
        conn = connect(tmp_path / "p.db")
        with conn:
            conn.execute("UPDATE schema_version SET version = ?",
                         (SCHEMA_VERSION + 1,))
        conn.close()
        with pytest.raises(ProfileDbError, match="schema version"):
            connect(tmp_path / "p.db")

    def test_tables_without_version_row_is_drift(self, tmp_path):
        raw = sqlite3.connect(tmp_path / "p.db")
        raw.execute("CREATE TABLE runs (id INTEGER PRIMARY KEY)")
        raw.commit()
        assert read_schema_version(raw) == -1
        raw.close()
        with pytest.raises(ProfileDbError):
            connect(tmp_path / "p.db")

    def test_not_a_database(self, tmp_path):
        garbage = tmp_path / "p.db"
        garbage.write_bytes(b"not a sqlite file, not even close......")
        with pytest.raises(ProfileDbError, match="not a sqlite database"):
            connect(garbage)


class TestIngest:
    def test_single_capture(self, tmp_path, names):
        conn = connect(tmp_path / "p.db")
        result = ingest_capture(
            conn, write_run(tmp_path / "a.mpf"), names
        )
        assert result.status == "added"
        assert result.label == "cap-0000"
        assert result.functions > 0 and result.records > 0
        assert run_count(conn) == 1
        assert function_row_count(conn) == result.functions
        conn.close()

    def test_reingest_is_a_noop(self, tmp_path, names):
        conn = connect(tmp_path / "p.db")
        path = write_run(tmp_path / "a.mpf")
        first = ingest_capture(conn, path, names)
        rows_before = function_row_count(conn)
        again = ingest_capture(conn, path, names)
        assert again.status == "duplicate"
        assert again.fingerprint == first.fingerprint
        assert run_count(conn) == 1
        assert function_row_count(conn) == rows_before
        conn.close()

    def test_same_bytes_under_two_paths_is_one_run(self, tmp_path, names):
        conn = connect(tmp_path / "p.db")
        a = write_run(tmp_path / "a.mpf")
        b = tmp_path / "copy.mpf"
        b.write_bytes(a.read_bytes())
        assert ingest_capture(conn, a, names).status == "added"
        assert ingest_capture(conn, b, names).status == "duplicate"
        assert run_count(conn) == 1
        conn.close()

    def test_reingest_decodes_nothing(self, tmp_path, names, monkeypatch):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        a = write_run(corpus / "a.mpf")
        (corpus / "copy.mpf").write_bytes(a.read_bytes())
        write_run(corpus / "b.mpf", index=1)
        conn = connect(tmp_path / "p.db")
        first = ingest_paths(conn, [corpus], names)
        # One file's bytes under two paths in one pass: the insert-time
        # fingerprint check keeps them one run.
        assert [r.status for r in first] == ["added", "added", "duplicate"]
        calls = []
        decode = fleet_ingest.iter_capture_columns

        def counting(*args, **kwargs):
            calls.append(args)
            return decode(*args, **kwargs)

        monkeypatch.setattr(fleet_ingest, "iter_capture_columns", counting)
        again = ingest_paths(conn, [corpus], names)
        assert [r.status for r in again] == ["duplicate"] * 3
        assert calls == []
        assert run_count(conn) == 2
        conn.close()

    def test_garbage_fails_cleanly(self, tmp_path, names):
        garbage = tmp_path / "bad.mpf"
        garbage.write_bytes(b"\x00" * 64)
        conn = connect(tmp_path / "p.db")
        result = ingest_capture(conn, garbage, names)
        assert result.status == "failed"
        assert result.error
        assert run_count(conn) == 0
        conn.close()

    def test_missing_file_fails_cleanly(self, tmp_path, names):
        conn = connect(tmp_path / "p.db")
        result = ingest_capture(conn, tmp_path / "absent.mpf", names)
        assert result.status == "failed" and not result.ok
        conn.close()

    def test_workload_override(self, tmp_path, names):
        conn = connect(tmp_path / "p.db")
        result = ingest_capture(
            conn, write_run(tmp_path / "a.mpf"), names, workload="special"
        )
        assert result.workload == "special"
        assert list_runs(conn)[0].workload == "special"
        conn.close()

    def test_workload_tag_parsing(self):
        assert workload_tag("cli: network") == "network"
        assert workload_tag("") == "<unlabeled>"
        assert workload_tag("hand-rolled") == "hand-rolled"

    def test_ingest_paths_empty_raises(self, tmp_path, names):
        (tmp_path / "empty").mkdir()
        conn = connect(tmp_path / "p.db")
        with pytest.raises(ProfileDbError, match="no capture files"):
            ingest_paths(conn, [tmp_path / "empty"], names)
        conn.close()

    def test_discover_dedups_and_sorts(self, tmp_path):
        a = write_run(tmp_path / "b.mpf", index=1)
        b = write_run(tmp_path / "a.mpf", index=2)
        found = discover_captures([tmp_path, a, b])
        assert found == sorted({str(a), str(b)})


class TestDeterminism:
    """Same corpus -> byte-identical reports, whatever the ingest order."""

    def _render_all(self, conn) -> str:
        runs = render_runs_text(list_runs(conn))
        rows = render_query_text(query_functions(conn, sort="net"))
        report = diff_runs(conn, "before", "after")
        return "\n".join([
            runs, rows, render_diff_text(report), render_diff_json(report),
        ])

    def test_ingest_order_invariance(self, tmp_path, names):
        corpus = tmp_path / "corpus"
        build_regression_corpus(corpus, label="before", runs=3, spin_us=100)
        build_regression_corpus(corpus, label="after", runs=3, spin_us=300)
        captures = discover_captures([corpus])
        renders = []
        for order in (captures, list(reversed(captures))):
            db = tmp_path / f"order_{len(renders)}.db"
            conn = connect(db)
            for capture in order:
                assert ingest_capture(
                    conn, capture, names, workload="regress"
                ).ok
            renders.append(self._render_all(conn))
            conn.close()
        assert renders[0] == renders[1]


class TestQuery:
    @pytest.fixture
    def conn(self, tmp_path, names):
        conn = connect(tmp_path / "p.db")
        for index in range(3):
            ingest_capture(
                conn, write_run(tmp_path / f"c{index}.mpf", index=index), names
            )
        yield conn
        conn.close()

    def test_list_runs_ordered_by_fingerprint(self, conn):
        runs = list_runs(conn)
        assert len(runs) == 3
        assert [r.fingerprint for r in runs] == sorted(r.fingerprint for r in runs)

    def test_label_filter(self, conn):
        runs = list_runs(conn, label="cap-0001")
        assert len(runs) == 1 and runs[0].label == "cap-0001"

    def test_sort_orders(self, conn):
        by_net = query_functions(conn, sort="net")
        assert [r.net_us for r in by_net] == sorted(
            (r.net_us for r in by_net), reverse=True
        )
        by_name = query_functions(conn, sort="name")
        assert [r.name for r in by_name] == sorted(r.name for r in by_name)

    def test_glob_and_floor_and_limit(self, conn):
        spins = query_functions(conn, function="sp*")
        assert spins and all(r.name == "spin" for r in spins)
        floor = query_functions(conn, min_pct_net=101.0)
        assert floor == []
        assert len(query_functions(conn, limit=2)) == 2

    def test_unknown_sort_raises(self, conn):
        with pytest.raises(ProfileDbError, match="unknown sort"):
            query_functions(conn, sort="bogus")

    def test_resolve_by_prefix_label_workload(self, conn):
        run = list_runs(conn)[0]
        assert resolve_runs(conn, run.fingerprint[:8]) == [run]
        assert resolve_runs(conn, f"run:{run.fingerprint[:8]}") == [run]
        assert resolve_runs(conn, "label:cap-0002")[0].label == "cap-0002"
        by_workload = resolve_runs(conn, "workload:cap-0000")
        assert len(by_workload) == 1

    def test_resolve_unknown_raises(self, conn):
        with pytest.raises(ProfileDbError, match="no run matches"):
            resolve_runs(conn, "nonesuch")


class TestDiff:
    def _corpus_db(self, tmp_path, before_spin, after_spin, runs=3):
        corpus = tmp_path / "corpus"
        names = build_regression_corpus(
            corpus, label="before", runs=runs, spin_us=before_spin
        )
        build_regression_corpus(
            corpus, label="after", runs=runs, spin_us=after_spin
        )
        conn = connect(tmp_path / "p.db")
        # One workload ran both sides (the real before/after shape);
        # synthetic labels are not registry labels, so say so explicitly.
        ingest_paths(conn, [corpus], names, workload="regress")
        return conn

    def test_no_change_is_exit_0(self, tmp_path):
        conn = self._corpus_db(tmp_path, 100, 100)
        report = diff_runs(conn, "before", "after")
        assert report.exit_code == 0
        assert not report.regressions
        assert "no movement beyond noise" in render_diff_text(report)
        conn.close()

    def test_seeded_regression_is_exit_2(self, tmp_path):
        conn = self._corpus_db(tmp_path, 100, 300)
        report = diff_runs(conn, "before", "after")
        assert report.exit_code == 2
        slow = [v.name for v in report.regressions]
        assert slow == ["spin"]
        spin = report.regressions[0]
        assert spin.zscore is not None and spin.zscore >= 3.0
        assert "REGRESSION" in render_diff_text(report)
        conn.close()

    def test_improvement_is_exit_1(self, tmp_path):
        conn = self._corpus_db(tmp_path, 300, 100)
        report = diff_runs(conn, "before", "after")
        assert report.exit_code == 1
        assert [v.name for v in report.movements] == ["spin"]
        conn.close()

    def test_direction_matters(self, tmp_path):
        """The same corpus diffed the other way flips 2 <-> 1."""
        conn = self._corpus_db(tmp_path, 100, 300)
        assert diff_runs(conn, "before", "after").exit_code == 2
        assert diff_runs(conn, "after", "before").exit_code == 1
        conn.close()

    def test_singleton_fallback(self, tmp_path):
        conn = self._corpus_db(tmp_path, 100, 300, runs=1)
        report = diff_runs(conn, "before", "after")
        spin = report.regressions[0]
        assert spin.zscore is None  # no noise estimate on singletons
        assert spin.rel_change is not None
        assert report.exit_code == 2
        conn.close()

    def test_small_jitter_below_floor_is_quiet(self, tmp_path):
        # 100 vs 104 us x 4 calls: 16 us mean delta, under min_abs_us.
        conn = self._corpus_db(tmp_path, 100, 104)
        report = diff_runs(conn, "before", "after")
        assert report.exit_code == 0
        conn.close()

    def test_overlapping_selectors_refused(self, tmp_path):
        conn = self._corpus_db(tmp_path, 100, 100)
        fingerprint = list_runs(conn)[0].fingerprint
        with pytest.raises(ProfileDbError, match="disjoint"):
            diff_runs(conn, fingerprint[:12], fingerprint[:12])
        conn.close()

    def test_appeared_hot_function_is_exit_2(self, tmp_path, names):
        from repro.profiler.ram import RawRecord

        conn = connect(tmp_path / "p.db")
        base = regression_records(0, spin_us=100)
        # Candidate timeline never calls spin at all (its own clock, so
        # spin's time is absent rather than absorbed into main's net).
        main, work = names.by_name("main"), names.by_name("work")
        stripped, t = [RawRecord(tag=main.entry_value, time=0)], 0
        for _ in range(4):
            t += 10
            stripped.append(RawRecord(tag=work.entry_value, time=t))
            t += 100
            stripped.append(RawRecord(tag=work.exit_value, time=t))
        stripped.append(RawRecord(tag=main.exit_value, time=t + 10))
        write_capture_file(tmp_path / "with.mpf", columns_of(base), label="with")
        write_capture_file(tmp_path / "without.mpf", columns_of(stripped), label="without")
        ingest_paths(conn, [tmp_path], names, workload="regress")
        report = diff_runs(conn, "without", "with")
        appeared = {v.name: v for v in report.verdicts if v.status == "appeared"}
        assert "spin" in appeared and appeared["spin"].confirmed
        assert report.exit_code == 2
        reverse = diff_runs(conn, "with", "without")
        vanished = {v.name for v in reverse.verdicts if v.status == "vanished"}
        assert "spin" in vanished
        assert reverse.exit_code == 1
        conn.close()

    def test_workload_mismatch_flagged(self, tmp_path, names):
        conn = connect(tmp_path / "p.db")
        write_capture_file(
            tmp_path / "a.mpf", columns_of(regression_records(0, spin_us=100)), label="a"
        )
        write_capture_file(
            tmp_path / "b.mpf", columns_of(regression_records(1, spin_us=100)), label="b"
        )
        ingest_capture(conn, tmp_path / "a.mpf", names, workload="netw")
        ingest_capture(conn, tmp_path / "b.mpf", names, workload="fork")
        with pytest.warns(WorkloadMismatchWarning):
            report = diff_runs(conn, "netw", "fork")
        assert report.workload_mismatch
        assert "different workloads" in render_diff_text(report)
        assert json.loads(render_diff_json(report))["workload_mismatch"]
        conn.close()

    def test_json_report_is_strict_json(self, tmp_path):
        conn = self._corpus_db(tmp_path, 100, 300)
        report = diff_runs(conn, "before", "after")
        document = json.loads(render_diff_json(report))
        json.dumps(document, allow_nan=False)  # no bare Infinity anywhere
        assert document["exit_code"] == 2
        assert document["functions"][0]["name"] == "spin"
        assert document["functions"][0]["verdict"] == "regression"
        conn.close()

    def test_thresholds_are_knobs(self, tmp_path):
        conn = self._corpus_db(tmp_path, 100, 300)
        lax = DiffThresholds(singleton_rel=0.2, min_rel=0.05,
                             sigma=3.0, min_abs_us=10_000_000)
        report = diff_runs(conn, "before", "after", thresholds=lax)
        assert report.exit_code == 0  # absolute floor silences everything
        conn.close()


class TestDbLint:
    def _db_with_corpus(self, tmp_path, names):
        conn = connect(tmp_path / "p.db")
        for index in range(2):
            ingest_capture(
                conn,
                write_run(tmp_path / f"c{index}.mpf", index=index, label="same"),
                names,
            )
        return conn

    def test_clean_db_single_label_info_only(self, tmp_path, names):
        conn = connect(tmp_path / "p.db")
        ingest_capture(conn, write_run(tmp_path / "a.mpf"), names)
        conn.close()
        report = lint_profile_db(tmp_path / "p.db")
        assert report.codes() == ("P705",)
        assert report.ok

    def test_empty_file_is_p701(self, tmp_path):
        (tmp_path / "p.db").touch()
        report = lint_profile_db(tmp_path / "p.db")
        assert "P701" in report.codes() and not report.ok

    def test_version_drift_is_p701(self, tmp_path, names):
        conn = self._db_with_corpus(tmp_path, names)
        with conn:
            conn.execute("UPDATE schema_version SET version = 99")
        conn.close()
        report = lint_profile_db(tmp_path / "p.db")
        assert report.codes() == ("P701",)

    def test_orphan_function_rows_are_p702(self, tmp_path, names):
        conn = self._db_with_corpus(tmp_path, names)
        with conn:
            conn.execute("PRAGMA foreign_keys = OFF")
            conn.execute(
                "INSERT INTO functions VALUES (999, 'ghost', 1, 1, 1, 1, 1,"
                " 0.0, 0.0)"
            )
        conn.close()
        report = lint_profile_db(tmp_path / "p.db")
        assert "P702" in report.codes() and not report.ok

    def test_label_across_workloads_is_p703(self, tmp_path, names):
        conn = connect(tmp_path / "p.db")
        ingest_capture(
            conn, write_run(tmp_path / "a.mpf", index=0, label="same"),
            names, workload="one",
        )
        ingest_capture(
            conn, write_run(tmp_path / "b.mpf", index=1, label="same"),
            names, workload="two",
        )
        conn.close()
        report = lint_profile_db(tmp_path / "p.db")
        assert "P703" in report.codes()
        assert report.ok  # warning severity

    def test_run_without_functions_is_p704(self, tmp_path, names):
        conn = self._db_with_corpus(tmp_path, names)
        with conn:
            run_id = conn.execute("SELECT MIN(id) FROM runs").fetchone()[0]
            conn.execute("DELETE FROM functions WHERE run_id = ?", (run_id,))
        conn.close()
        report = lint_profile_db(tmp_path / "p.db")
        assert "P704" in report.codes()

    def test_singleton_labels_are_p705(self, tmp_path, names):
        conn = connect(tmp_path / "p.db")
        ingest_capture(
            conn, write_run(tmp_path / "a.mpf", index=0, label="lonely"), names
        )
        conn.close()
        report = lint_profile_db(tmp_path / "p.db")
        assert report.codes() == ("P705",)

    def test_pooled_labels_are_quiet(self, tmp_path, names):
        conn = self._db_with_corpus(tmp_path, names)  # two runs, one label
        conn.close()
        report = lint_profile_db(tmp_path / "p.db")
        assert len(report) == 0
