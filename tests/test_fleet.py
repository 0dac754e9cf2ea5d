"""Fleet ingestion: the corpus walker, header-probe cache, determinism.

The load-bearing property is byte-identity: the merged fleet summary
must not depend on worker count or completion order.  The suite checks
it three ways — pool runs at {1, 2, 4, 7} workers against the inline
sequential reference, an explicitly shuffled merge fold, and corpora
salted with the frozen ``.mpf.corrupt`` goldens under salvage.
"""

from __future__ import annotations

import functools
import random
import shutil
from pathlib import Path

import pytest

from repro.fleet.ingest import (
    FLEET_COUNTERS,
    FLEET_HISTOGRAMS,
    FleetError,
    format_fleet_summary,
    ingest_fleet,
    merge_fleet,
    new_summary,
    plan_fleet,
    read_corpus,
)
from repro.lint.fleet_lint import lint_fleet_plan, lint_fleet_result
from repro.profiler.upload import (
    cached_capture_meta,
    clear_meta_cache,
    write_capture_file,
)
from repro.telemetry import TELEMETRY

from stream_helpers import (
    build_fleet_corpus,
    columns_of,
    fleet_names,
    synth_capture_records,
)

GOLDEN = Path(__file__).parent / "golden"
CORRUPT_GOLDENS = sorted(GOLDEN.glob("*.mpf.corrupt"))


# -- the header-probe cache ---------------------------------------------------


class TestMetaCache:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        clear_meta_cache()
        yield
        clear_meta_cache()

    def test_hit_returns_cached_object(self, tmp_path):
        path = tmp_path / "one.mpf"
        write_capture_file(path, columns_of(synth_capture_records(0, 16)), label="one")
        first = cached_capture_meta(path)
        second = cached_capture_meta(path)
        assert second is first  # identity: no re-read happened

    def test_rewrite_invalidates(self, tmp_path):
        path = tmp_path / "one.mpf"
        write_capture_file(path, columns_of(synth_capture_records(0, 16)), label="before")
        before = cached_capture_meta(path)
        assert before.label == "before"
        write_capture_file(path, columns_of(synth_capture_records(1, 32)), label="after")
        after = cached_capture_meta(path)
        assert after.label == "after" and after is not before

    def test_damaged_header_not_cached(self, tmp_path):
        path = tmp_path / "bad.mpf"
        path.write_bytes(b"NOPE")
        with pytest.raises(ValueError):
            cached_capture_meta(path)
        write_capture_file(path, columns_of(synth_capture_records(0, 16)), label="fixed")
        assert cached_capture_meta(path).label == "fixed"

    def test_lru_eviction(self, tmp_path, monkeypatch):
        import repro.profiler.upload as upload

        monkeypatch.setattr(upload, "META_CACHE_SIZE", 2)
        paths = []
        for i in range(3):
            path = tmp_path / f"c{i}.mpf"
            write_capture_file(path, columns_of(synth_capture_records(i, 16)))
            paths.append(path)
            cached_capture_meta(path)
        # Only the two most recent survive the LRU sweep.
        assert len(upload._meta_cache) == 2
        evicted = cached_capture_meta(paths[0])
        assert evicted.count > 0  # re-probed fine after eviction


# -- planning -----------------------------------------------------------------


class TestPlan:
    def test_plan_is_path_sorted(self, tmp_path):
        names = build_fleet_corpus(tmp_path, captures=5)
        assert names is not None
        plan = plan_fleet(tmp_path)
        paths = [c.path for c in plan.captures]
        assert paths == sorted(paths)
        assert [c.index for c in plan.captures] == list(range(5))

    def test_unreadable_header_lands_in_plan(self, tmp_path):
        build_fleet_corpus(tmp_path, captures=1)
        (tmp_path / "junk.mpf").write_bytes(b"????")
        plan = plan_fleet(tmp_path)
        junk = [c for c in plan.captures if "junk" in c.path]
        assert junk and junk[0].meta is None and junk[0].probe_error

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(FleetError):
            plan_fleet(tmp_path / "nowhere")


# -- determinism --------------------------------------------------------------


def _ingest_text(root, names, *, jobs, salvage=False):
    result = ingest_fleet(root, names, jobs=jobs, salvage=salvage)
    return format_fleet_summary(result), result


class TestDeterminism:
    def test_worker_counts_merge_byte_identical(self, tmp_path):
        names = build_fleet_corpus(tmp_path, captures=9, events=48)
        reference, ref_result = _ingest_text(tmp_path, names, jobs=1)
        assert ref_result.failed == 0
        for jobs in (2, 4, 7):
            text, result = _ingest_text(tmp_path, names, jobs=jobs)
            assert text == reference, f"jobs={jobs} diverged"
            assert result.manifest() == ref_result.manifest()

    def test_shuffled_fold_matches_plan_order(self, tmp_path):
        names = build_fleet_corpus(tmp_path, captures=6, events=40)
        plan = plan_fleet(tmp_path)
        rows = read_corpus(
            [capture.path for capture in plan.captures],
            functools.partial(new_summary, names),
        )
        shards = [
            (capture.index, row.sink)
            for row, capture in zip(rows, plan.captures)
        ]
        ordered = merge_fleet(names, list(shards)).summary().format()
        for seed in range(3):
            shuffled = list(shards)
            random.Random(seed).shuffle(shuffled)
            assert merge_fleet(names, shuffled).summary().format() == ordered

    @pytest.mark.skipif(
        not CORRUPT_GOLDENS, reason="corrupt goldens not checked in"
    )
    def test_salvage_corpus_deterministic(self, tmp_path):
        """Corrupt goldens ride along under --salvage, all worker counts."""
        build_fleet_corpus(tmp_path, captures=4, events=40)
        for corrupt in CORRUPT_GOLDENS:
            shutil.copy(corrupt, tmp_path / corrupt.name)
        # The goldens decode with the case-study table, not the synth one.
        from repro.instrument.namefile import NameTable

        names = NameTable.read(GOLDEN / "case_study.tags")
        reference, ref_result = _ingest_text(
            tmp_path, names, jobs=1, salvage=True
        )
        assert ref_result.salvaged >= 1
        for jobs in (2, 4):
            text, _ = _ingest_text(tmp_path, names, jobs=jobs, salvage=True)
            assert text == reference, f"salvage jobs={jobs} diverged"

    def test_salvage_off_fails_corrupt_captures(self, tmp_path):
        build_fleet_corpus(tmp_path, captures=2, events=40)
        (tmp_path / "broken.mpf").write_bytes(b"MPF2 garbage header")
        names = fleet_names()
        result = ingest_fleet(tmp_path, names, jobs=1, salvage=False)
        assert result.failed == 1 and result.ingested == 2
        failed = [r for r in result.reports if not r.ok]
        assert failed[0].error

    def test_empty_capture_merges_clean(self, tmp_path):
        names = build_fleet_corpus(tmp_path, captures=2, events=40)
        write_capture_file(tmp_path / "empty.mpf", columns_of([]), label="empty")
        result = ingest_fleet(tmp_path, names, jobs=1)
        assert result.failed == 0
        assert result.accumulator is not None


# -- fleet metrics through a real pool ----------------------------------------


class TestPoolMetrics:
    @pytest.fixture(autouse=True)
    def _telemetry(self):
        TELEMETRY.reset().enable()
        yield
        TELEMETRY.disable().reset()

    def test_pool_run_populates_arena(self, tmp_path):
        names = build_fleet_corpus(tmp_path, captures=6, events=48)
        result = ingest_fleet(tmp_path, names, jobs=2)
        assert result.failed == 0
        registry = TELEMETRY.registry
        assert registry.get("fleet.captures.ingested").value == 6
        assert registry.get("fleet.records.decoded").value == result.records
        assert registry.get("fleet.stage.decode_us").count == 6
        # The whole catalog registers, even instruments still at zero.
        for name in FLEET_COUNTERS:
            assert registry.get(name) is not None
        for name, _ in FLEET_HISTOGRAMS:
            assert registry.get(name) is not None
        assert registry.get("fleet.captures.failed").value == 0
        assert registry.get("fleet.stage.salvage_us").count == 0


# -- P5xx lint ----------------------------------------------------------------


class TestFleetLint:
    def test_empty_plan_warns_p501(self, tmp_path):
        report = lint_fleet_plan(plan_fleet(tmp_path))
        assert report.codes() == ("P501",)

    def test_mixed_geometry_warns_p503(self, tmp_path):
        build_fleet_corpus(tmp_path, captures=3, events=24)
        write_capture_file(
            tmp_path / "odd.mpf",
            columns_of(synth_capture_records(9, 24)),
            counter_width_bits=16,
            label="odd-board",
        )
        report = lint_fleet_plan(plan_fleet(tmp_path))
        p503 = [d for d in report if d.code == "P503"]
        assert len(p503) == 1 and "odd.mpf" in p503[0].source

    def test_duplicate_labels_warn_p504(self, tmp_path):
        for i in range(2):
            write_capture_file(
                tmp_path / f"dup{i}.mpf",
                columns_of(synth_capture_records(i, 24)),
                label="same-label",
            )
        report = lint_fleet_plan(plan_fleet(tmp_path))
        assert "P504" in report.codes()

    def test_result_lint_reports_failures_and_salvage(self, tmp_path):
        names = build_fleet_corpus(tmp_path, captures=1, events=24)
        (tmp_path / "broken.mpf").write_bytes(b"not a capture at all")
        result = ingest_fleet(tmp_path, names, jobs=1, salvage=False)
        report = lint_fleet_result(result)
        assert "P502" in report.codes()
        assert report.exit_code == 1

    @pytest.mark.skipif(
        not CORRUPT_GOLDENS, reason="corrupt goldens not checked in"
    )
    def test_salvaged_captures_note_p505(self, tmp_path):
        from repro.instrument.namefile import NameTable

        shutil.copy(CORRUPT_GOLDENS[0], tmp_path / CORRUPT_GOLDENS[0].name)
        names = NameTable.read(GOLDEN / "case_study.tags")
        result = ingest_fleet(tmp_path, names, jobs=1, salvage=True)
        report = lint_fleet_result(result)
        assert "P505" in report.codes()
        assert report.exit_code == 0  # info only
