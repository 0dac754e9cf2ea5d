"""DB — profile corpus ingest throughput and diff latency.

The ``repro db`` pipeline end to end: a synthetic corpus of repeated
baseline runs plus an equal pool of seeded-slowdown candidates is
ingested into a fresh sqlite database, re-ingested (the idempotence
contract: zero rows added), and then diffed label-against-label.
Reported: ingest captures/sec, the no-op re-ingest cost, and the diff
wall time.  Asserted before any timing claim:

* re-ingest adds nothing — every capture is recognised by content
  fingerprint;
* the seeded regression is confirmed at exit code 2;
* the diff JSON document is byte-identical when the corpus is ingested
  in reverse order into a second database (ingest-order determinism).

Environment knobs::

    REPRO_DB_RUNS       runs per side (default 25; >= 3 for a noise
                        estimate)
    REPRO_DB_CALLS      work/spin call pairs per run (default 200)
    REPRO_DB_BENCH_OUT  where to write BENCH_db.json
                        (default: BENCH_db.json in the cwd)
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from paperbench import once

from repro.atomicio import write_text_atomic
from repro.db.diff import diff_runs
from repro.db.ingest import ingest_paths
from repro.db.render import render_diff_json
from repro.db.schema import connect
from repro.instrument.namefile import NameTable
from repro.instrument.tags import TagEntry
from repro.profiler.ram import RawRecord
from repro.profiler.upload import clear_meta_cache, write_capture_file

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from stream_helpers import columns_of  # noqa: E402 - records -> columns

MASK = (1 << 24) - 1

BASELINE_SPIN_US = 100
CANDIDATE_SPIN_US = 300


def db_runs() -> int:
    return int(os.environ.get("REPRO_DB_RUNS", 25))


def db_calls() -> int:
    return int(os.environ.get("REPRO_DB_CALLS", 200))


def _db_names() -> NameTable:
    table = NameTable()
    table.add(TagEntry(name="main", value=500))
    table.add(TagEntry(name="work", value=502))
    table.add(TagEntry(name="spin", value=506))
    table.add(TagEntry(name="swtch", value=504, context_switch=True))
    return table


DB_NAMES = _db_names()


def _run_records(run: int, spin_us: int, calls: int) -> list[RawRecord]:
    """Deterministic records for one run (no RNG).

    ``main`` wraps *calls* work/spin pairs; ``work`` holds ~100 us while
    ``spin`` takes *spin_us* — the seeded-slowdown knob.  Small per-run
    jitter gives each label pool a real noise estimate.
    """
    main = DB_NAMES.by_name("main")
    work = DB_NAMES.by_name("work")
    spin = DB_NAMES.by_name("spin")
    jitter = run % 3
    # Distinct start offset per run: every capture is byte-distinct (a
    # unique fingerprint) while all durations — and thus the summaries
    # being pooled — shift only by the jitter term.
    t = run * 17
    records = [RawRecord(tag=main.entry_value, time=t & MASK)]
    for _ in range(calls):
        t += 10
        records.append(RawRecord(tag=work.entry_value, time=t & MASK))
        t += 100 + jitter
        records.append(RawRecord(tag=work.exit_value, time=t & MASK))
        t += 10
        records.append(RawRecord(tag=spin.entry_value, time=t & MASK))
        t += spin_us + jitter
        records.append(RawRecord(tag=spin.exit_value, time=t & MASK))
    t += 10
    records.append(RawRecord(tag=main.exit_value, time=t & MASK))
    return records


def build_corpus(root: Path, runs: int, calls: int) -> list[Path]:
    root.mkdir(parents=True, exist_ok=True)
    for label, spin_us in (
        ("baseline", BASELINE_SPIN_US),
        ("candidate", CANDIDATE_SPIN_US),
    ):
        for run in range(runs):
            write_capture_file(
                root / f"{label}_{run:03d}.mpf",
                columns_of(_run_records(run, spin_us, calls)),
                label=label,
            )
    return sorted(root.glob("*.mpf"))


def _ingest(db_path: Path, captures: list[Path]) -> tuple[float, int, int]:
    conn = connect(db_path)
    try:
        start = time.perf_counter()
        results = ingest_paths(conn, captures, DB_NAMES, workload="bench")
        elapsed = time.perf_counter() - start
    finally:
        conn.close()
    added = sum(1 for r in results if r.status in ("added", "salvaged"))
    skipped = sum(1 for r in results if r.status == "duplicate")
    assert all(r.ok for r in results)
    return elapsed, added, skipped


def run_db_pipeline(root: Path, runs: int, calls: int) -> dict:
    captures = build_corpus(root / "corpus", runs, calls)
    db_path = root / "profiles.db"

    clear_meta_cache()
    ingest_s, added, _ = _ingest(db_path, captures)
    assert added == len(captures), f"first ingest added {added}"
    reingest_s, re_added, re_skipped = _ingest(db_path, captures)
    assert re_added == 0 and re_skipped == len(captures), (
        f"re-ingest added {re_added}, skipped {re_skipped} "
        f"(idempotence broken)"
    )

    conn = connect(db_path)
    try:
        start = time.perf_counter()
        report = diff_runs(conn, "label:baseline", "label:candidate")
        diff_s = time.perf_counter() - start
        assert report.exit_code == 2, (
            f"seeded regression missed: exit {report.exit_code}"
        )
        diff_doc = render_diff_json(report)
    finally:
        conn.close()

    # Ingest-order determinism: the reversed corpus must produce the
    # exact same diff document from a second database.
    reversed_db = root / "reversed.db"
    conn = connect(reversed_db)
    try:
        for capture in reversed(captures):
            ingest_paths(conn, [capture], DB_NAMES, workload="bench")
        reversed_doc = render_diff_json(
            diff_runs(conn, "label:baseline", "label:candidate")
        )
    finally:
        conn.close()
    assert reversed_doc == diff_doc, "diff depends on ingest order"

    return {
        "captures": len(captures),
        "calls_per_run": calls,
        "ingest_s": ingest_s,
        "captures_per_sec": len(captures) / ingest_s,
        "reingest_s": reingest_s,
        "diff_s": diff_s,
        "diff_exit_code": report.exit_code,
        "idempotent": True,
        "order_independent": True,
    }


def test_db_pipeline(benchmark, comparison, tmp_path):
    runs = db_runs()
    calls = db_calls()
    result = once(benchmark, run_db_pipeline, tmp_path, runs, calls)

    comparison.row("corpus size", f"{2 * runs} captures", result["captures"])
    comparison.row("calls per run", str(calls), result["calls_per_run"])
    comparison.row(
        "ingest",
        "--",
        f"{result['ingest_s']:.2f} s "
        f"({result['captures_per_sec']:.0f} cap/s)",
    )
    comparison.row("re-ingest (no-op)", "--", f"{result['reingest_s']:.3f} s")
    comparison.row("label-vs-label diff", "--", f"{result['diff_s']:.3f} s")
    comparison.row("seeded regression", "exit 2", result["diff_exit_code"])
    comparison.row("re-ingest adds", "0 rows", result["idempotent"])
    comparison.row(
        "diff vs ingest order", "byte-identical", result["order_independent"]
    )

    out_path = os.environ.get("REPRO_DB_BENCH_OUT", "BENCH_db.json")
    document = {
        "benchmark": "db_pipeline",
        "baseline_spin_us": BASELINE_SPIN_US,
        "candidate_spin_us": CANDIDATE_SPIN_US,
        **result,
    }
    write_text_atomic(out_path, json.dumps(document, indent=1))
