"""FLEET — parallel corpus ingestion against the sequential reference.

The scenario ROADMAP item 1 names: a 200-capture corpus (synthesized
MPF2 files, deterministic content) ingested by ``repro fleet``'s worker
pool at 1/2/4/8 workers.  Reported per worker count: wall time and
captures/sec.  Asserted:

* the merged fleet summary is byte-identical at every worker count
  (the determinism contract — checked before any timing claim);
* the 4-worker speedup over 1 worker clears a hard floor.

The 3x-at-4-workers target from the issue assumes 4 real cores.  CI
runners routinely have fewer, so the *default* hard floor is CPU-aware —
``min(3.0, 0.75 * min(4, cpu_count))`` — while missing the 3x target
itself warns.  Like the decode bench, the floor is an env knob:

Environment knobs::

    REPRO_FLEET_CAPTURES      corpus size (default 200)
    REPRO_FLEET_EVENTS        events per capture (default 2000)
    REPRO_FLEET_MIN_SPEEDUP   asserted 4-worker speedup floor
                              (default: CPU-aware, see above)
    REPRO_FLEET_BENCH_OUT     where to write BENCH_fleet.json
                              (default: BENCH_fleet.json in the cwd)
"""

from __future__ import annotations

import json
import os
import sys
import time
import warnings
from pathlib import Path

from paperbench import once

from repro.atomicio import write_text_atomic
from repro.fleet.ingest import format_fleet_summary, ingest_fleet, plan_fleet
from repro.instrument.namefile import NameTable
from repro.instrument.tags import TagEntry
from repro.profiler.ram import RawRecord
from repro.profiler.upload import clear_meta_cache, write_capture_file

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from stream_helpers import columns_of  # noqa: E402 - records -> columns

MASK = (1 << 24) - 1

FLEET_TARGET_SPEEDUP = 3.0
WORKER_COUNTS = (1, 2, 4, 8)


def fleet_captures() -> int:
    return int(os.environ.get("REPRO_FLEET_CAPTURES", 200))


def fleet_events() -> int:
    return int(os.environ.get("REPRO_FLEET_EVENTS", 2000))


def fleet_min_speedup() -> float:
    configured = os.environ.get("REPRO_FLEET_MIN_SPEEDUP")
    if configured is not None:
        return float(configured)
    cores = os.cpu_count() or 1
    return min(FLEET_TARGET_SPEEDUP, 0.75 * min(4, cores))


def _fleet_names() -> NameTable:
    table = NameTable()
    for i in range(6):
        table.add(TagEntry(name=f"kfunc{i}", value=500 + 2 * i))
    table.add(TagEntry(name="swtch", value=600, context_switch=True))
    return table


FLEET_NAMES = _fleet_names()


def _capture_records(index: int, events: int) -> list[RawRecord]:
    """Deterministic records for corpus capture *index* (no RNG)."""
    entries = [FLEET_NAMES.by_name(f"kfunc{i}") for i in range(6)]
    swtch = FLEET_NAMES.by_name("swtch")
    t = (index * 6151) & MASK
    records: list[RawRecord] = []
    emitted = 0
    block = index
    while emitted < events:
        records.append(RawRecord(tag=swtch.exit_value, time=t & MASK))
        emitted += 1
        t += 7 + (index % 4)
        for k in range(2):
            if emitted >= events:
                break
            fn = entries[(block + k) % 6]
            records.append(RawRecord(tag=fn.entry_value, time=t & MASK))
            emitted += 1
            t += 11
            if emitted >= events:
                break
            records.append(RawRecord(tag=fn.exit_value, time=t & MASK))
            emitted += 1
            t += 5
        if emitted < events:
            records.append(RawRecord(tag=swtch.entry_value, time=t & MASK))
            emitted += 1
            t += 23
        block += 1
    return records


def build_corpus(root: Path, captures: int, events: int) -> None:
    root.mkdir(parents=True, exist_ok=True)
    for index in range(captures):
        write_capture_file(
            root / f"cap_{index:04d}.mpf",
            columns_of(_capture_records(index, events)),
            label=f"bench-{index:04d}",
        )


def run_fleet_scaling(root: Path, captures: int, events: int) -> dict:
    build_corpus(root, captures, events)
    plan = plan_fleet(root)
    assert len(plan) == captures
    runs: dict[int, dict] = {}
    texts: dict[int, str] = {}
    for jobs in WORKER_COUNTS:
        clear_meta_cache()  # every worker count pays the same probe cost
        start = time.perf_counter()
        result = ingest_fleet(plan, FLEET_NAMES, jobs=jobs)
        elapsed = time.perf_counter() - start
        assert result.failed == 0
        texts[jobs] = format_fleet_summary(result)
        runs[jobs] = {
            "jobs": jobs,
            "wall_s": elapsed,
            "captures_per_sec": captures / elapsed,
        }
    # Determinism before any timing claim: every worker count produced
    # the exact same merged report bytes.
    reference = texts[1]
    for jobs, text in texts.items():
        assert text == reference, f"jobs={jobs} merged summary diverged"
    return {
        "captures": captures,
        "events_per_capture": events,
        "total_events": captures * events,
        "runs": [runs[jobs] for jobs in WORKER_COUNTS],
        "speedup_4x": runs[1]["wall_s"] / runs[4]["wall_s"],
        "byte_identical": True,
    }


def test_fleet_ingest_scaling(benchmark, comparison, tmp_path):
    captures = fleet_captures()
    events = fleet_events()
    result = once(
        benchmark, run_fleet_scaling, tmp_path / "corpus", captures, events
    )
    floor = fleet_min_speedup()
    speedup = result["speedup_4x"]

    comparison.row("corpus size", str(captures), result["captures"])
    comparison.row(
        "events per capture", str(events), result["events_per_capture"]
    )
    for run in result["runs"]:
        comparison.row(
            f"ingest @ {run['jobs']} worker(s)",
            "--",
            f"{run['wall_s']:.2f} s ({run['captures_per_sec']:.0f} cap/s)",
        )
    comparison.row(
        "4-worker speedup",
        f">= {FLEET_TARGET_SPEEDUP:.0f}x (floor {floor:.2f}x)",
        f"{speedup:.2f}x",
    )
    comparison.row("merged summary", "byte-identical", result["byte_identical"])

    out_path = os.environ.get("REPRO_FLEET_BENCH_OUT", "BENCH_fleet.json")
    document = {
        "benchmark": "fleet_ingest_scaling",
        "cpu_count": os.cpu_count(),
        "target_speedup": FLEET_TARGET_SPEEDUP,
        "floor_speedup": floor,
        **result,
    }
    write_text_atomic(out_path, json.dumps(document, indent=1))

    if speedup < FLEET_TARGET_SPEEDUP:
        warnings.warn(
            f"fleet ingest only {speedup:.2f}x at 4 workers, below the "
            f"{FLEET_TARGET_SPEEDUP:.0f}x target (hard floor {floor:.2f}x, "
            f"cpu_count={os.cpu_count()})",
            stacklevel=1,
        )
    assert speedup >= floor, (
        f"fleet ingest {speedup:.2f}x at 4 workers, below the {floor:.2f}x "
        f"hard floor (REPRO_FLEET_MIN_SPEEDUP)"
    )
