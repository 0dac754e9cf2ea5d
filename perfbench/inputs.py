"""Seeded input generation and input-shape stamps.

Run as a child process so the benchmark's own memory and timings never
include input generation::

    python3 perfbench/inputs.py summary-long --seed 7 --out DIR
        [--tiny] [--reference] [--trace FILE]

It writes the workload's input files into DIR and prints one JSON line:
``gen_s`` (seconds spent generating and encoding, interpreter start-up
excluded), the machine-speed calibrations taken just before and after
(``speed.py``),
the sha256 of every file written, and with ``--reference``
the input-shape stamp plus the reference summary the output checks
compare against (a streaming fold of the same bytes).  ``--trace FILE``
records the layer spans of the whole child as a Chrome trace.

The seed decides the input; the program under test only ever sees the
files.  ``forkexec`` inputs (``summary-long``, ``gprof-long``) are a
fork/exec storm captured on an enlarged board that the storm always
overflows, so every seed yields exactly ``FORKEXEC_DEPTH`` events while
the seed moves the storm's parameters and with them the scheduling
block shape.  ``scale`` (``live-scale``) is the SCALE stream: a
context switch every 8 records, with the seed setting the block phase
(which functions a block calls, and where the 24-bit counter wraps).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

#: The enlarged board of the long captures: 8 paper boards, so that a
#: run holds enough operations for a steady median.
FORKEXEC_DEPTH = 8 * 16384
#: Enough storm rounds to overflow that board for every seed (at the
#: parameter extremes they fire 164k-171k triggers).
FORKEXEC_ITERATIONS = 22
SCALE_EVENTS = 1_000_000
#: ``--tiny`` sizes, for the benchmark's self-test.
TINY = {"forkexec_depth": 16384, "forkexec_iterations": 4, "scale_events": 65536}

#: Input kind of each in-process workload.
KINDS = {"summary-long": "forkexec", "gprof-long": "forkexec", "live-scale": "scale"}
#: Summary-row limit of each workload's report (``None``: every row).
REPORT_LIMIT = {"summary-long": 12, "gprof-long": 12, "live-scale": None}


def forkexec_params(seed: int) -> Dict[str, int]:
    """The fork/exec storm's parameters for *seed*."""
    rng = random.Random(seed)
    return {"touch_pages": rng.randint(8, 16), "text_pages": rng.randint(60, 80)}


def generate_forkexec(seed: int, out: Path, tiny: bool) -> Dict[str, Path]:
    from repro.kernel.vm.vm_glue import ExecImage
    from repro.system import build_case_study
    from repro.workloads.forkexec import fork_exec_storm

    params = forkexec_params(seed)
    depth = TINY["forkexec_depth"] if tiny else FORKEXEC_DEPTH
    rounds = TINY["forkexec_iterations"] if tiny else FORKEXEC_ITERATIONS
    system = build_case_study(board_depth=depth)
    image = ExecImage(name="sh", text_pages=params["text_pages"])
    capture = system.profile(
        lambda: fork_exec_storm(
            system.kernel, iterations=rounds, image=image, touch_pages=params["touch_pages"]
        ),
        label=f"fork/exec storm, seed {seed}",
    )
    if not capture.overflowed:
        raise RuntimeError(f"seed {seed}: the storm did not fill the {depth}-event board")
    files = {"capture": out / "F.mpf", "names": out / "F.tags"}
    capture.save(files["capture"])
    system.names.write(files["names"])
    return files


def scale_names():
    """Eight rotating kernel functions plus the context-switch marker."""
    from repro.instrument.namefile import NameTable
    from repro.instrument.tags import TagEntry

    table = NameTable()
    for i in range(8):
        table.add(TagEntry(name=f"kfunc{i}", value=500 + 2 * i))
    table.add(TagEntry(name="swtch", value=600, context_switch=True))
    return table


def scale_records(seed: int, total: int):
    """The SCALE stream: ``swtch`` exit, three call pairs, ``swtch`` entry.

    The seed sets the block phase: the function rotation's starting
    block and the counter's starting value.
    """
    from repro.profiler.ram import RawRecord

    rng = random.Random(seed)
    names = scale_names()
    entries = [names.by_name(f"kfunc{i}") for i in range(8)]
    swtch = names.by_name("swtch")
    mask = (1 << 24) - 1
    block = rng.randrange(8)
    t = rng.randrange(1 << 24)
    records = []
    while len(records) < total:
        records.append(RawRecord(tag=swtch.exit_value, time=t & mask))
        t += 7
        for k in range(3):
            fn = entries[(block + k) % 8]
            records.append(RawRecord(tag=fn.entry_value, time=t & mask))
            t += 11
            records.append(RawRecord(tag=fn.exit_value, time=t & mask))
            t += 5
        records.append(RawRecord(tag=swtch.entry_value, time=t & mask))
        t += 23
        block += 1
    return names, records[:total]


def generate_scale(seed: int, out: Path, tiny: bool) -> Dict[str, Path]:
    """Encode the stream once, in the open-ended MPF2 wire form."""
    from repro.profiler.upload import CaptureStreamWriter

    names, records = scale_records(seed, TINY["scale_events"] if tiny else SCALE_EVENTS)
    files = {"capture": out / "scale.mpf", "names": out / "scale.tags"}
    with open(files["capture"], "wb") as stream:
        with CaptureStreamWriter(stream, label=f"SCALE, seed {seed}") as writer:
            writer.write_records(records)
    names.write(files["names"])
    return files


GENERATORS = {"forkexec": generate_forkexec, "scale": generate_scale}


def fold(capture: Path, names, limit: Optional[int] = None) -> Dict[str, Any]:
    """Fold *capture* once: its input-shape stamp and reference summary.

    The reference is the streaming fold's summary (what
    ``summarize_columns`` runs), which every report of the same bytes
    must agree with.  In the stamp, scheduling blocks are the runs
    between consecutive context-switch exits and a wrap is a counter
    snapshot lower than the one before it; segment-dependent
    optimisations report their share of input from these numbers.
    """
    from repro.analysis.columnar import CODE_EXIT, build_tag_map
    from repro.analysis.summary import SummaryAccumulator
    from repro.profiler.upload import iter_capture_columns

    switch_exits = {
        tag
        for tag, (_, code, is_cs) in build_tag_map(names).items()
        if is_cs and code == CODE_EXIT
    }
    accumulator = SummaryAccumulator(names)
    index = 0
    previous = None
    wraps = 0
    last_switch = None
    blocks = []
    for columns in iter_capture_columns(capture):
        accumulator.feed_columns(columns)
        for tag, raw in zip(columns.tags, columns.times):
            if previous is not None and raw < previous:
                wraps += 1
            previous = raw
            if tag in switch_exits:
                if last_switch is not None:
                    blocks.append(index - last_switch)
                last_switch = index
            index += 1
    summary = accumulator.summary()
    deciles = statistics.quantiles(blocks, n=10, method="inclusive") if len(blocks) > 1 else [0.0] * 9
    stamp = {
        "events": accumulator.event_count,
        "bytes": capture.stat().st_size,
        "context_switches": accumulator.context_switches,
        "events_per_block_median": statistics.median(blocks) if blocks else 0,
        "events_per_block_p10": deciles[0],
        "events_per_block_p90": deciles[8],
        "counter_wraps": wraps,
        "anomalies": len(accumulator.anomalies),
        "unattributed_frac": accumulator.unattributed_us / summary.wall_us if summary.wall_us else 0.0,
    }
    return {
        "shape": stamp,
        "text": summary.format(limit=limit),
        "functions": {
            name: [s.calls, s.elapsed_us, s.net_us] for name, s in summary.functions.items()
        },
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(KINDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--trace", type=Path, default=None)
    args = parser.parse_args(argv)

    import layers
    import speed
    from repro.instrument.namefile import NameTable
    from repro.telemetry.core import Telemetry
    from repro.telemetry.export import telemetry_to_chrome_trace

    layers.load_modules()
    tel = Telemetry("perfbench-setup")
    instrumentation = layers.Instrumentation(tel.enable()) if args.trace else None
    try:
        before = speed.calibrate()
        started = time.perf_counter()
        files = GENERATORS[KINDS[args.workload]](args.seed, args.out, args.tiny)
        result: Dict[str, Any] = {
            "gen_s": time.perf_counter() - started,
            "calibration_s": [before, speed.calibrate()],
        }
        result["sha256"] = {key: sha256(path) for key, path in files.items()}
        result["files"] = {key: str(path) for key, path in files.items()}
        if args.reference:
            names = NameTable.read(files["names"])
            result["reference"] = fold(files["capture"], names, REPORT_LIMIT[args.workload])
    finally:
        if instrumentation is not None:
            instrumentation.remove()
    if args.trace:
        layers.write_trace(args.trace, telemetry_to_chrome_trace(tel), tel)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
