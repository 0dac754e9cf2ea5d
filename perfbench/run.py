"""perfbench: the profiler's end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds nothing: the program is
imported from ``src/`` of that checkout.  Workloads (``BENCHMARK.json``
says why each exists):

* ``cli-paper``: fresh ``python -m repro`` subprocesses on paper-scale
  inputs, one after another;
* ``summary-long``: in-process ``repro analyze`` of a long seeded
  fork/exec capture, default summary report;
* ``gprof-long``: the same capture with ``--report gprof``;
* ``live-scale``: the 1M-record SCALE stream drained live over a socket
  pair into ``LiveAnalyzer``.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics: ``op_s`` (median operation wall time; a cycle mixing kinds of
operation averages the kinds' medians), ``events_per_s`` (events
summarised per second of such a typical cycle), ``peak_rss_mb`` (peak
resident memory of the process running the operations) and ``setup_s``
(median of several set-ups).  The times are scaled to a reference
machine speed measured next to them (``speed.py``); an untimed first
cycle warms caches before any operation is timed.  ``--trace 1`` spends half the time untraced and
half traced, then drives every layer the operations missed once more on
a small capture, and reports the per-layer metrics of ``layers.py``.

Every operation's output is checked; a failed check counts in
``failed`` and never stops the run.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full result (host and input-shape stamp, every sample, the layer
report) and the run's Chrome trace are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import speed

OUT_DIR = ".perfbench_out"
#: End-to-end metrics (``--trace 0``) and their units.
E2E_UNITS = {"op_s": "s", "events_per_s": "events/s", "peak_rss_mb": "MiB", "setup_s": "s"}


def host_stamp(root: Path) -> Dict[str, Any]:
    """Commit (when the checkout is a git work tree), a digest of the
    program's sources, and the machine and interpreter it ran on."""
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        sources.update(str(path.relative_to(root)).encode())
        sources.update(path.read_bytes())
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "commit": commit,
        "src_sha256": sources.hexdigest(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy,
    }


def loop(workload, seconds: float, tel) -> tuple:
    """Closed loop: whole cycles of operations until *seconds* pass.

    A first cycle lets caches fill and lazy set-up finish; it is checked
    but not timed.  Machine-speed calibrations bracket every timed cycle
    and give its samples their ``scaled_s``.  Returns the warm-up
    samples, the timed samples and the calibrations.
    """
    warmup = [workload.run(op, tel) for op in workload.cycle()]
    if tel is not None:
        tel.reset()
        workload.child_traces.clear()
    cycles: list = []
    calibrations: List[float] = []
    deadline = time.perf_counter() + seconds
    while not cycles or time.perf_counter() < deadline:
        calibrations.append(speed.calibrate())
        cycles.append([workload.run(op, tel) for op in workload.cycle()])
    calibrations.append(speed.calibrate())
    samples = []
    for cycle, before, after in zip(cycles, calibrations, calibrations[1:]):
        for sample in cycle:
            sample.scaled_s = speed.scaled(sample.wall_s, before, after)
            samples.append(sample)
    return warmup, samples, calibrations


def typical_cycle(samples: list) -> Dict[str, tuple]:
    """Each operation kind's median (speed-scaled) time and median events.

    A workload whose cycle mixes kinds of operation (``cli-paper``) is
    summarised per kind first: the median of a mix would sit on the
    edge between two kinds and jump between them from run to run.
    """
    kinds: Dict[str, list] = {}
    for sample in samples:
        kinds.setdefault(sample.kind, []).append(sample)
    return {
        kind: (
            statistics.median(s.scaled_s for s in group),
            statistics.median(s.events for s in group),
        )
        for kind, group in kinds.items()
    }


def op_seconds(samples: list) -> float:
    """``op_s``: the mean over operation kinds of each kind's median."""
    return statistics.fmean(wall for wall, _ in typical_cycle(samples).values())


def end_to_end(workload, samples: list, setups: List[tuple]) -> Dict[str, float]:
    """The end-to-end metrics; times are at the reference speed
    (``speed.py``)."""
    cycle = typical_cycle(samples).values()
    return {
        "op_s": op_seconds(samples),
        "events_per_s": sum(events for _, events in cycle) / sum(wall for wall, _ in cycle),
        "peak_rss_mb": workload.peak_rss_mb(samples),
        "setup_s": statistics.median(speed.scaled(*setup) for setup in setups),
    }


def shape_totals(stamp: Dict[str, Any]) -> Dict[str, float]:
    """The ``summary.*`` counts of a workload's input(s)."""
    shapes = list(stamp.values())
    events = sum(s["events"] for s in shapes)
    switches = sum(s["context_switches"] for s in shapes)
    unattributed = statistics.fmean(s["unattributed_frac"] for s in shapes)
    return {
        "summary.events": events,
        "summary.context_switches": switches,
        "summary.events_per_switch": events / switches,
        "summary.unattributed_frac": unattributed,
    }


def traced_run(workload, ctx, seconds: float):
    """Half the time untraced, half traced, then the probe; returns the
    samples, the per-layer report and the run's combined Chrome trace."""
    import layers
    from repro.telemetry.core import Telemetry
    from repro.telemetry.export import telemetry_to_chrome_trace
    from workloads import probe

    untraced_warmup, untraced, _ = loop(workload, seconds / 2, None)
    tel = Telemetry("perfbench").enable()
    with layers.Instrumentation(tel):
        traced_warmup, traced, _ = loop(workload, seconds / 2, tel)
    ops_doc = telemetry_to_chrome_trace(tel)
    tel.reset()
    with layers.Instrumentation(tel):
        probe_traces = probe(ctx, tel)
    probe_doc = telemetry_to_chrome_trace(tel)
    origin = tel.tracer.origin_ns
    for doc, children in ((ops_doc, workload.child_traces), (probe_doc, probe_traces)):
        for k, path in enumerate(children):
            child = json.loads(Path(path).read_text())
            shift_us = (child["otherData"]["origin_ns"] - origin) / 1_000
            layers.merge_events(doc, child, pid=2, tid=100 * (k + 1), shift_us=shift_us)

    phases = [("ops", ops_doc, len(traced)), ("setup", workload.setup_trace, 1), ("probe", probe_doc, 1)]
    totals = {
        phase: (layers.layer_totals(layers.complete_events(doc)), per)
        for phase, doc, per in phases
        if doc is not None
    }
    report: Dict[str, Any] = layers.span_metrics(totals)
    for metric, value in shape_totals(workload.stamp).items():
        report[metric] = {"value": value, "source": "input"}
    ops_totals = totals["ops"][0]
    traced_op_s = op_seconds(traced)
    untraced_op_s = op_seconds(untraced)
    coverage = ops_totals["covered_s"] / ops_totals["op_s"]
    for metric, value in (
        ("trace.op_s", traced_op_s),
        ("trace.untraced_op_s", untraced_op_s),
        ("trace.overhead_s", traced_op_s - untraced_op_s),
        ("trace.coverage", coverage),
        ("trace.unattributed", 1.0 - coverage),
    ):
        report[metric] = {"value": value, "source": "ops"}
    report["self_s_by_phase"] = {
        phase: phase_totals["self_s"] for phase, (phase_totals, _) in totals.items()
    }

    combined = ops_doc
    for pid, doc in ((3, workload.setup_trace), (4, probe_doc)):
        if doc is not None:
            shift_us = (doc["otherData"].get("origin_ns", origin) - origin) / 1_000
            layers.merge_events(combined, doc, pid=pid, shift_us=shift_us)
    return untraced_warmup + traced_warmup, untraced + traced, report, combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="the profiler's benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs (self-test)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file() or not (root / "tests" / "golden").is_dir():
        print(
            "perfbench: no program here; run from the root of a checkout "
            "(needs src/repro and tests/golden)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    import layers
    from workloads import SETUP_REPEATS, WORKLOADS, Context

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    out = root / OUT_DIR / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ctx = Context(root, out, args.seed, args.tiny)
    layers.load_modules()
    workload = WORKLOADS[args.workload](ctx)
    setups = workload.setup(1 if args.trace else SETUP_REPEATS, traced=bool(args.trace))

    units: Dict[str, str] = {}
    calibrations: List[float] = []
    if args.trace:
        warmup, samples, report, trace = traced_run(workload, ctx, args.seconds)
        (out / "trace.json").write_text(json.dumps(trace))
        for metric, (unit, _, moves) in layers.PER_LAYER.items():
            units[metric] = unit
            report[metric].update(unit=unit, moves=moves)
        metrics = {metric: report[metric]["value"] for metric in layers.PER_LAYER}
    else:
        warmup, samples, calibrations = loop(workload, args.seconds, None)
        metrics = end_to_end(workload, samples, setups)
        report = {}
        units = E2E_UNITS

    attempted = len(warmup) + len(samples)
    failed = sum(not s.ok for s in warmup + samples)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_stamp(root),
        "input": workload.stamp,
        "failed_frac": failed / attempted,
        "setups_s_calibration_before_after_s": setups,
        "calibrations_s": calibrations,
        "warmup_samples": [[s.kind, s.wall_s, s.events, s.ok] for s in warmup],
        "samples": [[s.kind, s.wall_s, s.scaled_s, s.events, s.ok] for s in samples],
        "metrics": metrics,
        "layers": report,
    }
    (out / "result.json").write_text(json.dumps(result, indent=1))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {attempted} operations, {failed} failed")
    print(f"host: {json.dumps(result['host'])}")
    print(f"input: {json.dumps(workload.stamp)}")
    for metric, value in metrics.items():
        tag = f"  [moves {report[metric]['moves']}; from {report[metric]['source']}]" if report else ""
        print(f"  {metric:28s} {value:16.6f} {units[metric]}{tag}")
    print(f"  {'failed_frac':28s} {failed / attempted:16.6f} ratio")
    if calibrations:
        print(
            f"  times scaled to the reference speed: calibration median "
            f"{statistics.median(calibrations):.6f} s (reference {speed.REFERENCE_S} s)"
        )
    print(f"full result: {out / 'result.json'}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
