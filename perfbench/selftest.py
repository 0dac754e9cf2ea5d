"""Self-test of the benchmark: tiny runs of every workload, both modes.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that ``BENCHMARK.json`` lists
exactly the workloads and metrics the code defines, that every run
prints every metric with its unit and fails no operation, and that the
benchmark refuses to run where there is no program.  Exits 1 if any
check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from run import E2E_UNITS, OUT_DIR  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_manifest(bench: dict) -> list:
    problems = []
    names = [w["name"] for w in bench["workloads"]]
    if names != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} are not {list(WORKLOADS)}")
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if end_to_end != E2E_UNITS:
        problems.append(f"BENCHMARK.json end_to_end {end_to_end} is not {E2E_UNITS}")
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    expected = {name: (unit, better) for name, (unit, better, _) in layers.PER_LAYER.items()}
    if per_layer != expected:
        problems.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    return problems


def check_run(root: Path, workload: str, trace: int, units: dict) -> list:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-2000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} operations failed")
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if emitted != units:
        problems.append(f"{where}: metrics {sorted(emitted)} with units differ from BENCHMARK.json")
    return problems


def check_refuses_without_program(root: Path) -> list:
    """Where only BENCHMARK.json and the benchmark exist, the run must
    fail without printing a result."""
    bare = root / OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [
        sys.executable, f"{HERE.name}/run.py", "--workload", next(iter(WORKLOADS)),
        "--seed", "1", "--seconds", "1", "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return ["the benchmark printed a result with no program present"]
    return []


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    problems = check_manifest(bench)
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in WORKLOADS:
        for trace, units in ((0, e2e_units), (1, layer_units)):
            problems += check_run(root, workload, trace, units)
            print(f"selftest: {workload} --trace {trace} done", flush=True)
    problems += check_refuses_without_program(root)
    for problem in problems:
        print(f"selftest: FAIL: {problem}")
    print(f"selftest: {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
