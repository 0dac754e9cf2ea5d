"""The four workloads: their set-up, one operation each, and its check.

Every workload is a closed loop driven from one process: the next
operation starts when the previous one has ended.  An operation that
exits non-zero, raises, or prints anything but the expected output is
a failed operation; it is counted, never fatal.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import random
import re
import resource
import socket
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import inputs
import layers
import speed

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Wall-clock limit of any one child process.
CHILD_TIMEOUT_S = 120.0
GOLDEN = "tests/golden"
NAMES = f"{GOLDEN}/case_study.tags"
_EVENTS_LINE = re.compile(r"^(?:captured|loaded) (\d+) events", re.MULTILINE)
_GPROF_LINE = re.compile(r"^\[[ \d.]+%\]\s+(\d+) us\s+(\d+) calls\s+(\S+)\s+\(net (-?\d+) us\)$")


class Sample:
    """One operation: what it was, how long it took, whether it passed."""

    def __init__(self, kind: str, wall_s: float, events: int, ok: bool, rss_mb: float = 0.0):
        self.kind = kind
        self.wall_s = wall_s
        #: ``wall_s`` at the reference machine speed (set by the loop).
        self.scaled_s = wall_s
        self.events = events
        self.ok = ok
        self.rss_mb = rss_mb


class Context:
    """Where a run reads and writes, and with which seed and size."""

    def __init__(self, root: Path, out: Path, seed: int, tiny: bool):
        self.root = root
        self.out = out
        self.seed = seed
        self.tiny = tiny
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))


def run_child(ctx: Context, argv: List[str], stem: str) -> tuple:
    """Run *argv* to completion with stdout/stderr in files under the
    run's directory; returns (exit code, wall s, peak RSS MiB, stdout,
    stderr).  The child's own resource usage gives its peak RSS."""
    stdout_path = ctx.out / f"{stem}.out"
    stderr_path = ctx.out / f"{stem}.err"
    with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
        started = time.perf_counter()
        child = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=ctx.env, cwd=ctx.root)
        timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    return (
        child.returncode,
        wall_s,
        usage.ru_maxrss / 1024.0,
        stdout_path.read_text(),
        stderr_path.read_text(),
    )


def report_failure(kind: str, detail: str) -> None:
    print(f"perfbench: {kind}: operation failed: {detail}", file=sys.stderr)


class Workload:
    """One workload of ``BENCHMARK.json``; ``name`` is its name there."""

    name = ""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.stamp: Dict[str, Any] = {}
        #: Layer spans recorded while setting up (a Chrome trace), if traced.
        self.setup_trace: Optional[Dict[str, Any]] = None
        #: Chrome traces written by traced child operations.
        self.child_traces: List[Path] = []

    def setup(self, repeats: int, traced: bool) -> List[tuple]:
        """Make the inputs from the seed; returns each set-up's seconds
        with the machine-speed calibrations taken just before and after."""
        raise NotImplementedError

    def cycle(self) -> List[Any]:
        """The operations of one loop turn, in order."""
        return [None]

    def run(self, op: Any, tel) -> Sample:
        raise NotImplementedError

    def peak_rss_mb(self, samples: List[Sample]) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliPaper(Workload):
    """Fresh ``python -m repro`` subprocesses on paper-scale inputs."""

    name = "cli-paper"
    COMMANDS = {
        "capture network": ["capture", "--workload", "network"],
        "capture forkexec": ["capture", "--workload", "forkexec"],
        "analyze figure5 summary": [
            "analyze", f"{GOLDEN}/figure5_forkexec_v2.mpf", "--names", NAMES,
            "--summary-limit", "20",
        ],
        "analyze figure3 gprof": [
            "analyze", f"{GOLDEN}/figure3_network_v2.mpf", "--names", NAMES,
            "--report", "gprof",
        ],
    }
    #: Committed report bytes an operation's stdout must contain.
    GOLDEN_TEXT = {"analyze figure5 summary": f"{GOLDEN}/figure5_forkexec_summary.txt"}

    def setup(self, repeats: int, traced: bool) -> List[tuple]:
        """Warm the interpreter's caches with one untimed command per
        repeat; the stamp describes the two analysed golden captures."""
        from repro.instrument.namefile import NameTable

        times = []
        before = speed.calibrate()
        for i in range(repeats):
            status, wall_s, _, _, stderr = run_child(
                self.ctx, [sys.executable, "-m", "repro", "workloads"], f"setup-{i}"
            )
            if status != 0:
                raise RuntimeError(f"warm-up command failed: {stderr}")
            after = speed.calibrate()
            times.append((wall_s, before, after))
            before = after
        names = NameTable.read(self.ctx.root / NAMES)
        for key in ("analyze figure5 summary", "analyze figure3 gprof"):
            self.stamp[key] = inputs.fold(self.ctx.root / self.COMMANDS[key][1], names)["shape"]
        self.golden = {
            key: (self.ctx.root / path).read_text() for key, path in self.GOLDEN_TEXT.items()
        }
        return times

    def cycle(self) -> List[Any]:
        order = sorted(self.COMMANDS)
        random.Random(self.ctx.seed).shuffle(order)
        return order

    def run(self, op: str, tel) -> Sample:
        stem = f"op-{op.replace(' ', '-')}"
        if tel is None:
            argv = [sys.executable, "-m", "repro", *self.COMMANDS[op]]
        else:
            trace = self.ctx.out / f"{stem}-{len(self.child_traces)}.trace.json"
            argv = [sys.executable, str(HERE / "cli_shim.py"), str(trace), *self.COMMANDS[op]]
        with tel.span(layers.OP_SPAN, kind=op) if tel is not None else contextlib.nullcontext():
            status, wall_s, rss_mb, stdout, stderr = run_child(self.ctx, argv, stem)
        if tel is not None:
            self.child_traces.append(trace)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        problems = []
        if status != 0 or "Traceback" in stderr:
            problems.append(f"exit {status}: {stderr.strip()[-500:]}")
        if digest != EXPECTED["cli-paper"].get(op):
            problems.append(f"stdout sha256 {digest} is not the committed digest")
        if op in self.golden and self.golden[op] not in stdout:
            problems.append(f"stdout lacks the golden {self.GOLDEN_TEXT[op]} bytes")
        for problem in problems:
            report_failure(op, problem)
        counts = _EVENTS_LINE.findall(stdout)
        return Sample(op, wall_s, int(counts[0]) if counts else 0, not problems, rss_mb)

    def peak_rss_mb(self, samples: List[Sample]) -> float:
        return max(sample.rss_mb for sample in samples)


class InProcess(Workload):
    """A workload whose inputs a child process generates from the seed
    and whose operations run in this process."""

    def setup(self, repeats: int, traced: bool) -> List[tuple]:
        from repro.instrument.namefile import NameTable

        work = self.ctx.out / "inputs"
        work.mkdir(parents=True, exist_ok=True)
        times = []
        digests = set()
        for i in range(repeats):
            argv = [
                sys.executable, str(HERE / "inputs.py"), self.name,
                "--seed", str(self.ctx.seed), "--out", str(work),
            ]
            if self.ctx.tiny:
                argv.append("--tiny")
            if i == repeats - 1:
                argv.append("--reference")
            if traced:
                argv += ["--trace", str(self.ctx.out / "setup.trace.json")]
            status, _, _, stdout, stderr = run_child(self.ctx, argv, f"setup-{i}")
            if status != 0:
                raise RuntimeError(f"input generation failed: {stderr}")
            result = json.loads(stdout.splitlines()[-1])
            times.append((result["gen_s"], *result["calibration_s"]))
            digests.add(json.dumps(result["sha256"], sort_keys=True))
        if len(digests) != 1:
            raise RuntimeError(f"seed {self.ctx.seed} generated different inputs on repeat")
        if traced:
            self.setup_trace = json.loads((self.ctx.out / "setup.trace.json").read_text())
        # Relative to the checkout root (the working directory), so
        # reports that print the path read the same in every checkout.
        self.files = {
            key: Path(path).relative_to(self.ctx.root) for key, path in result["files"].items()
        }
        self.reference = result["reference"]
        self.stamp["input"] = dict(
            self.reference["shape"],
            params=inputs.forkexec_params(self.ctx.seed)
            if inputs.KINDS[self.name] == "forkexec"
            else {"seed": self.ctx.seed},
        )
        self.names = NameTable.read(self.files["names"])
        self.events = self.reference["shape"]["events"]
        return times

    def run(self, op: Any, tel) -> Sample:
        gc.collect()  # every operation starts from the same collector state
        started = time.perf_counter()
        try:
            with tel.span(layers.OP_SPAN, kind=self.name) if tel is not None else contextlib.nullcontext():
                output = self.operate(tel)
            wall_s = time.perf_counter() - started
            problems = self.check(output)
        except Exception:
            wall_s = time.perf_counter() - started
            problems = [traceback.format_exc()]
        for problem in problems:
            report_failure(self.name, problem)
        return Sample(self.name, wall_s, self.events, not problems)

    def operate(self, tel) -> Any:
        raise NotImplementedError

    def check(self, output: Any) -> List[str]:
        raise NotImplementedError


class AnalyzeLong(InProcess):
    """``repro analyze`` of the long capture, in process."""

    report: List[str] = []

    def operate(self, tel) -> tuple:
        from repro.__main__ import main

        lines: List[str] = []
        argv = ["analyze", str(self.files["capture"]), "--names", str(self.files["names"])]
        status = main(argv + self.report, out=lines.append)
        return status, lines

    def check(self, output: tuple) -> List[str]:
        status, lines = output
        problems = []
        if status != 0:
            problems.append(f"exit status {status}")
        loaded = f"loaded {self.events} events from {self.files['capture']}"
        if not lines or lines[0] != loaded:
            problems.append(f"first line {lines[:1]} is not {loaded!r}")
        problems += self.agree(lines[1:])
        expected = EXPECTED[self.name]
        if not self.ctx.tiny and self.ctx.seed == expected["seed"]:
            text = "\n".join(lines) + "\n"
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digest != expected["sha256"]:
                problems.append(f"seed {self.ctx.seed} report sha256 {digest} is not the committed digest")
        return problems

    def agree(self, report: List[str]) -> List[str]:
        raise NotImplementedError


class SummaryLong(AnalyzeLong):
    name = "summary-long"

    def agree(self, report: List[str]) -> List[str]:
        if report[:1] != [self.reference["text"]]:
            return ["the summary differs from the streaming fold of the same file"]
        return []


class GprofLong(AnalyzeLong):
    name = "gprof-long"
    report = ["--report", "gprof"]

    def agree(self, report: List[str]) -> List[str]:
        """Every gprof entry's calls, elapsed and net time must match the
        streaming fold's summary row for the same function."""
        functions = self.reference["functions"]
        entries = [m for m in map(_GPROF_LINE.match, "\n".join(report).splitlines()) if m]
        if not entries:
            return ["the gprof report has no entries"]
        problems = []
        for match in entries:
            inclusive, calls, name, net = match.groups()
            row = [int(calls), int(inclusive), int(net)]
            if functions.get(name) != row:
                problems.append(f"gprof {name} {row} disagrees with the fold's {functions.get(name)}")
        return problems


def drain(blob: bytes, names, tel=None):
    """Drain *blob* through a socket pair into a ``LiveAnalyzer``.

    A producer thread writes the bytes and is paced by the socket's
    backpressure; this thread consumes.  Returns the drained summary.
    """
    from repro.live.analyzer import LiveAnalyzer

    producer, consumer = socket.socketpair()

    def produce() -> None:
        try:
            producer.sendall(blob)
        except OSError:
            pass  # the consumer stopped early; its own error is reported
        finally:
            producer.close()

    thread = threading.Thread(target=produce, name="perfbench-producer")
    thread.start()
    try:
        with consumer.makefile("rb") as stream:
            source = layers.TimedReader(stream, tel) if tel is not None else stream
            return LiveAnalyzer(names).consume(source)
    finally:
        consumer.close()
        thread.join()


class LiveScale(InProcess):
    name = "live-scale"

    def setup(self, repeats: int, traced: bool) -> List[tuple]:
        times = super().setup(repeats, traced)
        self.blob = self.files["capture"].read_bytes()
        return times

    def operate(self, tel) -> str:
        return drain(self.blob, self.names, tel).format()

    def check(self, text: str) -> List[str]:
        if text != self.reference["text"]:
            return ["the drained summary differs from the streaming fold of the same bytes"]
        return []


WORKLOADS: Dict[str, Callable[[Context], Workload]] = {
    cls.name: cls for cls in (CliPaper, SummaryLong, GprofLong, LiveScale)
}


def probe(ctx: Context, tel) -> List[Path]:
    """Drive every layer once on a small fresh capture, traced.

    The traced run takes a layer's numbers from the workload's own
    operations, then from its set-up, and from this probe only for the
    layers neither reaches.  Returns the child traces to merge.
    """
    from repro.analysis.callstack import analyze_capture
    from repro.analysis.gprof import gprof_report
    from repro.analysis.summary import summarize, summarize_columns
    from repro.instrument.namefile import NameTable
    from repro.profiler.capture import Capture
    from repro.profiler.upload import iter_capture_columns
    from repro.system import build_case_study
    from repro.workloads.network_recv import network_receive

    system = build_case_study()
    capture = system.profile(lambda: network_receive(system.kernel, total_packets=6), label="probe")
    path = ctx.out / "probe.mpf"
    capture.save(path)
    system.names.write(ctx.out / "probe.tags")
    names = NameTable.read(ctx.out / "probe.tags")
    analysis = analyze_capture(Capture.load(path, names))
    summarize(analysis).format(limit=12)
    gprof_report(analysis).format()
    summarize_columns(iter_capture_columns(path), names).format()
    drain(path.read_bytes(), names, tel)
    trace = ctx.out / "probe-import.trace.json"
    status, _, _, _, stderr = run_child(
        ctx, [sys.executable, str(HERE / "cli_shim.py"), str(trace)], "probe-import"
    )
    if status != 0:
        raise RuntimeError(f"import probe failed: {stderr}")
    return [trace]
