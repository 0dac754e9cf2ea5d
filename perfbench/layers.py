"""The layer catalogue, the span instrumentation and the span arithmetic.

The traced run times each layer from the benchmark's own code: it wraps
the public function that is the layer's entry point in a span recorded
on a private :class:`repro.telemetry.core.Telemetry` instance.  The
global ``TELEMETRY`` singleton stays disabled, so the probes compiled
into the program stay off and the program's code is unchanged.

A layer's time is its *self* time: its spans' durations minus the part
their child layer spans cover.  The spans are exported with the repo's
own :func:`repro.telemetry.export.telemetry_to_chrome_trace` and all the
arithmetic below runs on that Chrome ``trace_event`` document, so the
trace a user opens in a viewer is exactly what the numbers came from.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Per-layer metrics of the traced run: name -> (unit, better, what it
#: should move).  ``moves`` names the end-to-end metric and workload a
#: change to the layer should show up in.
PER_LAYER: Dict[str, tuple] = {
    "cli.import_s": ("s", "lower", "op_s @ cli-paper"),
    "cli.modules_loaded": ("count", "lower", "op_s @ cli-paper"),
    "system.build_s": ("s", "lower", "op_s @ cli-paper"),
    "sim.capture_s": ("s", "lower", "op_s @ cli-paper; setup_s @ summary-long, gprof-long"),
    "sim.triggers": ("count", "higher", "none (work done)"),
    "sim.triggers_per_s": ("1/s", "higher", "op_s @ cli-paper; setup_s @ summary-long, gprof-long"),
    "upload.encode_s": ("s", "lower", "setup_s @ summary-long, gprof-long, live-scale"),
    "upload.load_s": ("s", "lower", "op_s @ summary-long, gprof-long"),
    "upload.columns_s": ("s", "lower", "events_per_s @ live-scale"),
    "upload.records_per_s": ("1/s", "higher", "events_per_s @ live-scale"),
    "events.decode_s": ("s", "lower", "op_s @ summary-long, gprof-long"),
    "columnar.unwrap_s": ("s", "lower", "events_per_s @ live-scale"),
    "callstack.build_s": ("s", "lower", "op_s @ gprof-long, summary-long"),
    "summary.summarize_s": ("s", "lower", "op_s @ summary-long"),
    "summary.fold_s": ("s", "lower", "events_per_s @ live-scale; op_s @ summary-long"),
    "summary.fold_events_per_s": ("1/s", "higher", "events_per_s @ live-scale; op_s @ summary-long"),
    "summary.seal_s": ("s", "lower", "events_per_s @ live-scale"),
    "summary.format_s": ("s", "lower", "op_s @ all workloads"),
    "gprof.report_s": ("s", "lower", "op_s @ gprof-long"),
    "live.feed_s": ("s", "lower", "events_per_s @ live-scale"),
    "live.wait_s": ("s", "lower", "events_per_s @ live-scale"),
    "live.batches": ("count", "higher", "none (work done)"),
    "live.windows": ("count", "higher", "none (work done)"),
    "summary.events": ("count", "higher", "must not move under a pure performance change"),
    "summary.context_switches": ("count", "higher", "must not move under a pure performance change"),
    "summary.events_per_switch": ("count", "higher", "must not move under a pure performance change"),
    "summary.unattributed_frac": ("ratio", "lower", "must not move under a pure performance change"),
    "trace.op_s": ("s", "lower", "op_s of the traced workload, with tracing on"),
    "trace.untraced_op_s": ("s", "lower", "op_s of the traced workload, in the same run"),
    "trace.overhead_s": ("s", "lower", "tracing cost per operation (traced minus untraced)"),
    "trace.coverage": ("ratio", "higher", "share of traced operation time the layer spans cover"),
    "trace.unattributed": ("ratio", "lower", "share of traced operation time no layer span covers"),
}

#: Per-layer metrics read off the spans: metric -> (span, quantity).
#: ``self`` is self seconds and ``work`` the counted work per operation
#: of the phase the span came from, ``calls`` the calls per operation,
#: ``per_call`` the work per call and ``rate`` work per self second.
FROM_SPANS = {
    "cli.import_s": ("cli.import", "self"),
    "cli.modules_loaded": ("cli.import", "per_call"),
    "system.build_s": ("system.build", "self"),
    "sim.capture_s": ("sim.capture", "self"),
    "sim.triggers": ("sim.capture", "work"),
    "sim.triggers_per_s": ("sim.capture", "rate"),
    "upload.encode_s": ("upload.encode", "self"),
    "upload.load_s": ("upload.load", "self"),
    "upload.columns_s": ("upload.columns", "self"),
    "upload.records_per_s": ("upload.columns", "rate"),
    "events.decode_s": ("events.decode", "self"),
    "columnar.unwrap_s": ("columnar.unwrap", "self"),
    "callstack.build_s": ("callstack.build", "self"),
    "summary.summarize_s": ("summary.summarize", "self"),
    "summary.fold_s": ("summary.fold", "self"),
    "summary.fold_events_per_s": ("summary.fold", "rate"),
    "summary.seal_s": ("summary.seal", "self"),
    "summary.format_s": ("summary.format", "self"),
    "gprof.report_s": ("gprof.report", "self"),
    "live.feed_s": ("live.feed", "self"),
    "live.wait_s": ("live.wait", "self"),
    "live.batches": ("live.feed", "calls"),
    "live.windows": ("live.rotate", "calls"),
}


def _quantity(totals: Dict[str, Any], per: int, span: str, quantity: str) -> float:
    self_s = totals["self_s"][span]
    work = totals["work"][span]
    calls = totals["calls"][span]
    if quantity == "self":
        return self_s / per
    if quantity == "work":
        return work / per
    if quantity == "calls":
        return calls / per
    if quantity == "per_call":
        return work / calls
    return work / self_s


def span_metrics(totals: Dict[str, tuple]) -> Dict[str, Dict[str, Any]]:
    """Every ``FROM_SPANS`` metric from the first phase that has its span.

    *totals* maps phase name -> (:func:`layer_totals` result, operations
    the phase ran), in order of preference.
    """
    report: Dict[str, Dict[str, Any]] = {}
    for metric, (span, quantity) in FROM_SPANS.items():
        for phase, (phase_totals, per) in totals.items():
            if span in phase_totals["calls"]:
                value = _quantity(phase_totals, per, span, quantity)
                report[metric] = {"value": value, "source": phase}
                break
    return report


#: The span around one whole benchmark operation.
OP_SPAN = "op"

#: Span name -> entry points it wraps, as ``(module, attribute path)``.
#: A module-level function is rebound everywhere a ``repro`` module
#: imported it by name, so ``from x import f`` callers are traced too.
SPANS: Dict[str, tuple] = {
    "system.build": (("repro.system", "build_case_study"),),
    "sim.capture": (("repro.system", "CaseStudySystem.profile"),),
    "upload.encode": (
        ("repro.profiler.capture", "Capture.save"),
        ("repro.profiler.upload", "CaptureStreamWriter.write_records"),
    ),
    "upload.load": (("repro.profiler.capture", "Capture.load"),),
    "upload.columns": (("repro.profiler.upload", "iter_capture_columns"),),
    "events.decode": (("repro.analysis.events", "decode_capture"),),
    "columnar.unwrap": (("repro.analysis.columnar", "unwrap_times"),),
    "callstack.build": (("repro.analysis.callstack", "build_call_tree"),),
    "summary.summarize": (("repro.analysis.summary", "summarize"),),
    "summary.fold": (("repro.analysis.summary", "SummaryAccumulator.feed_columns"),),
    "summary.seal": (("repro.analysis.summary", "SummaryAccumulator.summary"),),
    "summary.format": (("repro.analysis.summary", "ProfileSummary.format"),),
    "gprof.report": (
        ("repro.analysis.gprof", "gprof_report"),
        ("repro.analysis.gprof", "GprofReport.format"),
    ),
    "live.feed": (("repro.live.analyzer", "LiveAnalyzer.feed"),),
    "live.rotate": (("repro.live.analyzer", "LiveAnalyzer.rotate"),),
}


def _triggers(args: tuple) -> int:
    return args[0].kernel.stats["triggers"]


#: Work counted on a span as ``n``: (span target) -> (counter, is_delta).
#: A delta counter is read before and after the call.
_WORK: Dict[str, tuple] = {
    "CaseStudySystem.profile": (_triggers, True),
    "SummaryAccumulator.feed_columns": (lambda args: len(args[1]), False),
    "LiveAnalyzer.feed": (lambda args: len(args[1]), False),
}


def _wrap_call(tel, name: str, fn: Callable, work: Optional[tuple]) -> Callable:
    counter, is_delta = work if work is not None else (None, False)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tel.span(name) as span:
            before = counter(args) if is_delta else 0
            result = fn(*args, **kwargs)
            if counter is not None:
                span.set(n=counter(args) - before)
            return result

    return wrapper


def _wrap_generator(tel, name: str, fn: Callable) -> Callable:
    """One span per item pulled, with the item's length as its work."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any):
        items = fn(*args, **kwargs)
        while True:
            with tel.span(name) as span:
                try:
                    item = next(items)
                except StopIteration:
                    return
                span.set(n=len(item))
            yield item

    return wrapper


def load_modules() -> None:
    """Import every module that defines a layer entry point.

    Traced and untraced runs call this alike, so both import the
    program's modules in the same order.
    """
    for targets in SPANS.values():
        for module_name, _ in targets:
            importlib.import_module(module_name)


def write_trace(path, doc: Dict[str, Any], tel) -> None:
    """Write a Chrome trace, stamped with its tracer's clock origin so a
    parent process can place it on its own timeline."""
    doc["otherData"]["origin_ns"] = tel.tracer.origin_ns
    with open(path, "w") as handle:
        json.dump(doc, handle)


class Instrumentation:
    """Wraps every layer entry point in spans on *tel*; :meth:`remove`
    restores the originals.  Usable as a context manager."""

    def __init__(self, tel) -> None:
        self._undo: List[tuple] = []
        load_modules()
        for name, targets in SPANS.items():
            for module_name, path in targets:
                self._install(tel, name, sys.modules[module_name], path)

    def _install(self, tel, name: str, module, path: str) -> None:
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap_call(tel, name, original.__func__, None))
            else:
                wrapped = _wrap_call(tel, name, original, _WORK.get(path))
            setattr(cls, attr, wrapped)
            self._undo.append((cls, attr, original))
            return
        original = getattr(module, path)
        if path.startswith("iter_"):
            wrapped = _wrap_generator(tel, name, original)
        else:
            wrapped = _wrap_call(tel, name, original, None)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not getattr(loaded, "__name__", "").startswith("repro") or not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    setattr(loaded, attr, wrapped)
                    self._undo.append((loaded, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()


class TimedReader:
    """A binary stream whose every ``read`` is one ``live.wait`` span:
    the time the consumer spends waiting on the wire."""

    def __init__(self, stream, tel) -> None:
        self._stream = stream
        self._tel = tel

    def read(self, size: int = -1) -> bytes:
        with self._tel.span("live.wait"):
            return self._stream.read(size)


# -- span arithmetic over Chrome trace documents -----------------------------


def complete_events(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [e for e in doc["traceEvents"] if e.get("ph") == "X"]


def merge_events(
    doc: Dict[str, Any], other: Dict[str, Any], *, pid: int, tid: int = 0, shift_us: float = 0.0
) -> None:
    """Append *other*'s complete events to *doc* as process *pid*,
    shifted by *shift_us* onto *doc*'s clock (thread ids offset by *tid*)."""
    for event in complete_events(other):
        doc["traceEvents"].append(
            dict(event, pid=pid, tid=event["tid"] + tid, ts=event["ts"] + shift_us)
        )


def layer_totals(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Self time, work and call count per span name, and how much of the
    operation spans' time the outermost layer spans cover.

    Spans nest per (pid, tid); a layer span's self time is its duration
    minus its direct child layer spans'.  ``OP_SPAN`` spans are the
    operations themselves, not layers: they are left out of the nesting
    and only sum the operation wall time.
    """
    self_us: Dict[str, float] = defaultdict(float)
    work: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    op_us = 0.0
    covered_us = 0.0
    layers = []
    for event in events:
        if event["name"] == OP_SPAN:
            op_us += event["dur"]
        else:
            layers.append(event)
    layers.sort(key=lambda e: (e["pid"], e["tid"], e["ts"], -e["dur"]))
    stack: List[Dict[str, Any]] = []
    thread = None
    for event in layers:
        if (event["pid"], event["tid"]) != thread:
            thread = (event["pid"], event["tid"])
            stack = []
        while stack and stack[-1]["ts"] + stack[-1]["dur"] <= event["ts"]:
            stack.pop()
        if stack:
            self_us[stack[-1]["name"]] -= event["dur"]
        else:
            covered_us += event["dur"]
        self_us[event["name"]] += event["dur"]
        work[event["name"]] += event.get("args", {}).get("n", 0)
        calls[event["name"]] += 1
        stack.append(event)
    return {
        "self_s": {name: us / 1e6 for name, us in self_us.items()},
        "work": dict(work),
        "calls": dict(calls),
        "op_s": op_us / 1e6,
        "covered_s": covered_us / 1e6,
    }
