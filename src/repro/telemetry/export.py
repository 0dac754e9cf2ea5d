"""Exporters: JSON-lines, Prometheus text exposition, Chrome trace_event.

Three consumers, three formats:

* **JSONL** — one self-describing JSON object per line (metrics first,
  then spans); the format for ad-hoc ``jq`` and log shippers.
* **Prometheus** — the text exposition format (``# TYPE`` / ``# HELP``
  headers, ``name{label="v"} value`` samples) for scrape endpoints and
  pushgateways; dotted metric names are sanitised to underscores.
* **Chrome ``trace_event`` JSON** — opens directly in Perfetto or
  ``chrome://tracing``.  :func:`telemetry_to_chrome_trace` shows the
  *profiler's own* spans (analysis stages, lint passes); the capture
  itself, the paper's Figure 4 code-path trace, is written in the same
  format by :class:`repro.analysis.chrome_trace.ChromeTraceWriter`.

:func:`write_telemetry` picks the format from the file extension, which
is what the CLI's ``--telemetry PATH`` flag uses.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

from repro.telemetry.core import Telemetry
from repro.telemetry.metrics import MetricSample, prometheus_name

#: extension -> canonical format name.
EXTENSION_FORMATS: Dict[str, str] = {
    ".jsonl": "jsonl",
    ".ndjson": "jsonl",
    ".prom": "prometheus",
    ".txt": "prometheus",
    ".json": "chrome",
    ".trace": "chrome",
}


def infer_format(path: Union[str, Path]) -> str:
    """The export format implied by *path*'s extension."""
    suffix = Path(path).suffix.lower()
    try:
        return EXTENSION_FORMATS[suffix]
    except KeyError:
        known = ", ".join(sorted(EXTENSION_FORMATS))
        raise ValueError(
            f"cannot infer a telemetry format from {str(path)!r} "
            f"(extension {suffix!r}); use one of: {known}"
        ) from None


# -- JSON lines ---------------------------------------------------------------


def to_jsonl(telemetry: Telemetry) -> str:
    """One JSON object per line: a ``meta`` header, metrics, then spans."""
    snapshot = telemetry.snapshot()
    lines: List[str] = [
        json.dumps(
            {
                "type": "meta",
                "tool": "repro-telemetry",
                "version": 1,
                "metrics": len(snapshot["metrics"]),
                "spans": len(snapshot["spans"]),
                "dropped_spans": snapshot["dropped_spans"],
                "open_spans": snapshot["open_spans"],
            },
            sort_keys=True,
        )
    ]
    for metric in snapshot["metrics"]:
        lines.append(json.dumps({"type": "metric", **metric}, sort_keys=True))
    for span in snapshot["spans"]:
        lines.append(json.dumps({"type": "span", **span}, sort_keys=True))
    return "\n".join(lines) + "\n"


# -- Prometheus text exposition ------------------------------------------------


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _base_name(sample: MetricSample) -> str:
    """The family name a histogram piece belongs to."""
    if sample.kind == "histogram":
        for suffix in (".bucket", ".sum", ".count"):
            if sample.name.endswith(suffix):
                return sample.name[: -len(suffix)]
    return sample.name


def to_prometheus(telemetry: Telemetry) -> str:
    """The text exposition format (one scrape's worth of output)."""
    lines: List[str] = []
    seen_headers: Set[str] = set()
    for sample in telemetry.samples():
        base = _base_name(sample)
        base_prom = prometheus_name(base)
        if base not in seen_headers:
            seen_headers.add(base)
            if sample.help:
                lines.append(f"# HELP {base_prom} {sample.help}")
            lines.append(f"# TYPE {base_prom} {sample.kind}")
        name = prometheus_name(sample.name)
        if sample.labels:
            rendered = ",".join(
                f'{key}="{_escape_label_value(str(value))}"'
                for key, value in sample.labels
            )
            lines.append(f"{name}{{{rendered}}} {sample.value}")
        else:
            lines.append(f"{name} {sample.value}")
    return "\n".join(lines) + "\n"


# -- Chrome trace_event --------------------------------------------------------


def telemetry_to_chrome_trace(telemetry: Telemetry) -> Dict[str, Any]:
    """The profiler's own spans as a Chrome ``trace_event`` document.

    One process, one thread row per Python thread that produced spans;
    timestamps are microseconds since the tracer's origin.
    """
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro telemetry"},
        }
    ]
    origin = telemetry.tracer.origin_ns
    tids: Dict[int, int] = {}
    for record in telemetry.spans():
        tid = tids.get(record.thread_id)
        if tid is None:
            tid = tids[record.thread_id] = len(tids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": record.thread_name},
                }
            )
        events.append(
            {
                "name": record.name,
                "cat": "telemetry",
                "ph": "X",
                "ts": (record.start_ns - origin) / 1_000,
                "dur": record.duration_ns / 1_000,
                "pid": 1,
                "tid": tid,
                "args": dict(record.attrs),
            }
        )
    metrics = {
        prometheus_name(s.name): s.value for s in telemetry.samples() if not s.labels
    }
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"tool": "repro-telemetry", "metrics": metrics},
    }


def chrome_complete_event(
    name: str,
    ts_us: float,
    dur_us: float,
    *,
    pid: int = 1,
    tid: int = 1,
    cat: str = "function",
    args: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One ``ph="X"`` complete event (a finished span)."""
    event: Dict[str, Any] = {
        "name": name,
        "cat": cat,
        "ph": "X",
        "ts": ts_us,
        "dur": dur_us,
        "pid": pid,
        "tid": tid,
    }
    if args:
        event["args"] = args
    return event


# -- dispatch ------------------------------------------------------------------


def render_telemetry(telemetry: Telemetry, format: str) -> str:
    """Render a telemetry snapshot in the named format."""
    if format == "jsonl":
        return to_jsonl(telemetry)
    if format == "prometheus":
        return to_prometheus(telemetry)
    if format == "chrome":
        return json.dumps(telemetry_to_chrome_trace(telemetry), indent=1)
    raise ValueError(f"unknown telemetry format {format!r}")


def write_telemetry(
    path: Union[str, Path], telemetry: Telemetry, format: Optional[str] = None
) -> str:
    """Write the snapshot to *path*; format inferred from the extension
    unless given.  Returns the format used."""
    chosen = format if format is not None else infer_format(path)
    Path(path).write_text(render_telemetry(telemetry, chosen))
    return chosen
