"""The telemetry facade: one object, one ``enabled`` check per call site.

Layering rule (after Dagenais et al.): the instrumented subsystems never
talk to registries or tracers directly — they call the module singleton
(:data:`repro.telemetry.TELEMETRY`) through this facade, whose every
public mutator starts with ``if not self.enabled: return``.  A disabled
profiler therefore pays exactly one attribute check per probe, which is
what lets the probes stay compiled in (Metz & Lencevicius' argument for
trigger-style instrumentation) and what
``benchmarks/bench_telemetry_overhead.py`` gates.

Hot loops that cannot afford even a call should hoist the check::

    from repro.telemetry import TELEMETRY as _T
    if _T.enabled:
        _T.count("upload.records.decoded", n)

Everything is thread-safe: ``repro top`` and the live metrics server
feed spans and counters from more than one thread.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    MetricSample,
    Number,
)
from repro.telemetry.spans import NOOP_SPAN, NoopSpan, Span, SpanRecord, SpanTracer

AnySpan = Union[Span, NoopSpan]


class Telemetry:
    """Registry + tracer behind an enable switch.

    Disabled (the default), every probe returns immediately after one
    attribute check and leaves zero state behind; enabled, counters and
    spans accumulate until :meth:`reset`.
    """

    def __init__(self, name: str = "repro") -> None:
        self.enabled: bool = False
        self.registry = MetricRegistry(name)
        self.tracer = SpanTracer()
        self._lock = threading.Lock()
        self._extra_registries: List[MetricRegistry] = []

    # -- lifecycle ------------------------------------------------------------

    def enable(self) -> "Telemetry":
        self.enabled = True
        return self

    def disable(self) -> "Telemetry":
        self.enabled = False
        return self

    def reset(self) -> "Telemetry":
        """Drop all recorded state (instruments, spans, attached registries)."""
        self.registry.clear()
        self.tracer.clear()
        with self._lock:
            self._extra_registries.clear()
        return self

    def attach_registry(self, registry: MetricRegistry) -> MetricRegistry:
        """Attach a secondary registry (a subsystem with its own namespace).

        The exporters and proflint's P402/P403 checks walk every attached
        registry alongside the default one.
        """
        with self._lock:
            self._extra_registries.append(registry)
        return registry

    def registries(self) -> List[MetricRegistry]:
        with self._lock:
            return [self.registry, *self._extra_registries]

    # -- instruments ----------------------------------------------------------
    #
    # Creation helpers work even while disabled (modules pre-create their
    # instruments at import time); only *recording* is gated.

    def counter(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Counter:
        return self.registry.counter(name, help, label_names)

    def gauge(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Gauge:
        return self.registry.gauge(name, help, label_names)

    def histogram(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self.registry.histogram(name, help, label_names, buckets)

    # -- recording (all gated) -------------------------------------------------

    def count(self, name: str, amount: Number = 1, **labels: str) -> None:
        """Increment counter *name* (created on first use)."""
        if not self.enabled:
            return
        counter = self.registry.counter(name, label_names=tuple(sorted(labels)))
        if labels:
            child = counter.labels(**labels)
            assert isinstance(child, Counter)
            counter = child
        counter.inc(amount)

    def set_gauge(self, name: str, value: Number, **labels: str) -> None:
        """Set gauge *name* (created on first use)."""
        if not self.enabled:
            return
        gauge = self.registry.gauge(name, label_names=tuple(sorted(labels)))
        if labels:
            child = gauge.labels(**labels)
            assert isinstance(child, Gauge)
            gauge = child
        gauge.set(value)

    def max_gauge(self, name: str, value: Number) -> None:
        """Raise gauge *name* to *value* if higher (peak tracking)."""
        if not self.enabled:
            return
        self.registry.gauge(name).max(value)

    def observe(self, name: str, value: Number) -> None:
        """Observe *value* into histogram *name* (created on first use)."""
        if not self.enabled:
            return
        self.registry.histogram(name).observe(value)

    def span(self, name: str, **attrs: Any) -> AnySpan:
        """Open a span, or hand back the shared no-op when disabled."""
        if not self.enabled:
            return NOOP_SPAN
        return self.tracer.span(name, **attrs)

    def traced(self, name: Optional[str] = None, **attrs: Any):
        """Decorator: span the whole function body (no-op when disabled)."""

        def decorate(fn):
            span_name = name if name is not None else fn.__qualname__

            import functools

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any):
                if not self.enabled:
                    return fn(*args, **kwargs)
                with self.tracer.span(span_name, **attrs):
                    return fn(*args, **kwargs)

            return wrapper

        return decorate

    # -- snapshots -------------------------------------------------------------

    def samples(self) -> List[MetricSample]:
        """Every metric sample across every attached registry."""
        out: List[MetricSample] = []
        for registry in self.registries():
            out.extend(registry.samples())
        return out

    def spans(self) -> Sequence[SpanRecord]:
        return self.tracer.records()

    def snapshot(self) -> Dict[str, Any]:
        """A plain-data view of everything recorded (exporter input)."""
        return {
            "metrics": [
                {
                    "name": s.name,
                    "kind": s.kind,
                    "value": s.value,
                    "labels": dict(s.labels),
                    "help": s.help,
                }
                for s in self.samples()
            ],
            "spans": [
                {
                    "name": r.name,
                    "start_ns": r.start_ns - self.tracer.origin_ns,
                    "duration_ns": r.duration_ns,
                    "thread_id": r.thread_id,
                    "thread_name": r.thread_name,
                    "depth": r.depth,
                    "attrs": dict(r.attrs),
                }
                for r in self.spans()
            ],
            "dropped_spans": self.tracer.dropped,
            "open_spans": self.tracer.open_count,
        }
