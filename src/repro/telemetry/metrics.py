"""Metric instruments: counters, gauges, histograms, and their registry.

The design constraints come straight from the papers this repo leans on:
Dagenais et al. argue for layered tracing whose *disabled* cost rounds to
zero, and Metz & Lencevicius show trigger-style probes can stay cheap
enough to leave compiled in.  Accordingly:

* instruments are plain objects mutated under a small lock (worker
  threads feed them concurrently);
* the facade in :mod:`repro.telemetry.core` guards every call site with a
  single attribute check, so a disabled build pays one ``if`` and nothing
  else;
* names are dotted (``analysis.events_per_sec``) for humans and the JSONL /
  Chrome exporters, and sanitised to underscores for the Prometheus text
  exposition.

Metric names are API the same way proflint's diagnostic codes are: the
catalog in the README lists every name, type and label, and the P4xx lint
family checks for collisions.
"""

from __future__ import annotations

import dataclasses
import re
import threading
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Default histogram bucket upper bounds (seconds-flavoured, but unitless:
#: callers observing microseconds or counts pick their own buckets).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

_PROMETHEUS_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


class MetricError(Exception):
    """A metric was registered or used inconsistently."""


def prometheus_name(name: str) -> str:
    """The Prometheus-exposition spelling of a dotted metric name.

    Dots and dashes become underscores; anything else unsupported is
    also folded to ``_``.  Two distinct dotted names can collide after
    sanitisation — proflint's P403 checks for exactly that.
    """
    sanitized = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not _PROMETHEUS_NAME.match(sanitized):
        sanitized = "_" + sanitized
    return sanitized


@dataclasses.dataclass(frozen=True)
class MetricSample:
    """One exported data point: a flattened (name, labels, value) row."""

    name: str
    kind: str
    value: Number
    labels: Tuple[Tuple[str, str], ...] = ()
    help: str = ""


class _Instrument:
    """Shared shell: a named instrument with optional label dimensions.

    An unlabelled instrument holds its own value; a labelled one is a
    family whose :meth:`labels` method vends per-label-set children.
    """

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> None:
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], "_Instrument"] = {}

    def labels(self, **labels: str) -> "_Instrument":
        """The child instrument for one concrete label assignment."""
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise MetricError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[k]) for k in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = type(self)(self.name, self.help)
                self._children[key] = child
            return child

    def _label_sets(self) -> Iterator[Tuple[Tuple[Tuple[str, str], ...], "_Instrument"]]:
        if self.label_names:
            with self._lock:
                items = list(self._children.items())
            for key, child in items:
                yield tuple(zip(self.label_names, key)), child
        else:
            yield (), self

    def samples(self) -> list[MetricSample]:
        """Flattened samples for the exporters."""
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically increasing count (events, records, failures)."""

    kind = "counter"

    def __init__(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, label_names)
        self._value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease by {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Number:
        with self._lock:
            return self._value

    def samples(self) -> list[MetricSample]:
        return [
            MetricSample(self.name, self.kind, child.value, labels, self.help)
            for labels, child in self._label_sets()
            if isinstance(child, Counter)
        ]


class Gauge(_Instrument):
    """A value that goes both ways (occupancy, rates, sizes)."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, label_names)
        self._value: Number = 0

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self._value += amount

    def max(self, value: Number) -> None:
        """Raise the gauge to *value* if it is higher (peak tracking)."""
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> Number:
        with self._lock:
            return self._value

    def samples(self) -> list[MetricSample]:
        return [
            MetricSample(self.name, self.kind, child.value, labels, self.help)
            for labels, child in self._label_sets()
            if isinstance(child, Gauge)
        ]


class Histogram(_Instrument):
    """A distribution over fixed buckets (durations, chunk sizes).

    Cumulative bucket counts in the Prometheus style: ``bucket_counts[i]``
    is the number of observations ``<= bucket_bounds[i]``, with an
    implicit ``+Inf`` bucket equal to :attr:`count`.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise MetricError(f"histogram {self.name!r} needs at least one bucket")
        self.bucket_bounds: Tuple[float, ...] = bounds
        self._bucket_counts = [0] * len(bounds)
        self._sum: Number = 0
        self._count = 0

    def labels(self, **labels: str) -> "Histogram":
        child = super().labels(**labels)
        assert isinstance(child, Histogram)
        return child

    def observe(self, value: Number) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(self.bucket_bounds):
                if value <= bound:
                    self._bucket_counts[i] += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> Number:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> Tuple[int, ...]:
        with self._lock:
            return tuple(self._bucket_counts)

    def samples(self) -> list[MetricSample]:
        out: list[MetricSample] = []
        for labels, child in self._label_sets():
            assert isinstance(child, Histogram)
            for bound, count in zip(child.bucket_bounds, child.bucket_counts()):
                out.append(
                    MetricSample(
                        self.name + ".bucket",
                        self.kind,
                        count,
                        labels + (("le", repr(float(bound))),),
                        self.help,
                    )
                )
            out.append(
                MetricSample(
                    self.name + ".bucket",
                    self.kind,
                    child.count,
                    labels + (("le", "+Inf"),),
                    self.help,
                )
            )
            out.append(
                MetricSample(self.name + ".sum", self.kind, child.sum, labels, self.help)
            )
            out.append(
                MetricSample(
                    self.name + ".count", self.kind, child.count, labels, self.help
                )
            )
        return out


class MetricRegistry:
    """A named namespace of instruments.

    Creation is idempotent per (name, kind): asking for an existing
    counter returns it; asking for an existing name as a *different* kind
    is a programming error and raises :class:`MetricError` — the same
    fault proflint's P402 reports statically when it spans registries.
    """

    def __init__(self, name: str = "default") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Instrument] = {}

    def __iter__(self) -> Iterator[_Instrument]:
        with self._lock:
            return iter(list(self._metrics.values()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._metrics)

    def _register(self, cls: type, name: str, help: str, **kwargs: object) -> _Instrument:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise MetricError(
                        f"metric {name!r} already registered in registry "
                        f"{self.name!r} as a {existing.kind}, not a "
                        f"{cls.kind}"  # type: ignore[attr-defined]
                    )
                return existing
            metric = cls(name, help, **kwargs)
            assert isinstance(metric, _Instrument)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Counter:
        metric = self._register(Counter, name, help, label_names=label_names)
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Gauge:
        metric = self._register(Gauge, name, help, label_names=label_names)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._register(
            Histogram, name, help, label_names=label_names, buckets=buckets
        )
        assert isinstance(metric, Histogram)
        return metric

    def samples(self) -> list[MetricSample]:
        """Every flattened sample in registration order."""
        out: list[MetricSample] = []
        for metric in self:
            out.extend(metric.samples())
        return out

    def clear(self) -> None:
        """Drop every instrument (test isolation)."""
        with self._lock:
            self._metrics.clear()
