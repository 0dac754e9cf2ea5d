"""The span tracer: wall-clock-free timing of nested stages.

A *span* is one timed region — an analysis stage, a lint pass, the run
loop of a capture.  Spans nest naturally (the tracer keeps a
per-thread stack, so a span knows its parent) and serialise directly into
the Chrome ``trace_event`` format's ``"X"`` complete events.

Clocks are monotonic (:func:`time.perf_counter_ns`): telemetry timing must
never run backwards when the host's wall clock steps, and simulated time
(the capture's own microsecond counter) stays a completely separate axis.

The disabled fast path lives one layer up, in
:class:`repro.telemetry.core.Telemetry`: call sites get a shared no-op
span object back and the tracer is never consulted.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterator, NamedTuple, Tuple

#: Keep at most this many finished spans by default; older runs stay
#: bounded even if a caller forgets to export and reset.
DEFAULT_MAX_SPANS = 100_000


class SpanRecord(NamedTuple):
    """One finished span, ready for export."""

    name: str
    start_ns: int
    duration_ns: int
    thread_id: int
    thread_name: str
    depth: int
    attrs: Tuple[Tuple[str, Any], ...] = ()

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns


class Span:
    """An open span; a reentrant-free context manager.

    Usable as ``with tracer.span("name"):`` or via explicit
    :meth:`close` for regions that do not nest lexically.  Closing twice
    is a no-op; abandoning a span (never closing it) is what proflint's
    P401 diagnostic reports.
    """

    __slots__ = ("_tracer", "name", "_start_ns", "_attrs", "_depth", "_closed")

    def __init__(
        self,
        tracer: "SpanTracer",
        name: str,
        attrs: Dict[str, Any],
        depth: int,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self._attrs = attrs
        self._depth = depth
        self._closed = False
        self._start_ns = time.perf_counter_ns()

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span (visible in every exporter)."""
        self._attrs.update(attrs)
        return self

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        end_ns = time.perf_counter_ns()
        self._tracer._finish(self, end_ns)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if exc_type is not None:
            self._attrs.setdefault("error", getattr(exc_type, "__name__", str(exc_type)))
        self.close()


class NoopSpan:
    """The shared disabled-path span: every operation is a no-op."""

    __slots__ = ()

    name = "<noop>"

    def set(self, **attrs: Any) -> "NoopSpan":
        return self

    def close(self) -> None:
        return None

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        return None


#: The singleton handed out whenever telemetry is disabled.
NOOP_SPAN = NoopSpan()


class SpanTracer:
    """Collects finished spans, bounded, thread-safe.

    ``opened``/``closed`` counters let proflint report spans that were
    started but never finished — the dynamic equivalent of an ``enter()``
    with no ``leave()`` on some path.
    """

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self._lock = threading.Lock()
        self._spans: list[SpanRecord] = []
        self._local = threading.local()
        self.max_spans = max_spans
        self.opened = 0
        self.closed = 0
        self.dropped = 0
        #: Process-lifetime origin for exported timestamps.
        self.origin_ns = time.perf_counter_ns()

    # -- opening and closing -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span; the caller closes it (``with`` or ``close()``)."""
        stack = self._stack()
        span = Span(self, name, dict(attrs), depth=len(stack))
        stack.append(span)
        with self._lock:
            self.opened += 1
        return span

    def _finish(self, span: Span, end_ns: int) -> None:
        stack = self._stack()
        # Out-of-order closes (explicit close() of an outer span first)
        # still unwind cleanly: pop through the closing span if present.
        if span in stack:
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        thread = threading.current_thread()
        record = SpanRecord(
            name=span.name,
            start_ns=span._start_ns,
            duration_ns=end_ns - span._start_ns,
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            depth=span._depth,
            attrs=tuple(span._attrs.items()),
        )
        with self._lock:
            self.closed += 1
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
            else:
                self._spans.append(record)

    # -- inspection -----------------------------------------------------------

    @property
    def open_count(self) -> int:
        """Spans started but not yet (or never) finished."""
        with self._lock:
            return self.opened - self.closed

    def open_span_names(self) -> Tuple[str, ...]:
        """Names of this thread's currently open spans (lint aid)."""
        return tuple(span.name for span in self._stack())

    def records(self) -> Tuple[SpanRecord, ...]:
        with self._lock:
            return tuple(self._spans)

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(self.records())

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def clear(self) -> None:
        """Drop finished spans and reset the misuse counters."""
        with self._lock:
            self._spans.clear()
            self.opened = 0
            self.closed = 0
            self.dropped = 0
        self._local = threading.local()
