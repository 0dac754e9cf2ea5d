"""The telemetry-misuse pass: P401, P403 and P404.

The telemetry layer is itself instrumentation, so it gets the same
static discipline as the kernel's triggers: a span opened but never
closed is the dynamic twin of an ``enter()`` with no ``leave()``
(P401); two distinct dotted names that sanitise to the same Prometheus
name silently merge on the scrape side (P403); and a full span buffer
means the trace the user exports is missing data (P404).  (P402, one
name in two registries, is retired: a :class:`Telemetry` has one
registry.)

The pass inspects live state — the module singleton after a run, or any
:class:`~repro.telemetry.core.Telemetry` a test constructs — so it can
run both in ``proflint --self-check`` (where the shipped configuration
should be vacuously clean) and at the end of an instrumented session.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from repro.lint.diagnostics import LintReport
from repro.telemetry.core import Telemetry
from repro.telemetry.metrics import prometheus_name


def lint_telemetry(
    telemetry: Telemetry,
    source: str = "<telemetry>",
    report: Optional[LintReport] = None,
) -> LintReport:
    """Check a telemetry instance for the P4xx misuse diagnostics."""
    report = report if report is not None else LintReport()

    # P401: spans opened but never closed.
    open_count = telemetry.tracer.open_count
    if open_count > 0:
        names = telemetry.tracer.open_span_names()
        detail = f" (this thread: {', '.join(names)})" if names else ""
        report.add(
            "P401",
            f"{open_count} span(s) opened but never closed{detail}: "
            "their durations are lost and nesting below them is suspect",
            source=source,
        )

    # P404: the bounded span buffer overflowed.
    dropped = telemetry.tracer.dropped
    if dropped > 0:
        report.add(
            "P404",
            f"{dropped} finished span(s) dropped after the buffer filled "
            f"(max_spans={telemetry.tracer.max_spans}): exported traces "
            "are incomplete",
            source=source,
        )

    # P403: distinct dotted names that sanitise to one Prometheus name.
    sanitised: defaultdict[str, set[str]] = defaultdict(set)
    for name in telemetry.registry.names():
        sanitised[prometheus_name(name)].add(name)
    for prom, originals in sorted(sanitised.items()):
        if len(originals) > 1:
            report.add(
                "P403",
                f"metrics {', '.join(sorted(repr(n) for n in originals))} all "
                f"export as {prom!r}: Prometheus scrapes will merge them",
                source=source,
            )
    return report
