"""Self-telemetry for the profiler: metrics, spans, exporters, progress.

The reproduction profiles a simulated kernel; this package profiles the
*profiler* — counters, gauges and histograms in a registry, a span
tracer with context-manager and decorator APIs, and exporters for
JSON-lines, Prometheus text exposition and Chrome ``trace_event`` JSON
(see :mod:`repro.telemetry.export`, imported lazily to keep this package
free of analysis-layer dependencies).

Everything records through the module singleton :data:`TELEMETRY`, which
is **disabled by default**: every probe costs one attribute check and
returns.  Enable around a region of interest::

    from repro.telemetry import TELEMETRY

    TELEMETRY.enable()
    ...  # capture / analyze / lint as usual
    from repro.telemetry.export import write_telemetry
    write_telemetry("run.trace", TELEMETRY)
"""

from repro.telemetry.core import Telemetry

#: The process-wide telemetry instance every instrumented subsystem uses.
TELEMETRY = Telemetry()
