"""Run one ``python -m repro`` command with its layers traced.

    python3 perfbench/cli_shim.py TRACE_FILE [repro arguments ...]

Stands in for ``python -m repro`` in the traced run of the subprocess
workload: it times the fresh-interpreter ``import repro.__main__`` as
the ``cli.import`` span (with the number of loaded modules as its
work), wraps the layers in spans, runs the command with its normal
stdout and exit code, and writes the spans to TRACE_FILE.  With no
repro arguments it only imports the CLI: the import probe.
"""

import sys
import time

started_ns = time.perf_counter_ns()
import repro.__main__ as cli  # noqa: E402

imported_ns = time.perf_counter_ns()
modules_loaded = len(sys.modules)

import layers  # noqa: E402
from repro.telemetry.core import Telemetry  # noqa: E402
from repro.telemetry.export import (  # noqa: E402
    chrome_complete_event,
    telemetry_to_chrome_trace,
)


def main(argv) -> int:
    trace_file, command = argv[0], argv[1:]
    tel = Telemetry("perfbench-cli").enable()
    status = 0
    try:
        if command:
            with layers.Instrumentation(tel):
                status = cli.main(command)
    finally:
        doc = telemetry_to_chrome_trace(tel)
        doc["traceEvents"].append(
            chrome_complete_event(
                "cli.import",
                (started_ns - tel.tracer.origin_ns) / 1_000,
                (imported_ns - started_ns) / 1_000,
                cat="telemetry",
                args={"n": modules_loaded},
            )
        )
        layers.write_trace(trace_file, doc, tel)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
