"""``repro live``: concurrent capture -> analyze over a wire.

``live capture`` streams an open-ended MPF2 capture to stdout, a FIFO
or a file; ``live analyze`` folds such a stream as it arrives.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

from repro.__main__ import (
    add_workload_flags,
    non_negative_int,
    positive_int,
    stderr,
    workload_modules,
)


def cmd_live_capture(args: argparse.Namespace, out: Callable) -> int:
    """``repro live capture``: stream an open-ended MPF2 capture to a wire.

    The record stream (header, flushed chunks, trailer) goes to stdout
    by default — pipe it straight into ``repro live analyze`` — and every
    human-oriented line goes to stderr, so the wire stays pure.
    """
    from repro.atomicio import check_writable
    from repro.cli.reports import desync_footer
    from repro.live.capture import stream_capture
    from repro.workloads import get_workload

    spec = get_workload(args.workload)
    check_writable(args.names)
    sink = sys.stdout.buffer if args.out == "-" else open(args.out, "wb")
    try:
        result = stream_capture(
            sink,
            spec,
            packets=args.packets,
            modules=workload_modules(args),
            chunk_records=args.chunk_records,
            names_out=args.names,
            info=stderr,
        )
    finally:
        if sink is not sys.stdout.buffer:
            sink.close()
        else:
            sink.flush()
    stderr(desync_footer(result.desyncs))
    return 0


def cmd_live_analyze(args: argparse.Namespace, out: Callable) -> int:
    """``repro live analyze``: fold an MPF2 wire stream as it arrives.

    Stdout carries exactly the drained summary report (so CI can diff it
    against ``analyze`` of the same file); window lines, the metrics URL
    and all other narration go to stderr.
    """
    import time as _time

    from repro.analysis.summary import SummaryAccumulator
    from repro.instrument.namefile import NameTable
    from repro.live.analyzer import LiveAnalyzer
    from repro.telemetry import TELEMETRY

    # The name/tag table travels out of band and the producer only
    # writes it (atomically) once its capture finishes, so an analyzer
    # started first — the normal shape of `capture | analyze` — waits
    # for it to appear instead of racing it.
    deadline = _time.monotonic() + max(args.names_timeout, 0.0)
    missing = [p for p in args.names if not Path(p).exists()]
    while missing and _time.monotonic() < deadline:
        _time.sleep(0.05)
        missing = [p for p in missing if not Path(p).exists()]
    if missing:
        raise FileNotFoundError(
            "name/tag file(s) never appeared within "
            f"{args.names_timeout:g}s: {', '.join(missing)}"
        )
    names = NameTable.read(*args.names)
    # The live gauges need the telemetry singleton on; --telemetry
    # already enables it, a bare --metrics-port enables it for the run
    # without writing a snapshot file.
    implicit_telemetry = args.metrics_port is not None and not args.telemetry
    if implicit_telemetry:
        TELEMETRY.reset()
        TELEMETRY.enable()
    trace = heartbeat = server = analyzer = None
    try:
        if args.heartbeat:
            from repro.telemetry.heartbeat import HeartbeatFlusher

            heartbeat = HeartbeatFlusher(
                Path(args.heartbeat), TELEMETRY, interval_s=args.heartbeat_every
            )
        if args.trace_out:
            from repro.analysis.chrome_trace import LIVE_MAX_SLICES, ChromeTraceWriter

            trace = ChromeTraceWriter(
                open(args.trace_out, "w"), max_slices=LIVE_MAX_SLICES
            )

        def _on_window(window) -> None:
            stderr(
                f"window #{window.seq}: {window.events} events, "
                f"{window.events_per_sec:,.0f}/s, "
                f"busy {100.0 * window.window.busy_fraction:.2f}%"
            )

        analyzer = LiveAnalyzer(
            names,
            window_s=args.window,
            on_window=_on_window,
            trace=trace,
            heartbeat=heartbeat,
        )
        if args.metrics_port is not None:
            from repro.fleet.serve import MetricsHTTPServer

            server = MetricsHTTPServer(
                analyzer.render_metrics, port=args.metrics_port, name="live-metrics"
            )
            server.start()
            stderr(f"live metrics at http://127.0.0.1:{server.port}/metrics")
        source = sys.stdin.buffer if args.source == "-" else args.source
        summary = analyzer.consume(source)
        stderr(
            f"live: drained {analyzer.records_total} events in "
            f"{analyzer.batches} batch(es) over {analyzer.windows} window(s)"
        )
        if trace is not None:
            stderr(f"live trace written to {args.trace_out}")
        out(summary.format(limit=args.summary_limit))
        out("")
        return 0
    finally:
        if server is not None:
            server.close()
        if trace is not None:
            # After an error the file still ends in its trailer, with the
            # accounting of what was folded (nothing, if the analyzer
            # was never built).
            trace.close(
                SummaryAccumulator(names) if analyzer is None else analyzer.accumulator
            )
            trace.out.close()
        if implicit_telemetry:
            TELEMETRY.disable()


def arguments(live: argparse.ArgumentParser) -> None:
    live.description = (
        "The live profiling pair: 'capture' streams an "
        "open-ended MPF2 capture (sentinel count + end-of-stream "
        "trailer) to a wire while 'analyze' consumes the other end "
        "concurrently, folding batches into rolling summaries as they "
        "land.  repro live capture --names run.tags | repro live "
        "analyze --names run.tags"
    )
    live_sub = live.add_subparsers(dest="live_command", required=True)

    live_capture = live_sub.add_parser(
        "capture",
        help="run a workload and stream the capture to stdout/FIFO/file",
    )
    add_workload_flags(live_capture)
    live_capture.add_argument(
        "--names", required=True, metavar="PATH",
        help="write the name/tag file here; the analyzer on the far end "
        "needs it (names travel out of band, as in the paper)",
    )
    live_capture.add_argument(
        "--out", default="-", metavar="PATH",
        help="wire target: '-' for stdout (default; pipe it), or a "
        "FIFO/file path",
    )
    live_capture.add_argument(
        "--chunk-records", type=positive_int, default=8192, metavar="N",
        help="records per flushed write (default 8192, one board RAM)",
    )
    live_capture.set_defaults(func=cmd_live_capture)

    live_analyze = live_sub.add_parser(
        "analyze",
        help="consume an MPF2 wire stream; rolling summaries + /metrics",
    )
    live_analyze.add_argument(
        "source", nargs="?", default="-",
        help="'-' for stdin (default) or a capture/FIFO path",
    )
    live_analyze.add_argument(
        "--names", action="append", required=True,
        help="name/tag file(s) to decode with (repeatable, concatenated)",
    )
    live_analyze.add_argument(
        "--names-timeout", type=float, default=30.0, metavar="SECONDS",
        help="how long to wait for the producer's name/tag file(s) to "
        "appear before giving up (default 30)",
    )
    live_analyze.add_argument(
        "--window", type=float, default=1.0, metavar="SECONDS",
        help="rolling-summary window on the host clock (default 1.0)",
    )
    live_analyze.add_argument("--summary-limit", type=non_negative_int, default=12)
    live_analyze.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve live Prometheus gauges at "
        "http://127.0.0.1:PORT/metrics while draining (0: ephemeral "
        "port, printed to stderr)",
    )
    live_analyze.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the capture's Chrome trace_event JSON here while the "
        "stream flows (the events `trace export` writes, plus counters)",
    )
    live_analyze.add_argument(
        "--heartbeat", default=None, metavar="PATH",
        help="append periodic telemetry heartbeats (JSON lines) here",
    )
    live_analyze.add_argument(
        "--heartbeat-every", type=float, default=5.0, metavar="SECONDS",
        help="seconds between heartbeat flushes (default 5.0)",
    )
    live_analyze.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="enable self-telemetry and write the final snapshot here "
        "(format inferred from the extension)",
    )
    live_analyze.set_defaults(func=cmd_live_analyze)
