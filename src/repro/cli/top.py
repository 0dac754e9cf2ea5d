"""``repro top``: a refreshing hottest-functions view of a live capture."""

from __future__ import annotations

import argparse
from typing import Callable

from repro.__main__ import (
    add_workload_flags,
    non_negative_int,
    stderr,
    workload_modules,
)
from repro.analysis.summary import FUNCTION_SORTS


def cmd_top(args: argparse.Namespace, out: Callable) -> int:
    """``repro top``: capture in a background thread, watch it live.

    A producer thread streams the capture through an OS pipe; the
    foreground analyzer folds it and redraws the hottest-functions table
    each closed window (or prints one final frame with ``--once`` / when
    stdout is not a TTY).
    """
    import os
    import threading

    from repro.live.analyzer import LiveAnalyzer
    from repro.live.capture import stream_capture
    from repro.live.top import TopView
    from repro.profiler.upload import CaptureFormatError
    from repro.workloads import get_workload

    spec = get_workload(args.workload)
    read_fd, write_fd = os.pipe()
    box: dict = {}
    ready = threading.Event()

    def _on_names(names) -> None:
        box["names"] = names
        ready.set()

    def _produce() -> None:
        sink = os.fdopen(write_fd, "wb")
        try:
            box["result"] = stream_capture(
                sink,
                spec,
                packets=args.packets,
                modules=workload_modules(args),
                info=stderr,
                on_names=_on_names,
            )
        except BaseException as exc:  # surfaced on the consumer side
            box["error"] = exc
        finally:
            ready.set()
            sink.close()

    producer = threading.Thread(target=_produce, name="live-capture", daemon=True)
    producer.start()
    ready.wait()
    if "names" not in box:
        os.close(read_fd)
        producer.join()
        raise box["error"]
    view = TopView(
        sort=args.sort,
        limit=args.limit,
        scope=args.scope,
        label=args.workload,
        once=args.once,
    )
    analyzer = LiveAnalyzer(
        box["names"], window_s=args.interval, on_window=view.update
    )
    source = os.fdopen(read_fd, "rb")
    try:
        analyzer.consume(source)
    except CaptureFormatError:
        # A stream cut mid-record: the producer's own error says why.
        producer.join()
        if "error" in box:
            raise box["error"] from None
        raise
    finally:
        source.close()
    producer.join()
    view.final()
    stderr(
        f"top: {analyzer.records_total} events over {analyzer.windows} "
        f"window(s), {view.frames} frame(s) drawn"
    )
    return 0


def arguments(top: argparse.ArgumentParser) -> None:
    top.description = (
        "Run a workload in a producer thread and watch the "
        "summary build: an ANSI-refreshing table of the hottest "
        "functions, redrawn each rolling window.  Non-TTY output (and "
        "--once) prints a single final frame instead."
    )
    add_workload_flags(top)
    top.add_argument("--sort", choices=FUNCTION_SORTS, default="net")
    top.add_argument(
        "--limit", type=non_negative_int, default=15,
        help="function rows per frame (default 15)",
    )
    top.add_argument(
        "--scope", choices=("cumulative", "window"), default="cumulative",
        help="rank the run so far (cumulative) or just the last window",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh window on the host clock (default 1.0)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="no live redraw: print one final frame (CI / pipes)",
    )
    top.set_defaults(func=cmd_top)
