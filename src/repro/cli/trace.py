"""``repro trace``: export capture traces for external viewers."""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Callable

from repro.cli.analyze import fold_file
from repro.cli.reports import defect_footer
from repro.instrument.namefile import NameTable


def cmd_trace_export(args: argparse.Namespace, out: Callable) -> int:
    """``repro trace export``: a capture as Chrome ``trace_event`` JSON.

    The paper's Figure 4 code-path trace in a form Perfetto and
    ``chrome://tracing`` open directly: one process track per
    reconstructed process (the ``swtch()`` split), interrupt frames on a
    dedicated track, inline marks as instant events.  The capture is
    folded once, as ``analyze`` folds it for a summary, and each call is
    written as the fold closes it; the file appears only when the whole
    capture has been read.
    """
    from repro.analysis.chrome_trace import ChromeTraceWriter
    from repro.analysis.columnar import INTERRUPT_FRAMES
    from repro.atomicio import open_atomic

    names = NameTable.read(*args.names)
    interrupt_names = (
        frozenset(
            name.strip() for name in args.interrupt_frames.split(",") if name.strip()
        )
        if args.interrupt_frames
        else INTERRUPT_FRAMES
    )
    label = f"cli: {args.capture}"
    output = args.output or str(Path(args.capture).with_suffix(".trace.json"))
    with open_atomic(output) as handle:
        writer = ChromeTraceWriter(handle, interrupt_names=interrupt_names, label=label)
        if args.salvage:
            from repro.analysis.summary import fold_capture
            from repro.profiler.capture import Capture

            capture = Capture.load(args.capture, names, label=label, salvage=True)
            fold = fold_capture(capture, recorder=writer)
        else:
            fold = fold_file(args, names, writer)
        events = writer.close(fold.close())
    if args.salvage:
        defect_footer(capture, args.capture, out)
    out(
        f"chrome trace written to {output}: "
        f"{events} event(s), "
        f"{len(fold.procs)} process track(s), "
        f"{fold.summary().wall_us} us of simulated time"
    )
    return 0


def arguments(trace: argparse.ArgumentParser) -> None:
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_export = trace_sub.add_parser(
        "export",
        help="render a capture as Chrome trace_event JSON (Perfetto)",
        description="Render a saved capture as a Chrome trace_event "
        "array: one process track per reconstructed process (the "
        "swtch() split), interrupt frames on a dedicated track, inline "
        "marks as instant events, and a closing trace_end event with the "
        "capture's accounting.  Open the output in "
        "https://ui.perfetto.dev or chrome://tracing.",
    )
    trace_export.add_argument("capture", help="capture file (from capture --save)")
    trace_export.add_argument(
        "--names", action="append", required=True,
        help="name/tag file(s) to decode with (repeatable, concatenated)",
    )
    trace_export.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="where to write the trace JSON (default: the capture path "
        "with a .trace.json suffix)",
    )
    trace_export.add_argument(
        "--interrupt-frames", default=None, metavar="NAMES",
        help="comma-separated frame names routed to the interrupts track "
        "(default: ISAINTR, the case-study dispatcher)",
    )
    trace_export.add_argument(
        "--salvage", action="store_true",
        help="decode fault-tolerantly and list tolerated defects",
    )
    trace_export.set_defaults(func=cmd_trace_export)
