"""``repro analyze``: the reports of a saved capture file.

With only summary and gprof reports the file is folded straight off the
disk (:func:`fold_file`) in O(chunk) memory, or, under ``--strict``,
read once by the stream verifier, whose fold then serves the reports; a
call-tree report (trace, folded, flame, timeline) or ``--salvage`` loads
the whole capture (:meth:`repro.profiler.capture.Capture.load`), and
only then is that module imported.
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING, Callable, Optional

from repro.__main__ import add_telemetry_flags, make_progress, non_negative_int
from repro.analysis.summary import fold_columns
from repro.cli.reports import (
    REPORTS,
    TREE_REPORTS,
    defect_footer,
    fold_capture_for,
    print_reports,
)
from repro.instrument.namefile import NameTable
from repro.profiler.upload import iter_capture_columns, read_capture_meta

if TYPE_CHECKING:
    from repro.analysis.summary import FoldRecorder, SummaryAccumulator
    from repro.profiler.upload import CaptureMeta


def warn_if_legacy(meta: CaptureMeta, path: str) -> None:
    """Warn, at the caller's caller, that an MPF1 file's metadata was
    defaulted (only then is :mod:`repro.profiler.capture` imported)."""
    if meta.version == 1:
        from repro.profiler.capture import warn_legacy_metadata

        warn_legacy_metadata(path)


def fold_file(
    args: argparse.Namespace, names: NameTable, recorder: Optional[FoldRecorder]
) -> SummaryAccumulator:
    """Fold the capture file straight off the disk, O(chunk) memory, at
    the counter width its header declares, with *recorder* attached and
    the ``--progress`` heartbeat counting batches as they land."""
    meta = read_capture_meta(args.capture)
    warn_if_legacy(meta, args.capture)
    # An open-ended capture's header count is a sentinel: no ETA.
    total = None if meta.streamed else meta.count or None
    progress = make_progress(args, total, label="analyze")

    def batches():
        try:
            for batch in iter_capture_columns(args.capture):
                yield batch
                progress.update(len(batch))
        finally:
            progress.finish()

    return fold_columns(
        batches(), names, width_bits=meta.counter_width_bits, recorder=recorder
    )


def cmd_analyze(args: argparse.Namespace, out: Callable) -> int:
    names = NameTable.read(*args.names)
    fold = None
    if args.strict:
        from repro.lint.runner import lint_and_fold_capture_file, render_text

        # Lint reads the header, so its fold's heartbeat starts with no total.
        progress = make_progress(args, None, label="analyze")
        try:
            lint_report, fold, meta = lint_and_fold_capture_file(
                args.capture, names, progress=progress.update
            )
        finally:
            progress.finish()
        out(render_text(lint_report))
        out("")
        if not lint_report.ok:
            out(
                f"strict: {lint_report.error_count} error(s) in "
                f"{args.capture}; refusing to analyze a corrupt stream"
            )
            return 1
    capture = None
    if args.salvage or not TREE_REPORTS.isdisjoint(args.report):
        from repro.profiler.capture import Capture

        capture = Capture.load(
            args.capture, names, label=f"cli: {args.capture}", salvage=args.salvage
        )
        fold = fold_capture_for(capture, args.report)
        events = len(capture)
    else:
        if fold is None:
            fold = fold_file(args, names, None)
        else:
            warn_if_legacy(meta, args.capture)
        events = fold.event_count
    out(f"loaded {events} events from {args.capture}")
    print_reports(
        args.report, args.summary_limit, out, fold=fold, capture=capture
    )
    if args.salvage:
        defect_footer(capture, args.capture, out)
    return 0


def arguments(analyze: argparse.ArgumentParser) -> None:
    analyze.add_argument("capture", help="capture file (from capture --save)")
    analyze.add_argument(
        "--names", action="append", required=True,
        help="name/tag file(s) to decode with (repeatable, concatenated)",
    )
    analyze.add_argument(
        "--report", action="append", choices=REPORTS, default=None
    )
    analyze.add_argument("--summary-limit", type=non_negative_int, default=12)
    decode_mode = analyze.add_mutually_exclusive_group()
    decode_mode.add_argument(
        "--strict", action="store_true",
        help="run the proflint stream verifier first; refuse to analyze "
        "(exit 1) if the capture has any error-severity diagnostic",
    )
    decode_mode.add_argument(
        "--salvage", action="store_true",
        help="decode fault-tolerantly: recover every intact record from a "
        "damaged file and list the tolerated defects in a report footer "
        "instead of refusing",
    )
    add_telemetry_flags(analyze)
    analyze.set_defaults(func=cmd_analyze)
