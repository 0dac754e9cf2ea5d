"""``repro capture``: the whole paper in one invocation.

Build the rig, arm the board, run the chosen workload, pull the RAMs,
and print the requested report(s).  ``repro capture doctor`` diagnoses
and repairs a damaged capture file.
"""

from __future__ import annotations

import argparse
from typing import Callable

from repro.__main__ import (
    add_telemetry_flags,
    add_workload_flags,
    non_negative_int,
    workload_modules,
)
from repro.cli.reports import REPORTS, fold_capture_for, print_reports


def cmd_capture(args: argparse.Namespace, out: Callable) -> int:
    from repro.atomicio import check_writable
    from repro.system import build_case_study
    from repro.workloads import get_workload

    spec = get_workload(args.workload)
    for path in (args.save, args.names):
        if path:
            check_writable(path)
    system = build_case_study(profiled_modules=workload_modules(args))
    out(
        f"built: {system.image.profiled_functions} profiled functions, "
        f"board depth {system.board.ram.depth}"
    )
    capture = system.profile(
        lambda: spec.run_packets(system, args.packets),
        label=f"cli: {args.workload}",
    )
    out(
        f"captured {len(capture)} events"
        + (" (RAM overflowed)" if capture.overflowed else "")
    )
    if args.save:
        capture.save(args.save)
        out(f"raw records written to {args.save}")
    if args.names:
        system.names.write(args.names)
        out(f"name/tag file written to {args.names}")
    print_reports(
        args.report,
        args.summary_limit,
        out,
        fold=fold_capture_for(capture, args.report),
        capture=capture,
        desyncs=system.kernel.stats.get("kstack_desync", 0),
    )
    return 0


def cmd_doctor(args: argparse.Namespace, out: Callable) -> int:
    """``repro capture doctor``: diagnose and repair a damaged capture.

    Exit codes: 0 — file is clean; 1 — defects found but records were
    recovered (and rewritten if ``-o`` was given); 2 — the file is not
    recognisably a capture (nothing recoverable).
    """
    from repro.atomicio import check_writable
    from repro.lint.stream_lint import lint_capture_defects
    from repro.profiler.upload import salvage_capture, write_capture_file

    if args.output:
        check_writable(args.output)
    source = str(args.file)
    try:
        result = salvage_capture(args.file)
    except OSError as exc:
        out(f"doctor: cannot read {source}: {exc}")
        return 2
    report = lint_capture_defects(
        result.defects, source=source, streamed=result.meta.streamed
    )
    if result.meta.version == 1:
        report.add(
            "P208",
            "MPF1 carries no capture metadata: counter width/rate, overflow "
            "flag and label assumed stock — rewrite with -o to upgrade",
            source=source,
        )
    for diagnostic in report:
        out(diagnostic.format())
    version = f"MPF{result.meta.version}" if result.meta.version else "unknown format"
    out(
        f"doctor: {len(result.defects)} defect(s); {len(result.records)} "
        f"record(s) recovered ({version})"
    )
    if result.meta.version == 0:
        return 2
    if args.output:
        meta = result.meta
        write_capture_file(
            args.output,
            result.records,
            counter_width_bits=meta.counter_width_bits,
            counter_rate_hz=meta.counter_rate_hz,
            overflowed=meta.overflowed,
            label=meta.label,
        )
        out(f"repaired MPF2 capture written to {args.output}")
    return 1 if result.defects else 0


def arguments(capture: argparse.ArgumentParser) -> None:
    add_workload_flags(capture)
    capture.add_argument(
        "--report", action="append", choices=REPORTS, default=None,
        help="report(s) to print (default: summary; repeatable)",
    )
    capture.add_argument("--summary-limit", type=non_negative_int, default=12)
    capture.add_argument("--save", default=None, help="write raw records here")
    capture.add_argument("--names", default=None, help="write the name/tag file here")
    add_telemetry_flags(capture)
    capture.set_defaults(func=cmd_capture)

    capture_sub = capture.add_subparsers(dest="capture_command")
    doctor = capture_sub.add_parser(
        "doctor",
        help="diagnose (and optionally repair) a damaged capture file",
        description="Run the salvaging decoder over a capture file: report "
        "every tolerated defect (truncation, bit flips, header lies) as a "
        "P2xx diagnostic and, with -o, rewrite the recovered records as a "
        "clean MPF2 file.  Exit codes: 0 clean, 1 defects but records "
        "recovered, 2 not recognisably a capture.",
    )
    doctor.add_argument("file", help="capture file to examine")
    doctor.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="rewrite the recovered records as a clean MPF2 capture here",
    )
    doctor.set_defaults(func=cmd_doctor)
