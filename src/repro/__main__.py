"""Command-line interface: run captures and analyses from a shell.

Usage examples::

    python -m repro capture --workload network --packets 40 --report summary
    python -m repro capture --workload forkexec --report gprof --save run.mpf \
        --names run.tags
    python -m repro analyze run.mpf --names run.tags --report trace
    python -m repro analyze run.mpf --names run.tags --strict
    python -m repro analyze damaged.mpf --names run.tags --salvage
    python -m repro analyze big.mpf --names run.tags --progress \
        --telemetry run.analyze.jsonl
    python -m repro capture doctor damaged.mpf -o repaired.mpf
    python -m repro fleet ingest captures/ --names run.tags --jobs 4 --salvage
    python -m repro fleet serve inbox/ --names run.tags --jobs 2 --poll 2
    python -m repro trace export run.mpf --names run.tags -o run.trace.json
    python -m repro db ingest captures/ --db corpus.db --names run.tags
    python -m repro db query --db corpus.db --function 'vm_*' --sort net
    python -m repro db diff baseline-label candidate-label --db corpus.db
    python -m repro db check --db corpus.db
    python -m repro lint run.mpf --names run.tags --json
    python -m repro lint --kernel-ast
    python -m repro workloads

The capture command is the whole paper in one invocation: build the rig,
arm the board, run the chosen workload, pull the RAMs, and print the
requested report(s).

Observability: ``--telemetry PATH``, on every command that takes it,
enables the self-telemetry singleton for the run and writes the snapshot
to PATH on the way out (format inferred from the extension);
``--progress`` adds a records/sec + ETA heartbeat on stderr while
``analyze`` folds a capture file.  Neither writes a byte to stdout, so
report output is identical with or without them.

The summary and gprof reports are the columnar fold
(:func:`repro.analysis.summary.fold_columns`): it adds up caller->callee
arcs, the summary is their per-function merge and gprof is assembled
from them (:func:`repro.analysis.gprof.gprof_from_fold`), so one fold
with no recorder serves both.  ``analyze`` runs it straight off the file
in O(chunk) memory unless a call-tree report (trace, folded, flame,
timeline) or ``--salvage`` needs the whole capture in memory; the call
tree is a recording of the same fold, so a summary or gprof printed
beside a tree report is read off the tree's fold.
``trace export`` folds the file the same way, with the Chrome-trace
writer (:class:`repro.analysis.chrome_trace.ChromeTraceWriter`) as the
recorder, and ``live analyze --trace-out`` records its fold with it.
Only the parser and that fold are imported with this module; every
command imports the rest of what it uses when it runs.

Bad input (a missing, empty, corrupt or truncated capture, a missing
or malformed name file, an unknown workload or run selector, an
unusable database or corpus root) fails with one line on stderr,
``repro: error: <message>``, and exit status 2; :func:`main` is the one
place that turns an error into that line.  Commands whose exit code is
a verdict (``lint``, ``capture doctor``, ``db diff``, ``db check``,
``fleet ingest``, ``coverage``) keep their documented codes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.analysis.gprof import gprof_from_fold
from repro.analysis.summary import (
    FUNCTION_SORTS,
    Anomaly,
    FoldRecorder,
    SummaryAccumulator,
    fold_capture,
    fold_columns,
)
from repro.instrument.namefile import NameTable
from repro.profiler.capture import Capture, warn_legacy_metadata
from repro.profiler.ram import DEFAULT_DEPTH
from repro.profiler.upload import iter_capture_columns, read_capture_meta
from repro.telemetry import TELEMETRY
from repro.telemetry.progress import ProgressReporter

REPORTS = ("summary", "trace", "gprof", "folded", "flame", "timeline")
#: Reports that walk the call tree; summary and gprof come from the fold.
TREE_REPORTS = frozenset(("trace", "folded", "flame", "timeline"))


def _desync_footer(desyncs: int) -> str:
    """The kstack-desync line appended to every summary report.

    Zero is the healthy reading; anything else means the capture's
    entry/exit stream disagreed with the kernel's shadow stack and the
    per-function times above it are suspect.
    """
    note = "" if desyncs == 0 else "  <- per-function times are suspect"
    return f"kstack desyncs = {desyncs}{note}"


def _desync_count(anomalies: Sequence[Anomaly]) -> int:
    """The capture-side kstack-desync signature: exits that missed or
    mismatched a frame (no live kernel to ask on the analyze path)."""
    return sum(
        1
        for anomaly in anomalies
        if anomaly.kind in ("missed-exit", "unmatched-exit")
    )


def _fold_capture_for(
    capture: Capture, reports: Sequence[str]
) -> Optional[SummaryAccumulator]:
    """Fold an in-memory *capture* once for the summary and gprof
    *reports*, or ``None`` when a call-tree report folds it instead."""
    return fold_capture(capture) if TREE_REPORTS.isdisjoint(reports) else None


def _print_reports(
    reports: Sequence[str],
    summary_limit: int,
    out: Callable,
    *,
    fold: Optional[SummaryAccumulator],
    capture: Optional[Capture],
    desyncs: Optional[int] = None,
) -> None:
    """Print *reports* in order.  With a call-tree report the tree is
    built once from *capture*, and its fold serves the summary and gprof;
    otherwise they come from *fold*."""
    analysis = None
    if not TREE_REPORTS.isdisjoint(reports):
        from repro.analysis.callstack import analyze_capture

        analysis = analyze_capture(capture)
        fold = analysis.fold
    for report in reports:
        if report == "summary":
            out(fold.summary().format(limit=summary_limit))
            if desyncs is None:
                desyncs = _desync_count(fold.anomalies)
            out(_desync_footer(desyncs))
        elif report == "trace":
            from repro.analysis.trace import format_trace

            out(format_trace(analysis))
        elif report == "gprof":
            out(gprof_from_fold(fold).format(limit=summary_limit))
        elif report == "folded":
            from repro.analysis.folded import to_folded

            out(to_folded(analysis))
        elif report == "flame":
            from repro.analysis.folded import flame_ascii

            out(flame_ascii(analysis))
        elif report == "timeline":
            from repro.analysis.timeline import render_timeline

            out(render_timeline(analysis))
        out("")


def _telemetry_begin(path: str) -> None:
    """Enable the telemetry singleton for this run (``--telemetry PATH``).

    The output format is validated *before* the run, so a typo'd
    extension fails in milliseconds instead of after a long analysis.
    """
    from repro.telemetry.export import infer_format

    infer_format(path)
    TELEMETRY.reset()
    TELEMETRY.enable()


def _telemetry_end(path: str) -> None:
    """Write the telemetry snapshot and disable the singleton again.

    The confirmation line goes to stderr: report bytes on stdout must be
    identical with and without ``--telemetry``.
    """
    from repro.telemetry.export import write_telemetry

    try:
        fmt = write_telemetry(path, TELEMETRY)
    finally:
        TELEMETRY.disable()
    print(f"telemetry ({fmt}) written to {path}", file=sys.stderr)


def _make_progress(
    args: argparse.Namespace, total: Optional[int], label: str
) -> ProgressReporter:
    """A heartbeat honouring ``--progress`` / ``--progress=force``."""
    mode = getattr(args, "progress", "off") or "off"
    return ProgressReporter(total, label=label, mode=mode)


def _stderr(line: str) -> None:
    print(line, file=sys.stderr)


def _modules(args: argparse.Namespace) -> Optional[list[str]]:
    """The ``--modules`` prefixes to micro-profile (``None``: all)."""
    return args.modules.split(",") if args.modules else None


def cmd_capture(args: argparse.Namespace, out: Callable) -> int:
    from repro.system import build_case_study
    from repro.workloads import get_workload

    spec = get_workload(args.workload)
    system = build_case_study(profiled_modules=_modules(args))
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
    _print_reports(
        args.report,
        args.summary_limit,
        out,
        fold=_fold_capture_for(capture, args.report),
        capture=capture,
        desyncs=system.kernel.stats.get("kstack_desync", 0),
    )
    return 0


def _defect_footer(capture: Capture, source: str, out: Callable) -> None:
    """The salvage footer appended below every ``analyze --salvage`` report."""
    if capture.defects:
        out(f"salvage: {len(capture.defects)} defect(s) tolerated in {source}:")
        for defect in capture.defects:
            out(f"  [{defect.kind}] {defect.message}")
    else:
        out(f"salvage: no defects found in {source}")


def _fold_file(
    args: argparse.Namespace, names: NameTable, recorder: Optional[FoldRecorder]
) -> SummaryAccumulator:
    """Fold the capture file straight off the disk, O(chunk) memory, at
    the counter width its header declares, with *recorder* attached and
    the ``--progress`` heartbeat counting batches as they land."""
    meta = read_capture_meta(args.capture)
    if meta.version == 1:
        warn_legacy_metadata(args.capture)
    # An open-ended capture's header count is a sentinel: no ETA.
    total = None if meta.streamed else meta.count or None
    progress = _make_progress(args, total, label="analyze")

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
    if args.strict:
        from repro.lint.runner import lint_capture_file, render_text

        lint_report = lint_capture_file(args.capture, names)
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
        capture = Capture.load(
            args.capture, names, label=f"cli: {args.capture}", salvage=args.salvage
        )
        fold = _fold_capture_for(capture, args.report)
        events = len(capture)
    else:
        fold = _fold_file(args, names, None)
        events = fold.event_count
    out(f"loaded {events} events from {args.capture}")
    _print_reports(
        args.report, args.summary_limit, out, fold=fold, capture=capture
    )
    if args.salvage:
        _defect_footer(capture, args.capture, out)
    return 0


def cmd_doctor(args: argparse.Namespace, out: Callable) -> int:
    """``repro capture doctor``: diagnose and repair a damaged capture.

    Exit codes: 0 — file is clean; 1 — defects found but records were
    recovered (and rewritten if ``-o`` was given); 2 — the file is not
    recognisably a capture (nothing recoverable).
    """
    from repro.lint.stream_lint import lint_capture_defects
    from repro.profiler.upload import salvage_capture, write_capture_file

    source = str(args.file)
    try:
        result = salvage_capture(args.file)
    except OSError as exc:
        out(f"doctor: cannot read {source}: {exc}")
        return 2
    report = lint_capture_defects(result.defects, source=source)
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


def cmd_lint(args: argparse.Namespace, out: Callable) -> int:
    from repro.lint.runner import LintOptions, lint_paths, render_json, render_text

    if args.captures and not args.names:
        raise ValueError("capture files need at least one --names file to decode with")
    if args.coverage_corpus and not args.names:
        raise ValueError("--coverage-corpus needs at least one --names file")
    explicit = bool(
        args.captures or args.names or args.kernel_ast
        or args.coverage_corpus or args.db
    )
    options = LintOptions(
        captures=args.captures,
        names=args.names or (),
        ram_depth=args.ram_depth or None,
        kernel_ast=args.kernel_ast,
        self_check=args.self_check or not explicit,
        coverage_corpus=args.coverage_corpus,
        db=args.db,
    )
    report = lint_paths(options)
    out(render_json(report) if args.json else render_text(report))
    return report.exit_code


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
            capture = Capture.load(args.capture, names, label=label, salvage=True)
            fold = fold_capture(capture, recorder=writer)
        else:
            fold = _fold_file(args, names, writer)
        events = writer.close(fold.close())
    if args.salvage:
        _defect_footer(capture, args.capture, out)
    out(
        f"chrome trace written to {output}: "
        f"{events} event(s), "
        f"{len(fold.procs)} process track(s), "
        f"{fold.summary().wall_us} us of simulated time"
    )
    return 0


def cmd_fleet_ingest(args: argparse.Namespace, out: Callable) -> int:
    """``repro fleet ingest DIR``: one-shot parallel corpus ingestion.

    Exit codes: 0 — every capture ingested; 1 — at least one capture
    failed (the rest still merged); 2 — the root is unusable or the
    plan is empty.  Everything on stdout is deterministic — worker
    counts, rates and timing go to stderr — so two runs with different
    ``--jobs`` diff clean, which is exactly what the CI smoke job does.
    """
    import contextlib

    from repro.atomicio import open_atomic
    from repro.fleet.ingest import (
        FleetError,
        format_fleet_summary,
        ingest_fleet,
        plan_fleet,
    )
    from repro.lint.diagnostics import LintReport
    from repro.lint.fleet_lint import lint_fleet_plan, lint_fleet_result
    from repro.lint.runner import render_text

    names = NameTable.read(*args.names)
    try:
        plan = plan_fleet(args.root)
    except FleetError as exc:
        report = LintReport()
        report.add("P506", str(exc), source=str(args.root))
        out(render_text(report))
        return 2
    plan_report = lint_fleet_plan(plan)
    for diagnostic in plan_report:
        out(diagnostic.format())
    if not len(plan):
        return 2
    # Opened before the ingest, so a manifest path that cannot be written
    # fails before any work; the file appears when the block ends.
    target = open_atomic(args.manifest) if args.manifest else contextlib.nullcontext()
    with target as manifest:
        progress = _make_progress(args, len(plan), label="fleet")
        try:
            result = ingest_fleet(
                plan,
                names,
                jobs=args.jobs,
                salvage=args.salvage,
                progress=progress.update,
            )
        finally:
            progress.finish()
        result_report = lint_fleet_result(result)
        for diagnostic in result_report:
            out(diagnostic.format())
        out(format_fleet_summary(result, limit=args.summary_limit))
        if manifest is not None:
            manifest.write(json.dumps(result.manifest(timings=args.timings), indent=1))
            manifest.write("\n")
    if args.manifest:
        # Stderr, like every operational line: stdout stays a pure
        # function of the corpus so --jobs runs diff byte-clean.
        print(f"manifest written to {args.manifest}", file=sys.stderr)
    rate = (
        f", {len(plan) / result.elapsed_s:.1f} captures/s"
        if result.elapsed_s > 0
        else ""
    )
    print(
        f"fleet ingest: {result.jobs} worker(s), "
        f"{result.elapsed_s:.2f}s{rate}",
        file=sys.stderr,
    )
    return 1 if result.failed else 0


def cmd_fleet_serve(args: argparse.Namespace, out: Callable) -> int:
    """``repro fleet serve DIR``: watch an inbox, publish /metrics.

    Runs until SIGINT/SIGTERM (or ``--max-polls``); on the way out the
    in-flight capture drains, the final merged summary prints to
    stdout, and the exit code is 0.
    """
    from repro.fleet.serve import FleetServer

    server = FleetServer(
        args.root,
        NameTable.read(*args.names),
        jobs=args.jobs,
        salvage=args.salvage,
        port=args.port,
        poll_s=args.poll,
        max_polls=args.max_polls,
        log=_stderr,
    )
    code = server.run()
    out(server.final_summary(limit=args.summary_limit))
    return code


def _coverage_report(args: argparse.Namespace):
    """Shared scan+cross for the coverage report/blindspots commands:
    ``(report, graph)``."""
    from repro.coverage.callgraph import build_call_graph
    from repro.coverage.corpus import scan_corpus
    from repro.coverage.report import build_coverage_report

    names = NameTable.read(*args.names)
    corpus = scan_corpus(args.root, names, jobs=args.jobs)
    graph = build_call_graph()
    return build_coverage_report(corpus, names, graph=graph), graph


def cmd_coverage_report(args: argparse.Namespace, out: Callable) -> int:
    """``repro coverage report DIR``: the full coverage cross.

    Exit codes: 0 — accounting complete (blind spots and dead
    instrumentation are warnings); 1 — error-severity findings (P604
    namefile/source disagreement, P605 unusable captures); 2 — the
    corpus root is unusable.
    """
    from repro.coverage.report import (
        coverage_diagnostics,
        render_coverage_json,
        render_coverage_text,
    )

    report, graph = _coverage_report(args)
    out(render_coverage_json(report) if args.json
        else render_coverage_text(report))
    return coverage_diagnostics(report, graph=graph).exit_code


def cmd_coverage_blindspots(args: argparse.Namespace, out: Callable) -> int:
    """``repro coverage blindspots DIR``: uncovered-but-reachable, with hints."""
    from repro.coverage.report import (
        coverage_diagnostics,
        render_blindspots_text,
        render_coverage_json,
    )

    report, graph = _coverage_report(args)
    out(render_coverage_json(report) if args.json
        else render_blindspots_text(report))
    return coverage_diagnostics(report, graph=graph).exit_code


def cmd_coverage_hunt(args: argparse.Namespace, out: Callable) -> int:
    """``repro coverage hunt DIR``: coverage-guided workload search.

    Seeds the greedy driver with the corpus's observed-tag union and
    perturbs workload parameters toward new tags.  Deterministic for a
    fixed ``--seed``.  Exit codes: 0 — coverage increased (or the
    corpus already observes every reachable tag); 1 — no candidate
    found a new tag; 2 — the corpus root is unusable.
    """
    from repro.coverage.callgraph import build_call_graph
    from repro.coverage.corpus import scan_corpus
    from repro.coverage.hunt import hunt_coverage, render_hunt_json, render_hunt_text

    names = NameTable.read(*args.names)
    baseline = scan_corpus(args.root, names, jobs=args.jobs).observed_union()
    result = hunt_coverage(
        baseline,
        seed=args.seed,
        rounds=args.rounds,
        candidates=args.candidates,
        log=_stderr if args.verbose else None,
    )
    out(render_hunt_json(result) if args.json else render_hunt_text(result))
    if result.improved:
        return 0
    reachable = build_call_graph().reachable_tags()
    return 0 if reachable <= baseline else 1


def cmd_db_ingest(args: argparse.Namespace, out: Callable) -> int:
    """``repro db ingest PATH...``: decode captures into the corpus db.

    Exit codes: 0 — every capture ingested (or already present);
    1 — at least one capture failed (the rest still landed); 2 — no
    captures found or the database is unusable.
    """
    from repro.db.ingest import ingest_paths
    from repro.db.query import run_count
    from repro.db.schema import connect

    names = NameTable.read(*args.names)
    conn = connect(args.db)
    try:
        results = ingest_paths(
            conn,
            args.paths,
            names,
            salvage=args.salvage,
            workload=args.workload,
        )
        for result in results:
            if result.status == "failed":
                out(f"failed    {result.path}: {result.error}")
            elif result.status == "duplicate":
                out(f"duplicate {result.path} ({result.fingerprint[:12]})")
            else:
                out(
                    f"{result.status:<9} {result.path} "
                    f"({result.fingerprint[:12]}) {result.workload}: "
                    f"{result.functions} function(s), "
                    f"{result.records} event(s)"
                )
        added = sum(r.status in ("added", "salvaged") for r in results)
        duplicates = sum(r.status == "duplicate" for r in results)
        failed = sum(r.status == "failed" for r in results)
        out(
            f"db ingest: {added} added, {duplicates} duplicate(s), "
            f"{failed} failed; {run_count(conn)} run(s) in {args.db}"
        )
        return 1 if failed else 0
    finally:
        conn.close()


def cmd_db_runs(args: argparse.Namespace, out: Callable) -> int:
    """``repro db runs``: the run catalog (the thing diff selectors name)."""
    from repro.db.query import list_runs
    from repro.db.render import render_runs_json, render_runs_text
    from repro.db.schema import connect

    conn = connect(args.db, read_only=True)
    try:
        runs = list_runs(conn, workload=args.workload, label=args.label)
    finally:
        conn.close()
    out(render_runs_json(runs) if args.json else render_runs_text(runs))
    return 0


def cmd_db_query(args: argparse.Namespace, out: Callable) -> int:
    """``repro db query``: filter/sort per-function rows across the corpus."""
    from repro.db.query import query_functions
    from repro.db.render import render_query_json, render_query_text
    from repro.db.schema import connect

    conn = connect(args.db, read_only=True)
    try:
        rows = query_functions(
            conn,
            workload=args.workload,
            label=args.label,
            function=args.function,
            min_pct_net=args.min_pct_net,
            sort=args.sort,
            limit=args.limit,
        )
    finally:
        conn.close()
    out(render_query_json(rows) if args.json else render_query_text(rows))
    return 0


def cmd_db_diff(args: argparse.Namespace, out: Callable) -> int:
    """``repro db diff BASELINE CANDIDATE``: the regression gate.

    Exit codes: 0 — no movement beyond noise; 1 — meaningful but benign
    movement; 2 — a confirmed regression (or unusable selectors/db).
    """
    import warnings as _warnings

    from repro.db.diff import DiffThresholds, diff_runs
    from repro.db.render import render_diff_json, render_diff_text
    from repro.db.schema import connect

    baseline = args.baseline
    if args.baseline_label:
        if args.candidate is not None:
            raise ValueError(
                "db diff: give either BASELINE CANDIDATE positionally "
                "or --baseline-label, not both"
            )
        baseline, candidate = f"label:{args.baseline_label}", args.baseline
    else:
        candidate = args.candidate
    if baseline is None or candidate is None:
        raise ValueError("db diff: need a baseline and a candidate selector")
    thresholds = DiffThresholds(
        sigma=args.sigma,
        min_rel=args.min_rel,
        singleton_rel=args.singleton_rel,
        min_abs_us=args.min_abs_us,
    )
    conn = connect(args.db, read_only=True)
    try:
        with _warnings.catch_warnings():
            # The mismatch is reported in the rendering itself.
            _warnings.simplefilter("ignore")
            report = diff_runs(conn, baseline, candidate, thresholds=thresholds)
    finally:
        conn.close()
    if args.json:
        out(render_diff_json(report, limit=args.limit))
    else:
        out(render_diff_text(report, limit=10 if args.limit is None else args.limit))
    return report.exit_code


def cmd_db_check(args: argparse.Namespace, out: Callable) -> int:
    """``repro db check``: the P7xx integrity pass over one database."""
    from repro.lint.db_lint import lint_profile_db
    from repro.lint.runner import render_json, render_text

    report = lint_profile_db(args.db)
    out(render_json(report) if args.json else render_text(report))
    return report.exit_code


def cmd_workloads(args: argparse.Namespace, out: Callable) -> int:
    """``repro workloads``: the machine-readable workload registry.

    Text mode prints each workload with its parameter schema (name,
    default, range); ``--json`` emits the stable machine-readable form
    the hunt driver and fleet labelling consume.
    """
    from repro.workloads import format_registry, registry_json

    if getattr(args, "json", False):
        out(json.dumps(registry_json(), indent=1))
    else:
        out(format_registry())
    return 0


def cmd_live_capture(args: argparse.Namespace, out: Callable) -> int:
    """``repro live capture``: stream an open-ended MPF2 capture to a wire.

    The record stream (header, flushed chunks, trailer) goes to stdout
    by default — pipe it straight into ``repro live analyze`` — and every
    human-oriented line goes to stderr, so the wire stays pure.
    """
    from repro.live.capture import stream_capture
    from repro.workloads import get_workload

    spec = get_workload(args.workload)
    sink = sys.stdout.buffer if args.out == "-" else open(args.out, "wb")
    try:
        result = stream_capture(
            sink,
            spec,
            packets=args.packets,
            modules=_modules(args),
            chunk_records=args.chunk_records,
            names_out=args.names,
            info=_stderr,
        )
    finally:
        if sink is not sys.stdout.buffer:
            sink.close()
        else:
            sink.flush()
    _stderr(_desync_footer(result.desyncs))
    return 0


def cmd_live_analyze(args: argparse.Namespace, out: Callable) -> int:
    """``repro live analyze``: fold an MPF2 wire stream as it arrives.

    Stdout carries exactly the drained summary report (so CI can diff it
    against ``analyze`` of the same file); window lines, the metrics URL
    and all other narration go to stderr.
    """
    from repro.live.analyzer import LiveAnalyzer

    # The name/tag table travels out of band and the producer only
    # writes it (atomically) once its capture finishes, so an analyzer
    # started first — the normal shape of `capture | analyze` — waits
    # for it to appear instead of racing it.
    import time as _time

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
            _stderr(
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
            _stderr(f"live metrics at http://127.0.0.1:{server.port}/metrics")
        source = sys.stdin.buffer if args.source == "-" else args.source
        summary = analyzer.consume(source)
        _stderr(
            f"live: drained {analyzer.records_total} events in "
            f"{analyzer.batches} batch(es) over {analyzer.windows} window(s)"
        )
        if trace is not None:
            _stderr(f"live trace written to {args.trace_out}")
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
                modules=_modules(args),
                info=_stderr,
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
    _stderr(
        f"top: {analyzer.records_total} events over {analyzer.windows} "
        f"window(s), {view.frames} frame(s) drawn"
    )
    return 0


def positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """An argparse type: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _add_workload_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload", default="network",
        help="workload to run (default network; 'repro workloads' lists them)",
    )
    parser.add_argument(
        "--packets", type=int, default=30,
        help="workload size knob (packets/iterations/KB; default 30)",
    )
    parser.add_argument(
        "--modules", default=None,
        help="comma-separated module prefixes to micro-profile (default: all)",
    )


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="enable self-telemetry for the run and write the snapshot "
        "here on exit; format inferred from the extension "
        "(.jsonl/.ndjson JSON lines, .prom/.txt Prometheus, "
        ".json/.trace Chrome trace_event)",
    )
    parser.add_argument(
        "--progress", nargs="?", const="auto", default="off",
        choices=("auto", "force", "off"), metavar="MODE",
        help="records/sec + ETA heartbeat on stderr for long "
        "runs; bare --progress is active only when stderr is a TTY, "
        "--progress=force always emits",
    )


def _capture_arguments(capture: argparse.ArgumentParser) -> None:
    _add_workload_flags(capture)
    capture.add_argument(
        "--report", action="append", choices=REPORTS, default=None,
        help="report(s) to print (default: summary; repeatable)",
    )
    capture.add_argument("--summary-limit", type=non_negative_int, default=12)
    capture.add_argument("--save", default=None, help="write raw records here")
    capture.add_argument("--names", default=None, help="write the name/tag file here")
    _add_telemetry_flags(capture)
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


def _analyze_arguments(analyze: argparse.ArgumentParser) -> None:
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
    _add_telemetry_flags(analyze)
    analyze.set_defaults(func=cmd_analyze)


def _trace_arguments(trace: argparse.ArgumentParser) -> None:
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


def _lint_arguments(lint: argparse.ArgumentParser) -> None:
    lint.description = (
        "Static verification of the profiling chain — no "
        "workload runs.  With no arguments, performs the self-check: "
        "build the case-study image, then lint its name table, the "
        "kernel source discipline, and the _ProfileBase link."
    )
    lint.add_argument(
        "captures", nargs="*",
        help="capture file(s) for the stream verifier (needs --names)",
    )
    lint.add_argument(
        "--names", action="append", default=None,
        help="name/tag file(s): linted themselves and used to decode "
        "captures (repeatable, checked as a concatenation)",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="emit the JSON report (stable schema) instead of text",
    )
    lint.add_argument(
        "--ram-depth", type=int, default=DEFAULT_DEPTH, metavar="N",
        help=f"trace-RAM depth for the overflow check (default "
        f"{DEFAULT_DEPTH}; 0 disables)",
    )
    lint.add_argument(
        "--kernel-ast", action="store_true",
        help="lint kernel sources for enter/leave and spl discipline",
    )
    lint.add_argument(
        "--self-check", action="store_true",
        help="lint the shipped case-study configuration (default when "
        "no other artifacts are given)",
    )
    lint.add_argument(
        "--coverage-corpus", default=None, metavar="DIR",
        help="run the profile-coverage pass (P6xx) over a directory of "
        "capture files (needs --names)",
    )
    lint.add_argument(
        "--db", default=None, metavar="FILE",
        help="run the profile-database integrity pass (P7xx) over a "
        "corpus database file",
    )
    lint.set_defaults(func=cmd_lint)


def _fleet_arguments(fleet: argparse.ArgumentParser) -> None:
    fleet.description = (
        "Fleet-scale ingestion: decode and summarise every "
        "capture under a directory on a multiprocessing worker pool, "
        "merge the results deterministically, and record each "
        "capture's metrics in the telemetry registry."
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    def _fleet_common(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument("root", help="directory of capture files")
        sub_parser.add_argument(
            "--names", action="append", required=True,
            help="name/tag file(s) to decode with (repeatable, concatenated)",
        )
        sub_parser.add_argument(
            "--jobs", type=int, default=None, metavar="N",
            help="worker processes (default: the machine's CPU count)",
        )
        sub_parser.add_argument(
            "--salvage", action="store_true",
            help="route damaged captures through the salvaging decoder "
            "instead of failing them",
        )
        sub_parser.add_argument("--summary-limit", type=non_negative_int, default=12)

    fleet_ingest = fleet_sub.add_parser(
        "ingest",
        help="one-shot: ingest every capture under DIR and print the "
        "merged summary",
        description="Plan the corpus (path-sorted, header-probed through "
        "the (path, mtime, size) cache), decode each capture on the "
        "columnar path across --jobs workers, and fold the per-capture "
        "summaries in plan order — the merged report is byte-identical "
        "for every worker count.  Exit codes: 0 all ingested, 1 some "
        "captures failed, 2 unusable root or empty plan.",
    )
    _fleet_common(fleet_ingest)
    fleet_ingest.add_argument(
        "--manifest", default=None, metavar="FILE",
        help="write the per-capture JSON manifest here",
    )
    fleet_ingest.add_argument(
        "--timings", action="store_true",
        help="include per-capture worker wall time in the manifest "
        "(nondeterministic; off by default so manifests diff clean)",
    )
    _add_telemetry_flags(fleet_ingest)
    fleet_ingest.set_defaults(func=cmd_fleet_ingest)

    fleet_serve = fleet_sub.add_parser(
        "serve",
        help="long-running: watch DIR as an inbox and publish Prometheus "
        "metrics over HTTP",
        description="Poll DIR for new or changed capture files, ingest "
        "them as they appear, and serve the fleet metrics at "
        "http://127.0.0.1:PORT/metrics.  SIGINT/SIGTERM drains the "
        "in-flight capture, prints the final merged summary to stdout "
        "and exits 0.",
    )
    _fleet_common(fleet_serve)
    fleet_serve.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="metrics HTTP port (default 0: pick an ephemeral port and "
        "print it to stderr)",
    )
    fleet_serve.add_argument(
        "--poll", type=float, default=1.0, metavar="SECONDS",
        help="seconds between inbox rescans (default 1.0)",
    )
    fleet_serve.add_argument(
        "--max-polls", type=int, default=None, metavar="N",
        help="exit after N polls (CI smoke runs; default: run until "
        "signalled)",
    )
    fleet_serve.set_defaults(func=cmd_fleet_serve)


def _coverage_arguments(coverage: argparse.ArgumentParser) -> None:
    coverage.description = (
        "Cross the static call graph of the instrumented "
        "kernel (syscall/interrupt/scheduler/harness roots) with the "
        "observed-tag sets of a capture corpus: coverage percentages per "
        "workload, blind spots with suggested workloads, dead "
        "instrumentation, and a coverage-guided workload hunter."
    )
    coverage_sub = coverage.add_subparsers(dest="coverage_command", required=True)

    def _coverage_common(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument("root", help="directory of capture files")
        sub_parser.add_argument(
            "--names", action="append", required=True,
            help="name/tag file(s) to decode with (repeatable, concatenated)",
        )
        sub_parser.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes for the corpus scan (default 1; the "
            "report is byte-identical for every worker count)",
        )
        sub_parser.add_argument(
            "--json", action="store_true",
            help="emit the JSON report (stable schema) instead of text",
        )

    coverage_report = coverage_sub.add_parser(
        "report",
        help="the full coverage cross over a capture corpus",
        description="Classify every instrumented function exactly once — "
        "covered, blind spot (reachable but never observed), or dead "
        "(statically unreachable) — and break coverage down per "
        "workload.  Exit codes: 0 accounting complete, 1 error-severity "
        "findings (P604/P605), 2 unusable corpus root.",
    )
    _coverage_common(coverage_report)
    _add_telemetry_flags(coverage_report)
    coverage_report.set_defaults(func=cmd_coverage_report)

    coverage_blind = coverage_sub.add_parser(
        "blindspots",
        help="reachable-but-never-observed functions, with workload hints",
        description="The blind-spot walkthrough: every reachable "
        "instrumented function the corpus never observed, grouped by "
        "subsystem, each with the workload whose observed tags sit "
        "closest in the call graph.  Exit codes as for 'report'.",
    )
    _coverage_common(coverage_blind)
    coverage_blind.set_defaults(func=cmd_coverage_blindspots)

    coverage_hunt = coverage_sub.add_parser(
        "hunt",
        help="coverage-guided workload search over the registry",
        description="Seeded greedy driver: each round draws candidate "
        "workload configurations (fresh samples plus perturbations of "
        "the best so far), runs each on a fresh simulated system, and "
        "keeps the one observing the most tags beyond the corpus "
        "baseline.  Deterministic for a fixed --seed.  Exit codes: "
        "0 coverage increased (or already full), 1 no improvement, "
        "2 unusable corpus root.",
    )
    _coverage_common(coverage_hunt)
    coverage_hunt.add_argument(
        "--seed", type=int, default=0,
        help="PRNG seed for the candidate draws (default 0)",
    )
    coverage_hunt.add_argument(
        "--rounds", type=positive_int, default=2,
        help="greedy rounds (default 2)",
    )
    coverage_hunt.add_argument(
        "--candidates", type=positive_int, default=4,
        help="candidate configurations per round (default 4)",
    )
    coverage_hunt.add_argument(
        "--verbose", action="store_true",
        help="log every candidate evaluation to stderr",
    )
    _add_telemetry_flags(coverage_hunt)
    coverage_hunt.set_defaults(func=cmd_coverage_hunt)


def _db_arguments(db: argparse.ArgumentParser) -> None:
    db.description = (
        "A sqlite-backed corpus of run summaries: ingest "
        "captures (idempotently, keyed by content fingerprint), slice "
        "per-function rows with composable filters, and diff two pools "
        "of runs with a statistical regression gate."
    )
    db_sub = db.add_subparsers(dest="db_command", required=True)

    def _db_common(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--db", required=True, metavar="FILE",
            help="the corpus database file (created on first ingest)",
        )

    db_ingest = db_sub.add_parser(
        "ingest",
        help="decode capture files/directories into the corpus",
        description="Decode each capture on the columnar fast path and "
        "persist its per-function summary as one run, keyed by the "
        "SHA-256 of the file bytes — re-ingesting the same corpus "
        "changes nothing.  Exit codes: 0 all ingested or already "
        "present, 1 some captures failed, 2 nothing found.",
    )
    db_ingest.add_argument(
        "paths", nargs="+",
        help="capture files and/or directories (swept for *.mpf)",
    )
    _db_common(db_ingest)
    db_ingest.add_argument(
        "--names", action="append", required=True,
        help="name/tag file(s) to decode with (repeatable, concatenated)",
    )
    db_ingest.add_argument(
        "--workload", default=None, metavar="TAG",
        help="override the workload tag parsed from each capture label",
    )
    db_ingest.add_argument(
        "--salvage", action="store_true",
        help="route damaged captures through the salvaging decoder "
        "instead of failing them",
    )
    _add_telemetry_flags(db_ingest)
    db_ingest.set_defaults(func=cmd_db_ingest)

    db_runs = db_sub.add_parser(
        "runs",
        help="list ingested runs (fingerprints, labels, workloads)",
    )
    _db_common(db_runs)
    db_runs.add_argument("--workload", default=None, help="filter by workload tag")
    db_runs.add_argument("--label", default=None, help="filter by capture label")
    db_runs.add_argument(
        "--json", action="store_true",
        help="emit the JSON catalog (stable schema) instead of text",
    )
    db_runs.set_defaults(func=cmd_db_runs)

    db_query = db_sub.add_parser(
        "query",
        help="filter/sort per-function rows across the corpus",
        description="Per-function rows joined with their run, filtered "
        "by workload/label, a shell glob on the function name and a "
        "%net floor, sorted by any numeric column.  Output order is a "
        "pure function of the database contents.",
    )
    _db_common(db_query)
    db_query.add_argument("--workload", default=None, help="filter by workload tag")
    db_query.add_argument("--label", default=None, help="filter by capture label")
    db_query.add_argument(
        "--function", default=None, metavar="GLOB",
        help="shell glob on the function name (vm_*, *intr*)",
    )
    db_query.add_argument(
        "--min-pct-net", type=float, default=None, metavar="PCT",
        help="drop rows below this %%net floor",
    )
    db_query.add_argument(
        "--sort", choices=sorted(FUNCTION_SORTS), default="net",
        help="sort column (default net)",
    )
    db_query.add_argument(
        "--limit", type=non_negative_int, default=None, metavar="N",
        help="print at most N rows",
    )
    db_query.add_argument(
        "--json", action="store_true",
        help="emit the JSON rows (stable schema) instead of text",
    )
    _add_telemetry_flags(db_query)
    db_query.set_defaults(func=cmd_db_query)

    db_diff = db_sub.add_parser(
        "diff",
        help="diff two pools of runs with a statistical regression gate",
        description="Each selector (a fingerprint prefix, a label, a "
        "workload tag, or label:/workload:/run: explicitly) resolves to "
        "a pool of runs; repeated runs pool into a noise estimate and a "
        "function must move beyond --sigma standard errors AND the "
        "relative floor to count.  Exit codes: 0 no movement beyond "
        "noise, 1 benign movement, 2 confirmed regression.",
    )
    db_diff.add_argument(
        "baseline", nargs="?", default=None,
        help="baseline selector (or the candidate when --baseline-label "
        "is given)",
    )
    db_diff.add_argument(
        "candidate", nargs="?", default=None, help="candidate selector"
    )
    _db_common(db_diff)
    db_diff.add_argument(
        "--baseline-label", default=None, metavar="LABEL",
        help="sugar: use label:LABEL as the baseline and the single "
        "positional as the candidate",
    )
    db_diff.add_argument(
        "--sigma", type=float, default=3.0,
        help="standard errors a pooled change must clear (default 3.0)",
    )
    db_diff.add_argument(
        "--min-rel", type=float, default=0.05,
        help="relative-change floor alongside the z-test (default 0.05)",
    )
    db_diff.add_argument(
        "--singleton-rel", type=float, default=0.20,
        help="relative threshold when either side is a single run "
        "(default 0.20)",
    )
    db_diff.add_argument(
        "--min-abs-us", type=int, default=25,
        help="absolute net-time floor in microseconds (default 25)",
    )
    db_diff.add_argument(
        "--limit", type=non_negative_int, default=None, metavar="N",
        help="rows in the delta table (text default 10; JSON default all)",
    )
    db_diff.add_argument(
        "--json", action="store_true",
        help="emit the JSON report (stable schema) instead of text",
    )
    _add_telemetry_flags(db_diff)
    db_diff.set_defaults(func=cmd_db_diff)

    db_check = db_sub.add_parser(
        "check",
        help="P7xx integrity pass: schema drift, orphan rows, label "
        "collisions",
    )
    _db_common(db_check)
    db_check.add_argument(
        "--json", action="store_true",
        help="emit the JSON report (stable schema) instead of text",
    )
    db_check.set_defaults(func=cmd_db_check)


def _live_arguments(live: argparse.ArgumentParser) -> None:
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
    _add_workload_flags(live_capture)
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


def _top_arguments(top: argparse.ArgumentParser) -> None:
    top.description = (
        "Run a workload in a producer thread and watch the "
        "summary build: an ANSI-refreshing table of the hottest "
        "functions, redrawn each rolling window.  Non-TTY output (and "
        "--once) prints a single final frame instead."
    )
    _add_workload_flags(top)
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


def _workloads_arguments(workloads: argparse.ArgumentParser) -> None:
    workloads.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable registry (stable schema)",
    )
    workloads.set_defaults(func=cmd_workloads)


#: Every command, in ``repro -h`` order: its name, its line there, and
#: what adds its description, arguments and sub-commands.
_COMMANDS = (
    ("capture", "run a workload under the Profiler", _capture_arguments),
    ("analyze", "analyse a saved capture file", _analyze_arguments),
    ("trace", "export capture traces for external viewers", _trace_arguments),
    (
        "lint",
        "proflint: statically verify the tag->trigger->capture chain",
        _lint_arguments,
    ),
    ("fleet", "ingest a directory of captures as one corpus", _fleet_arguments),
    (
        "coverage",
        "profile coverage: static reachability x observed tags",
        _coverage_arguments,
    ),
    ("db", "the profile corpus database: ingest, query, diff runs", _db_arguments),
    (
        "live",
        "concurrent capture -> analyze over a wire (pipe/FIFO/socket)",
        _live_arguments,
    ),
    ("top", "refreshing hottest-functions view of a live capture", _top_arguments),
    (
        "workloads",
        "list the workload registry (names, descriptions, parameter "
        "schemas)",
        _workloads_arguments,
    ),
)


def build_parser(argv: Optional[Sequence[str]] = None) -> argparse.ArgumentParser:
    """The command-line parser for *argv* (the process's arguments when
    ``None``).

    Every command is listed, so ``repro -h`` and an unknown command read
    the same whatever *argv* is, but only the command *argv* names gets
    its arguments and sub-commands: all of them cost more to build than
    a parse.  Every command gets them when *argv* names none (it is
    empty or starts with an option such as ``-h``) or none that exists.
    """
    if argv is None:
        argv = sys.argv[1:]
    named = argv[0] if argv and not argv[0].startswith("-") else None
    if named not in {name for name, _, _ in _COMMANDS}:
        named = None
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hardware Profiling of Kernels (McRae 1993), reproduced",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, add_arguments in _COMMANDS:
        command = sub.add_parser(name, help=help_line)
        if named is None or name == named:
            add_arguments(command)
    return parser


def main(argv: Optional[Sequence[str]] = None, out: Callable = print) -> int:
    """Run one command.  Its ``--telemetry`` snapshot is written on the
    way out, whatever the outcome, and bad input (``ValueError``, which
    every reader's format error is, or ``OSError``) is one
    ``repro: error:`` line on stderr and exit 2, never a traceback."""
    args = build_parser(argv).parse_args(argv)
    if getattr(args, "report", None) is None and args.command in ("capture", "analyze"):
        args.report = ["summary"]
    telemetry = getattr(args, "telemetry", None)
    try:
        if telemetry:
            _telemetry_begin(telemetry)
        try:
            return args.func(args, out)
        finally:
            if telemetry:
                _telemetry_end(telemetry)
    except (OSError, ValueError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
