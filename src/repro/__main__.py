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

This module is the dispatcher: the command table, the parser, the
argparse types and flags several commands share, and the
``--telemetry`` lifecycle.  Each command's handler and argument builder
live in its own module under :mod:`repro.cli` (``repro.cli.<command>``),
and :func:`main` imports only the module of the command it runs, so a
command compiles and builds only the code it uses; ``repro -h`` and an
unknown command import them all to list every command.

Observability: ``--telemetry PATH``, on every command that takes it,
enables the self-telemetry singleton for the run and writes the snapshot
to PATH on the way out (format inferred from the extension);
``--progress`` adds a records/sec + ETA heartbeat on stderr while
``analyze`` folds a capture file.  Neither writes a byte to stdout, so
report output is identical with or without them.

Bad input (a missing, empty, corrupt or truncated capture, a missing
or malformed name file, an unknown workload or run selector, an
unusable database or corpus root, an output path that cannot be
written) fails with one line on stderr, ``repro: error: <message>``,
and exit status 2; :func:`main` is the one place that turns an error
into that line.  Commands whose exit code is a verdict (``lint``,
``capture doctor``, ``db diff``, ``db check``, ``fleet ingest``,
``coverage``) keep their documented codes.  A command whose reader
closes standard output early (``| head -1``) stops quietly with status
:data:`EXIT_READER_GONE`.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:
    from repro.telemetry.progress import ProgressReporter


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


def add_workload_flags(parser: argparse.ArgumentParser) -> None:
    """``--workload``, ``--packets`` and ``--modules``: what ``capture``,
    ``live capture`` and ``top`` run."""
    parser.add_argument(
        "--workload", default="network",
        help="workload to run (default network; 'repro workloads' lists them)",
    )
    parser.add_argument(
        "--packets", type=positive_int, default=30,
        help="workload size knob (packets/iterations/KB; default 30)",
    )
    parser.add_argument(
        "--modules", default=None,
        help="comma-separated module prefixes to micro-profile (default: all)",
    )


def workload_modules(args: argparse.Namespace) -> Optional[list[str]]:
    """The ``--modules`` prefixes to micro-profile (``None``: all)."""
    return args.modules.split(",") if args.modules else None


def add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
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


def make_progress(
    args: argparse.Namespace, total: Optional[int], label: str
) -> ProgressReporter:
    """A heartbeat honouring ``--progress`` / ``--progress=force``."""
    from repro.telemetry.progress import ProgressReporter

    mode = getattr(args, "progress", "off") or "off"
    return ProgressReporter(total, label=label, mode=mode)


def stderr(line: str) -> None:
    print(line, file=sys.stderr)


def _telemetry_begin(path: str) -> None:
    """Enable the telemetry singleton for this run (``--telemetry PATH``).

    The output format and the path are checked *before* the run, so a
    typo'd extension or a missing directory fails in milliseconds
    instead of after a long analysis.
    """
    from repro.atomicio import check_writable
    from repro.telemetry import TELEMETRY
    from repro.telemetry.export import infer_format

    infer_format(path)
    check_writable(path)
    TELEMETRY.reset()
    TELEMETRY.enable()


def _telemetry_end(path: str) -> None:
    """Write the telemetry snapshot and disable the singleton again.

    The confirmation line goes to stderr: report bytes on stdout must be
    identical with and without ``--telemetry``.
    """
    from repro.telemetry import TELEMETRY
    from repro.telemetry.export import write_telemetry

    try:
        fmt = write_telemetry(path, TELEMETRY)
    finally:
        TELEMETRY.disable()
    print(f"telemetry ({fmt}) written to {path}", file=sys.stderr)


#: Every command, in ``repro -h`` order, with its line there.  The
#: ``arguments`` function of ``repro.cli.<command>`` adds its
#: description, arguments and sub-commands, and sets its handler.
_COMMANDS = (
    ("capture", "run a workload under the Profiler"),
    ("analyze", "analyse a saved capture file"),
    ("trace", "export capture traces for external viewers"),
    ("lint", "proflint: statically verify the tag->trigger->capture chain"),
    ("fleet", "ingest a directory of captures as one corpus"),
    ("coverage", "profile coverage: static reachability x observed tags"),
    ("db", "the profile corpus database: ingest, query, diff runs"),
    ("live", "concurrent capture -> analyze over a wire (pipe/FIFO/socket)"),
    ("top", "refreshing hottest-functions view of a live capture"),
    (
        "workloads",
        "list the workload registry (names, descriptions, parameter schemas)",
    ),
)


def build_parser(argv: Optional[Sequence[str]] = None) -> argparse.ArgumentParser:
    """The command-line parser for *argv* (the process's arguments when
    ``None``).

    Every command is listed, so ``repro -h`` and an unknown command read
    the same whatever *argv* is, but only the command *argv* names gets
    its arguments and sub-commands, and only its module is imported.
    Every command gets them when *argv* names none (it is empty or
    starts with an option such as ``-h``) or none that exists.
    """
    if argv is None:
        argv = sys.argv[1:]
    named = argv[0] if argv and not argv[0].startswith("-") else None
    if named not in {name for name, _ in _COMMANDS}:
        named = None
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hardware Profiling of Kernels (McRae 1993), reproduced",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line in _COMMANDS:
        command = sub.add_parser(name, help=help_line)
        if named is None or name == named:
            importlib.import_module(f"repro.cli.{name}").arguments(command)
    return parser


#: Exit status of a command whose reader closed standard output before
#: it finished (``analyze F | head -1``): what a shell reports for a
#: writer that SIGPIPE ended, 128 + 13.
EXIT_READER_GONE = 141


def _stdout_reader_gone() -> bool:
    """Whether standard output is a pipe whose reader has closed it."""
    import select

    try:
        poller = select.poll()
        poller.register(sys.stdout.fileno(), select.POLLOUT)
        return any(events & select.POLLERR for _, events in poller.poll(0))
    except (AttributeError, OSError, ValueError):
        return False


def _drop_stdout() -> None:
    """Point standard output at the null device, so the interpreter's
    flush at exit has nowhere to fail."""
    import os

    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: Optional[Sequence[str]] = None, out: Callable = print) -> int:
    """Run one command.  Its ``--telemetry`` snapshot is written on the
    way out, whatever the outcome, and bad input (``ValueError``, which
    every reader's format error is, or ``OSError``) is one
    ``repro: error:`` line on stderr and exit 2, never a traceback.  A
    ``BrokenPipeError`` because standard output's reader went away is
    no error: nothing is printed and the status is
    :data:`EXIT_READER_GONE`."""
    args = build_parser(argv).parse_args(argv)
    if getattr(args, "report", None) is None and args.command in ("capture", "analyze"):
        args.report = ["summary"]
    telemetry = getattr(args, "telemetry", None)
    try:
        if telemetry:
            _telemetry_begin(telemetry)
        try:
            status = args.func(args, out)
            sys.stdout.flush()
            return status
        finally:
            if telemetry:
                _telemetry_end(telemetry)
    except (OSError, ValueError) as exc:
        if isinstance(exc, BrokenPipeError) and _stdout_reader_gone():
            _drop_stdout()
            return EXIT_READER_GONE
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # ``python -m repro`` runs this file as ``__main__``; the command
    # modules import the shared flags from ``repro.__main__``, which must
    # be this module, not a second copy compiled from the same file.
    sys.modules.setdefault("repro.__main__", sys.modules[__name__])
    sys.exit(main())
