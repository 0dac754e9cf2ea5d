"""Golden-file tests: the three figure reports and gprof, byte-for-byte.

The simulation is deterministic, so the canonical Figure 3/4/5 report
text and the gprof reports of the two binary golden captures are checked
in under ``tests/golden/`` and asserted verbatim.  Any
change to decoding, reconstruction, aggregation or formatting shows up
here as a diff against the golden text — which is exactly the kind of
silent drift the streaming pipeline's byte-identity guarantee depends on
being able to detect.

To regenerate after an *intentional* report change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_reports.py

then review the diff like any other code change.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.analysis.summary import summarize
from repro.analysis.trace import format_trace
from repro.system import build_case_study

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _check(name: str, text: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"golden file {path} missing; run with REGEN_GOLDEN=1 to create it"
    )
    golden = path.read_text()
    assert text == golden, (
        f"{name} drifted from the golden copy; if the change is intentional, "
        "regenerate with REGEN_GOLDEN=1 and review the diff"
    )


@pytest.fixture(scope="module")
def network_capture():
    system = build_case_study()
    from repro.workloads.network_recv import network_receive

    capture = system.profile(
        lambda: network_receive(system.kernel, total_packets=6),
        label="TCP receive (golden)",
    )
    return system, capture


@pytest.fixture(scope="module")
def forkexec_capture():
    system = build_case_study()
    from repro.workloads.forkexec import fork_exec_storm

    capture = system.profile(
        lambda: fork_exec_storm(system.kernel, iterations=1),
        label="fork/exec storm (golden)",
    )
    return system, capture


def test_figure3_summary_golden(network_capture):
    system, capture = network_capture
    summary = summarize(system.analyze(capture))
    _check("figure3_network_summary.txt", summary.format(limit=20) + "\n")


def test_figure4_trace_golden(network_capture):
    system, capture = network_capture
    analysis = system.analyze(capture)
    _check("figure4_code_path_trace.txt", format_trace(analysis) + "\n")


def test_figure5_summary_golden(forkexec_capture):
    system, capture = forkexec_capture
    summary = summarize(system.analyze(capture))
    _check("figure5_forkexec_summary.txt", summary.format(limit=20) + "\n")


def test_streaming_matches_figure3_golden(network_capture):
    """The fold must reproduce the golden text, not just agree with
    whatever the call tree currently produces."""
    system, capture = network_capture
    text = system.summarize(capture).format(limit=20) + "\n"
    if not os.environ.get("REGEN_GOLDEN"):
        assert text == (GOLDEN_DIR / "figure3_network_summary.txt").read_text()


def test_sharded_matches_figure5_golden(forkexec_capture):
    """The fold fed in 512-record shards reproduces the golden text."""
    from repro.analysis.summary import summarize_columns
    from repro.profiler.ram import RecordColumns

    system, capture = forkexec_capture
    records = capture.records
    shards = (
        RecordColumns(
            tags=records.tags[start : start + 512],
            times=records.times[start : start + 512],
        )
        for start in range(0, len(records), 512)
    )
    text = summarize_columns(shards, capture.names).format(limit=20) + "\n"
    if not os.environ.get("REGEN_GOLDEN"):
        assert text == (GOLDEN_DIR / "figure5_forkexec_summary.txt").read_text()


# -- binary capture goldens (inputs to the proflint CI gate) -----------------
#
# Tag values are assigned in kfunc *declaration* order, which follows
# module import order — and pytest's collection imports test modules in
# whatever set was selected, perturbing that order.  So the binary
# goldens are pinned to the one import sequence that is reproducible
# anywhere: a fresh `python -m repro capture` subprocess.  Regenerate
# with REGEN_GOLDEN=1 like the text goldens.
#
# Two generations are checked in.  The *_v2 files are what today's CLI
# writes (MPF2) and must regenerate byte-identically.  figure3_network.mpf
# and figure5_forkexec.mpf are FROZEN MPF1 files from before the format
# gained a self-describing header: they are never regenerated — their
# whole point is proving that old captures keep decoding, byte for byte,
# to the same records and golden summaries.

CAPTURE_RECIPES = {
    "figure3_network_v2.mpf": ["--workload", "network", "--packets", "6"],
    "figure5_forkexec_v2.mpf": ["--workload", "forkexec", "--packets", "15"],
}

#: legacy MPF1 fixture -> the MPF2 golden holding the same records.
LEGACY_CAPTURES = {
    "figure3_network.mpf": "figure3_network_v2.mpf",
    "figure5_forkexec.mpf": "figure5_forkexec_v2.mpf",
}


def _cli_capture(args: list[str], save: pathlib.Path, names=None) -> None:
    import subprocess
    import sys

    src = pathlib.Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    command = [sys.executable, "-m", "repro", "capture", *args, "--save", str(save)]
    if names is not None:
        command += ["--names", str(names)]
    subprocess.run(command, check=True, env=env, stdout=subprocess.DEVNULL)


@pytest.mark.parametrize("name,args", sorted(CAPTURE_RECIPES.items()))
def test_capture_bytes_golden(name, args, tmp_path):
    """The raw .mpf bytes `python -m repro lint` gates on in CI must
    regenerate byte-identically from a fresh process."""
    golden = GOLDEN_DIR / name
    names_out = tmp_path / "fresh.tags" if name == "figure3_network_v2.mpf" else None
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        _cli_capture(args, golden, names=GOLDEN_DIR / "case_study.tags"
                     if names_out else None)
        pytest.skip(f"regenerated {golden}")
    assert golden.exists(), (
        f"golden file {golden} missing; run with REGEN_GOLDEN=1 to create it"
    )
    fresh = tmp_path / name
    _cli_capture(args, fresh, names=names_out)
    assert fresh.read_bytes() == golden.read_bytes(), (
        f"{name} drifted from the golden copy; the capture pipeline is no "
        "longer deterministic, or the record format changed — regenerate "
        "with REGEN_GOLDEN=1 and review"
    )
    if names_out is not None:
        assert names_out.read_text() == (
            GOLDEN_DIR / "case_study.tags"
        ).read_text(), "the name/tag file drifted from case_study.tags"


def test_golden_capture_decodes_to_golden_summary():
    """Cross-check the binary goldens against the text goldens: loading
    figure3_network_v2.mpf with case_study.tags must reproduce the exact
    Figure 3 summary text.  This ties the .mpf/.tags pair to the same
    truth the report tests assert, whatever tag values they contain."""
    if os.environ.get("REGEN_GOLDEN"):
        pytest.skip("regenerating")
    from repro.instrument.namefile import NameTable
    from repro.profiler.capture import Capture

    names = NameTable.read(GOLDEN_DIR / "case_study.tags")
    capture = Capture.load(GOLDEN_DIR / "figure3_network_v2.mpf", names)
    from repro.analysis.callstack import analyze_capture

    text = summarize(analyze_capture(capture)).format(limit=20) + "\n"
    assert text == (GOLDEN_DIR / "figure3_network_summary.txt").read_text()


#: binary golden capture -> its gprof report golden (the CLI's default
#: ``--summary-limit`` of 12 entries).
GPROF_GOLDENS = {
    "figure3_network_v2.mpf": "figure3_network_gprof.txt",
    "figure5_forkexec_v2.mpf": "figure5_forkexec_gprof.txt",
}


@pytest.mark.parametrize("capture_name,golden", sorted(GPROF_GOLDENS.items()))
def test_gprof_golden_from_tree(capture_name, golden):
    """The walk of the call tree reproduces the gprof golden."""
    from repro.analysis.callstack import analyze_capture
    from repro.analysis.gprof import gprof_report
    from repro.instrument.namefile import NameTable
    from repro.profiler.capture import Capture

    names = NameTable.read(GOLDEN_DIR / "case_study.tags")
    capture = Capture.load(GOLDEN_DIR / capture_name, names)
    _check(golden, gprof_report(analyze_capture(capture)).format(limit=12) + "\n")


@pytest.mark.parametrize(
    "capture_name,golden",
    sorted(GPROF_GOLDENS.items())
    + [(legacy, GPROF_GOLDENS[v2]) for legacy, v2 in sorted(LEGACY_CAPTURES.items())],
)
@pytest.mark.parametrize(
    "reports", [["gprof"], ["summary", "gprof"], ["folded", "gprof"]]
)
def test_gprof_golden_from_cli(capture_name, golden, reports):
    """``analyze --report gprof`` (the fold's arcs, straight off the file,
    MPF1 or MPF2) prints the gprof golden, alone, after the summary, and
    after a call-tree report, read off the tree's own fold."""
    if os.environ.get("REGEN_GOLDEN"):
        pytest.skip("regenerating")
    import warnings

    from repro.__main__ import main

    argv = ["analyze", str(GOLDEN_DIR / capture_name)]
    argv += ["--names", str(GOLDEN_DIR / "case_study.tags")]
    for report in reports:
        argv += ["--report", report]
    lines: list[str] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the MPF1 metadata warning
        assert main(argv, out=lines.append) == 0
    # Each report is followed by an empty line; gprof comes last.
    text = "\n".join(lines[1:])
    expected = (GOLDEN_DIR / golden).read_text()
    if reports == ["gprof"]:
        assert text == expected
    elif reports[0] == "summary":
        assert text.endswith("kstack desyncs = 0\n\n" + expected)
    else:
        assert text.endswith("\n\n" + expected)


#: binary golden capture -> its summary report golden (``limit=20``).
SUMMARY_GOLDENS = {
    "figure3_network_v2.mpf": "figure3_network_summary.txt",
    "figure5_forkexec_v2.mpf": "figure5_forkexec_summary.txt",
}


@pytest.mark.parametrize("chunk_records", [1, 7, 1000, 4096, 8192])
@pytest.mark.parametrize("capture_name", sorted(SUMMARY_GOLDENS))
def test_fold_in_chunks_matches_goldens(capture_name, chunk_records):
    """However the file is cut into batches, the fold prints the summary
    and gprof goldens: a switch-in whose block straddles a cut resolves
    exactly as it does in one batch."""
    if os.environ.get("REGEN_GOLDEN"):
        pytest.skip("regenerating")
    from repro.analysis.gprof import gprof_from_fold
    from repro.analysis.summary import fold_columns
    from repro.instrument.namefile import NameTable
    from repro.profiler.upload import iter_capture_columns

    names = NameTable.read(GOLDEN_DIR / "case_study.tags")
    batches = iter_capture_columns(
        GOLDEN_DIR / capture_name, chunk_records=chunk_records
    )
    fold = fold_columns(batches, names)
    summary = fold.summary().format(limit=20) + "\n"
    assert summary == (GOLDEN_DIR / SUMMARY_GOLDENS[capture_name]).read_text()
    gprof = gprof_from_fold(fold).format(limit=12) + "\n"
    assert gprof == (GOLDEN_DIR / GPROF_GOLDENS[capture_name]).read_text()


# -- MPF1 backward compatibility over the frozen legacy goldens --------------


@pytest.mark.parametrize("legacy,v2", sorted(LEGACY_CAPTURES.items()))
def test_legacy_mpf1_golden_decodes_identically(legacy, v2):
    """A pre-MPF2 capture must decode to exactly the records its MPF2
    sibling carries — byte-identical interchange across the format bump
    (the legacy files are frozen, never regenerated)."""
    if os.environ.get("REGEN_GOLDEN"):
        pytest.skip("regenerating")
    from repro.profiler.upload import read_capture

    old_records, old_meta = read_capture(GOLDEN_DIR / legacy)
    new_records, new_meta = read_capture(GOLDEN_DIR / v2)
    assert old_meta.version == 1 and new_meta.version == 2
    assert old_records == new_records


def test_legacy_mpf1_golden_still_summarizes(recwarn):
    """The frozen MPF1 figure5 capture must still produce the golden
    Figure 5 summary (metadata defaults to stock, with a warning)."""
    if os.environ.get("REGEN_GOLDEN"):
        pytest.skip("regenerating")
    from repro.analysis.callstack import analyze_capture
    from repro.instrument.namefile import NameTable
    from repro.profiler.capture import Capture
    from repro.profiler.upload import CaptureMetadataWarning

    names = NameTable.read(GOLDEN_DIR / "case_study.tags")
    capture = Capture.load(GOLDEN_DIR / "figure5_forkexec.mpf", names)
    assert any(
        isinstance(w.message, CaptureMetadataWarning) for w in recwarn.list
    )
    text = summarize(analyze_capture(capture)).format(limit=20) + "\n"
    assert text == (GOLDEN_DIR / "figure5_forkexec_summary.txt").read_text()
