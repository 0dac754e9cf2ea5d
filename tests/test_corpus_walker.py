"""The one corpus walker: fleet, db and coverage read captures alike.

``fleet ingest``, ``db ingest`` and ``coverage`` all read their corpora
through :func:`repro.fleet.ingest.read_corpus`.  These tests pin what
that buys: the same bytes give the same row (status, records, defects,
error) from every command, damaged or not, and a capture the summary
fold refuses fails its own row under ``--salvage`` instead of aborting
the run.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.coverage.corpus import scan_corpus
from repro.db.ingest import ingest_paths
from repro.db.schema import connect
from repro.fleet.ingest import ingest_fleet
from repro.instrument.namefile import NameTable
from repro.profiler.upload import write_capture_file

from stream_helpers import build_fleet_corpus, columns_of, synth_capture_records

GOLDEN = Path(__file__).parent / "golden"


def _damaged_corpus(root: Path) -> Path:
    """Eight damaged captures plus one clean golden."""
    root.mkdir()
    figure5 = (GOLDEN / "figure5_forkexec_v2.mpf").read_bytes()
    (root / "prefix.mpf").write_bytes(figure5[:3001])
    for name in ("bitflip", "countlie", "truncate"):
        shutil.copy(GOLDEN / f"salvage_fuzz_{name}.mpf.corrupt", root)
    (root / "empty.mpf").write_bytes(b"")
    (root / "random.mpf").write_bytes(random.Random(0).randbytes(700))
    (root / "zeros.mpf").write_bytes(bytes(700))
    (root / "lies.mpf").write_bytes(b"MPF2 but then lies")
    shutil.copy(GOLDEN / "figure3_network_v2.mpf", root)
    return root


@pytest.mark.parametrize("salvage", [False, True])
def test_fleet_db_and_coverage_agree_on_damaged_files(tmp_path, salvage):
    corpus = _damaged_corpus(tmp_path / "corpus")
    names = NameTable.read(GOLDEN / "case_study.tags")
    fleet = {
        Path(r.path).name: (r.status, r.records, r.defects, r.error)
        for r in ingest_fleet(corpus, names, salvage=salvage).reports
    }
    conn = connect(tmp_path / "profiles.db")
    try:
        db = {
            Path(r.path).name: (
                "ok" if r.status == "added" else r.status,
                r.records,
                r.defects,
                r.error,
            )
            for r in ingest_paths(conn, [corpus], names, salvage=salvage)
        }
    finally:
        conn.close()
    assert db == fleet
    if not salvage:
        # Coverage never salvages, so it has no defects to report.
        coverage = {
            Path(c.path).name: (c.status, c.records, 0, c.error)
            for c in scan_corpus(corpus, names).captures
        }
        assert coverage == fleet
    assert len(fleet) == 9
    assert fleet["figure3_network_v2.mpf"] == ("ok", 1006, 0, "")
    failed = {name: row for name, row in fleet.items() if row[0] == "failed"}
    assert len(failed) == (3 if salvage else 8)
    assert all(records == 0 for _, records, _, _ in failed.values())
    if salvage:
        assert fleet["prefix.mpf"] == ("salvaged", 593, 2, "")
        assert all(defects == 1 for _, _, defects, _ in failed.values())
    else:
        assert fleet["empty.mpf"][3].startswith("capture file header truncated")


@pytest.mark.parametrize("command", ["fleet", "db"])
def test_over_width_capture_fails_alone_under_salvage(tmp_path, command):
    corpus = tmp_path / "corpus"
    names = build_fleet_corpus(corpus, captures=3, events=24)
    write_capture_file(
        corpus / "odd.mpf",
        columns_of(synth_capture_records(9, 24)),
        counter_width_bits=16,
        label="odd-board",
    )
    tags = tmp_path / "fleet.tags"
    names.write(tags)
    if command == "fleet":
        argv = ["fleet", "ingest", str(corpus), "--jobs", "1"]
    else:
        argv = ["db", "ingest", str(corpus), "--db", str(tmp_path / "p.db")]
    lines: list[str] = []
    code = main([*argv, "--names", str(tags), "--salvage"], out=lines.append)
    text = "\n".join(lines)
    error = "record time 89757 exceeds the 16-bit counter"
    assert code == 1
    if command == "fleet":
        assert f"error P502: ingest failed: {error}" in text
        assert "ingested=3 salvaged=0 failed=1 records=72" in text
    else:
        assert f"failed    {corpus / 'odd.mpf'}: {error}" in text
        assert "db ingest: 3 added, 0 duplicate(s), 1 failed" in text
