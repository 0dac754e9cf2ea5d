"""Versioned capture interchange (MPF2) and the salvaging decoder.

Covers the transfer-path robustness layer: MPF2 round-trips every
``Capture`` field, both header versions cross-read, short reads on
pipe-like streams reassemble, and a fault-injection corpus (truncation, bit flips, header lies) goes
through ``salvage_capture`` / ``repro capture doctor`` /
``analyze --salvage`` instead of raising.
"""

from __future__ import annotations

import io
import pathlib
import zlib

import pytest

from repro.instrument.namefile import NameTable
from repro.profiler.capture import Capture
from repro.profiler.ram import RawRecord, TraceRam
from repro.profiler.upload import (
    MAGIC,
    MAGIC_V2,
    CaptureMetadataWarning,
    CaptureStreamWriter,
    EpromReadback,
    read_capture,
    salvage_capture,
    write_capture_file,
)
from stream_helpers import (
    capture_from_records,
    columns_of,
    iter_records,
    read_records,
    record_bytes,
    salvage_records,
)
from repro.__main__ import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

RECORDS = [RawRecord(tag=500 + (i % 4), time=(i * 321) & 0xFFFF) for i in range(20)]
COLUMNS = columns_of(RECORDS)


def _names() -> NameTable:
    table = NameTable()
    from repro.instrument.namefile import parse_line

    for line in ("main/500", "bcopy/502"):
        entry = parse_line(line)
        assert entry is not None
        table.add(entry)
    return table


def _v2_blob(records=RECORDS, **meta) -> bytes:
    buffer = io.BytesIO()
    write_capture_file(buffer, columns_of(records), **meta)
    return buffer.getvalue()


def run_cli(*argv: str) -> tuple[int, str]:
    lines: list[str] = []
    code = main(list(argv), out=lines.append)
    return code, "\n".join(lines)


class TestMpf2RoundTrip:
    def test_every_capture_field_survives(self, tmp_path):
        """The headline fix: a non-stock, overflowed, labelled capture
        reloads with nothing silently defaulted."""
        capture = Capture(
            records=COLUMNS,
            names=_names(),
            overflowed=True,
            label="bench rig #7",
            counter_width_bits=16,
            counter_rate_hz=3_579_545,
        )
        path = tmp_path / "run.mpf"
        capture.save(path)
        again = Capture.load(path, capture.names)
        assert again.records == capture.records
        assert again.overflowed is True
        assert again.label == "bench rig #7"
        assert again.counter_width_bits == 16
        assert again.counter_rate_hz == 3_579_545
        assert again.defects == ()

    def test_explicit_label_beats_header_label(self, tmp_path):
        capture = capture_from_records(RECORDS, _names(), label="saved-label")
        path = tmp_path / "run.mpf"
        capture.save(path)
        assert Capture.load(path, capture.names).label == "saved-label"
        assert Capture.load(path, capture.names, label="cli").label == "cli"

    def test_mpf1_load_warns_and_defaults(self, tmp_path):
        path = tmp_path / "legacy.mpf"
        with pytest.warns(CaptureMetadataWarning, match="MPF1"):
            write_capture_file(
                path, COLUMNS, version=1, overflowed=True, counter_width_bits=16
            )
        with pytest.warns(CaptureMetadataWarning, match="defaulted"):
            loaded = Capture.load(path, _names())
        assert loaded.overflowed is False  # lost: MPF1 cannot carry it
        assert loaded.counter_width_bits == 24
        assert loaded.counter_rate_hz == 1_000_000
        assert loaded.records == COLUMNS

    def test_v1_writer_is_byte_identical_to_legacy_layout(self):
        buffer = io.BytesIO()
        write_capture_file(buffer, columns_of(RECORDS[:3]), version=1)
        expected = MAGIC + (3).to_bytes(4, "big") + record_bytes(RECORDS[:3])
        assert buffer.getvalue() == expected

    def test_unicode_label_roundtrip(self):
        blob = _v2_blob(label="capturé ⏱")
        _, meta = read_capture(io.BytesIO(blob))
        assert meta.label == "capturé ⏱"

    def test_header_self_describes_its_size(self):
        """Unknown future header fields must be skipped, not misparsed:
        readers honour the header-size field, so appending bytes to the
        header (and bumping the size) keeps the records readable."""
        blob = bytearray(_v2_blob())
        header_size = int.from_bytes(blob[4:6], "big")
        blob[4:6] = (header_size + 4).to_bytes(2, "big")
        blob[header_size:header_size] = b"\xde\xad\xbe\xef"
        columns, meta = read_capture(io.BytesIO(bytes(blob)))
        assert columns == COLUMNS
        assert meta.version == 2

    def test_bad_version_and_bad_metadata_rejected(self):
        with pytest.raises(ValueError, match="version"):
            write_capture_file(io.BytesIO(), COLUMNS, version=3)
        with pytest.raises(ValueError, match="width"):
            write_capture_file(io.BytesIO(), COLUMNS, counter_width_bits=25)
        with pytest.raises(ValueError, match="rate"):
            write_capture_file(io.BytesIO(), COLUMNS, counter_rate_hz=0)


class TestCrossVersionReads:
    def test_both_readers_accept_both_versions(self):
        v1 = io.BytesIO()
        write_capture_file(v1, COLUMNS, version=1)
        v2 = io.BytesIO(_v2_blob())
        v1.seek(0)
        assert read_records(v1) == RECORDS
        assert read_records(v2) == RECORDS
        v1.seek(0)
        v2.seek(0)
        assert list(iter_records(v1)) == RECORDS
        assert list(iter_records(v2)) == RECORDS

    def test_streaming_writer_matches_batch_writer_v2(self):
        """The open-ended wire form reads back to the records and header
        metadata the closed MPF2 file carries."""
        streamed = io.BytesIO()
        with CaptureStreamWriter(
            streamed, overflowed=True, label="x", counter_width_bits=20
        ) as writer:
            writer.write_records(RECORDS)
        columns, meta = read_capture(io.BytesIO(streamed.getvalue()))
        batch_columns, batch_meta = read_capture(
            io.BytesIO(_v2_blob(overflowed=True, label="x", counter_width_bits=20))
        )
        assert columns == batch_columns == COLUMNS
        assert meta.streamed and not batch_meta.streamed
        for field in ("count", "overflowed", "label", "counter_width_bits", "crc32"):
            assert getattr(meta, field) == getattr(batch_meta, field), field

    def test_iter_detects_crc_corruption_at_end(self):
        blob = bytearray(_v2_blob())
        blob[-1] ^= 0x40  # flip a payload bit
        iterator = iter_records(io.BytesIO(bytes(blob)))
        with pytest.raises(ValueError, match="CRC32"):
            list(iterator)

    def test_read_capture_detects_crc_corruption(self):
        blob = bytearray(_v2_blob())
        blob[30] ^= 0x01
        with pytest.raises(ValueError, match="CRC32"):
            read_capture(io.BytesIO(bytes(blob)))


class DribbleStream(io.BytesIO):
    """A pipe-like stream: read() returns at most 3 bytes per call."""

    def read(self, size=-1):
        return super().read(min(size, 3) if size and size > 0 else size)


class TestShortReads:
    @pytest.mark.parametrize("version", [1, 2])
    def test_header_reassembles_across_short_reads(self, version):
        buffer = io.BytesIO()
        write_capture_file(
            buffer, COLUMNS, version=version,
            label="dribble" if version == 2 else "",
        )
        records = list(iter_records(DribbleStream(buffer.getvalue())))
        assert records == RECORDS

    def test_read_capture_tolerates_short_reads(self):
        blob = _v2_blob(label="short-read")
        columns, meta = read_capture(DribbleStream(blob))
        assert columns == COLUMNS
        assert meta.label == "short-read"


class TestStreamWriterGuards:
    def test_count_overflow_diagnosed_not_overflowerror(self, monkeypatch):
        import repro.profiler.upload as upload

        monkeypatch.setattr(upload, "MAX_RECORDS", 10)
        with pytest.raises(ValueError, match="32-bit"):
            write_capture_file(io.BytesIO(), COLUMNS)
        with pytest.raises(ValueError, match="32-bit"):
            CaptureStreamWriter(io.BytesIO()).write_records(RECORDS)

        class Liar:
            def __len__(self):
                return 10

            def __iter__(self):  # pragma: no cover - len() fails first
                return iter(())

        with pytest.raises(ValueError, match="32-bit"):
            write_capture_file(io.BytesIO(), Liar())


class TestEpromReadbackPartialRam:
    def test_partially_filled_ram_reads_back_exactly(self):
        """Satellite: read_all over a RAM with most slots never written
        must return only the stored records, in store order."""
        ram = TraceRam(depth=64)
        stored = [RawRecord(tag=7 + i, time=i * 1000) for i in range(5)]
        for record in stored:
            ram.store(record.tag, record.time)
        assert EpromReadback(ram).read_all() == stored
        # The unwritten region still floats high, bank by bank.
        readback = EpromReadback(ram)
        readback.select_bank(2)
        assert readback.read(63) == 0xFF


class TestSalvage:
    def test_clean_files_have_no_defects(self):
        for version in (1, 2):
            buffer = io.BytesIO()
            write_capture_file(buffer, COLUMNS, version=version)
            records, defects = salvage_records(io.BytesIO(buffer.getvalue()))
            assert records == RECORDS
            assert defects == []

    def test_truncated_tail_drops_partial_record(self):
        blob = _v2_blob()
        records, defects = salvage_records(io.BytesIO(blob[:-7]))
        assert records == RECORDS[:-2]  # 7 bytes = one whole + one partial record
        kinds = [d.kind for d in defects]
        assert "partial-record" in kinds and "count-mismatch" in kinds

    def test_single_bit_flip_in_payload_is_crc_mismatch(self):
        blob = bytearray(_v2_blob())
        blob[-3] ^= 0x10
        records, defects = salvage_records(io.BytesIO(bytes(blob)))
        assert len(records) == len(RECORDS)  # every record still delivered
        assert [d.kind for d in defects] == ["crc-mismatch"]

    def test_header_count_lie_reported_not_fatal(self):
        blob = bytearray(_v2_blob())
        blob[6:10] = (9999).to_bytes(4, "big")
        records, defects = salvage_records(io.BytesIO(bytes(blob)))
        assert records == RECORDS
        assert [d.kind for d in defects] == ["count-mismatch"]

    @pytest.mark.parametrize("version", [1, 2])
    def test_magic_bit_flip_resynchronises(self, version):
        buffer = io.BytesIO()
        write_capture_file(buffer, COLUMNS, version=version)
        blob = bytearray(buffer.getvalue())
        blob[3] ^= 0x04  # "MPF1"/"MPF2" with one flipped bit
        result = salvage_capture(io.BytesIO(bytes(blob)))
        assert result.records == COLUMNS
        assert result.meta.version == version
        assert [d.kind for d in result.defects] == ["bad-magic"]

    def test_unrecognisable_magic_gives_up_cleanly(self):
        records, defects = salvage_records(io.BytesIO(b"GIF89a" + b"\x00" * 40))
        assert records == []
        assert [d.kind for d in defects] == ["bad-magic"]

    def test_tiny_and_empty_files(self):
        for blob in (b"", b"MP"):
            records, defects = salvage_records(io.BytesIO(blob))
            assert records == []
            assert [d.kind for d in defects] == ["truncated-header"]

    def test_corrupt_header_fields_default_with_defects(self):
        blob = bytearray(_v2_blob())
        blob[10] = 77  # counter width way outside 1..24
        blob[11:15] = (0).to_bytes(4, "big")  # rate zero
        result = salvage_capture(io.BytesIO(bytes(blob)))
        assert result.meta.counter_width_bits == 24
        assert result.meta.counter_rate_hz == 1_000_000
        assert [d.kind for d in result.defects].count("bad-header-field") == 2
        # CRC still verifies: the payload itself is intact.
        assert all(d.kind != "crc-mismatch" for d in result.defects)

    def test_capture_load_salvage_attaches_defects(self, tmp_path):
        path = tmp_path / "damaged.mpf"
        path.write_bytes(_v2_blob()[:-2])
        with pytest.raises(ValueError):
            Capture.load(path, _names())
        capture = Capture.load(path, _names(), salvage=True)
        assert len(capture.records) == len(RECORDS) - 1
        assert any(d.kind == "partial-record" for d in capture.defects)

    def test_salvaged_metadata_survives(self, tmp_path):
        path = tmp_path / "damaged.mpf"
        blob = _v2_blob(
            overflowed=True, label="hot run", counter_width_bits=20,
            counter_rate_hz=2_000_000,
        )
        path.write_bytes(blob[:-2])
        capture = Capture.load(path, _names(), salvage=True)
        assert capture.overflowed is True
        assert capture.label == "hot run"
        assert capture.counter_width_bits == 20
        assert capture.counter_rate_hz == 2_000_000


class TestDoctorCli:
    def _write_damaged(self, tmp_path) -> pathlib.Path:
        path = tmp_path / "damaged.mpf"
        path.write_bytes(_v2_blob()[:-7])
        return path

    def test_clean_file_exits_zero(self, tmp_path):
        path = tmp_path / "ok.mpf"
        write_capture_file(path, COLUMNS)
        code, text = run_cli("capture", "doctor", str(path))
        assert code == 0
        assert "0 defect(s)" in text and "MPF2" in text

    def test_defects_exit_one_and_repair_roundtrips(self, tmp_path):
        damaged = self._write_damaged(tmp_path)
        repaired = tmp_path / "repaired.mpf"
        code, text = run_cli(
            "capture", "doctor", str(damaged), "-o", str(repaired)
        )
        assert code == 1
        assert "P211" in text and "P212" in text  # partial record + count lie
        assert "repaired MPF2 capture written" in text
        # The repaired file is clean: strict reader accepts it, doctor
        # gives it a clean bill.
        assert read_records(repaired) == RECORDS[:-2]
        code, _ = run_cli("capture", "doctor", str(repaired))
        assert code == 0

    def test_unrecognisable_file_exits_two(self, tmp_path):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"\x7fELF" + b"\x00" * 60)
        code, text = run_cli("capture", "doctor", str(junk))
        assert code == 2
        assert "P213" in text

    def test_missing_file_exits_two(self, tmp_path):
        code, text = run_cli("capture", "doctor", str(tmp_path / "absent.mpf"))
        assert code == 2
        assert "cannot read" in text

    def test_legacy_file_notes_metadata_default(self, tmp_path):
        path = tmp_path / "legacy.mpf"
        write_capture_file(path, COLUMNS, version=1)
        code, text = run_cli("capture", "doctor", str(path))
        assert code == 0  # informational only: the file itself is healthy
        assert "P208" in text

    def test_plain_capture_command_still_works(self):
        """The doctor subcommand must not break the flag-only invocation."""
        code, text = run_cli("capture", "--workload", "network", "--packets", "4")
        assert code == 0
        assert "captured" in text


class TestAnalyzeSalvageCli:
    def _save_run(self, tmp_path) -> tuple[pathlib.Path, pathlib.Path]:
        capture_file = tmp_path / "run.mpf"
        names_file = tmp_path / "run.tags"
        code, _ = run_cli(
            "capture", "--workload", "network", "--packets", "4",
            "--save", str(capture_file), "--names", str(names_file),
        )
        assert code == 0
        return capture_file, names_file

    def test_damaged_capture_degrades_gracefully(self, tmp_path):
        capture_file, names_file = self._save_run(tmp_path)
        capture_file.write_bytes(capture_file.read_bytes()[:-3])
        # --strict refuses…
        code, text = run_cli(
            "analyze", str(capture_file), "--names", str(names_file), "--strict"
        )
        assert code == 1 and "refusing" in text
        # …--salvage analyses what survived and lists the damage.
        code, text = run_cli(
            "analyze", str(capture_file), "--names", str(names_file), "--salvage"
        )
        assert code == 0
        assert "Elapsed time" in text
        assert "salvage:" in text and "[partial-record]" in text

    def test_clean_capture_reports_no_defects(self, tmp_path):
        capture_file, names_file = self._save_run(tmp_path)
        code, text = run_cli(
            "analyze", str(capture_file), "--names", str(names_file), "--salvage"
        )
        assert code == 0
        assert "salvage: no defects found" in text

    def test_salvage_flag_conflicts(self, tmp_path):
        capture_file, names_file = self._save_run(tmp_path)
        with pytest.raises(SystemExit) as usage:
            main([
                "analyze", str(capture_file), "--names", str(names_file),
                "--salvage", "--strict",
            ], out=lambda _: None)
        assert usage.value.code == 2


class TestFullReportFooter:
    def test_full_report_lists_defects(self, tmp_path):
        from repro.analysis.reports import full_report

        path = tmp_path / "damaged.mpf"
        path.write_bytes(_v2_blob(overflowed=True)[:-2])
        capture = Capture.load(path, _names(), salvage=True)
        text = full_report(capture, include_trace=False)
        assert "RAM overflowed" in text
        assert "salvaged" in text and "[partial-record]" in text


class TestLintIntegration:
    def test_lint_capture_file_salvage_mode(self, tmp_path):
        from repro.lint.runner import lint_capture_file

        path = tmp_path / "damaged.mpf"
        path.write_bytes(_v2_blob()[:-7])
        strict = lint_capture_file(path, _names())
        assert strict.codes() == ("P200",)
        forgiving = lint_capture_file(path, _names(), salvage=True)
        assert "P200" in forgiving.codes()
        assert "P211" in forgiving.codes() and "P212" in forgiving.codes()

    def test_mpf1_file_gets_info_diagnostic(self, tmp_path):
        from repro.lint.runner import lint_capture_file

        path = tmp_path / "legacy.mpf"
        write_capture_file(path, columns_of([RawRecord(tag=500, time=1)]), version=1)
        report = lint_capture_file(path, _names(), ram_depth=None)
        assert "P208" in report.codes()
        assert report.ok  # info severity: never fails a CI gate


class TestGoldenCrc:
    def test_v2_golden_crcs_verify(self):
        """The checked-in MPF2 goldens carry self-consistent CRCs."""
        for name in ("figure3_network_v2.mpf", "figure5_forkexec_v2.mpf"):
            blob = (GOLDEN_DIR / name).read_bytes()
            header_size = int.from_bytes(blob[4:6], "big")
            crc = int.from_bytes(blob[16:20], "big")
            assert zlib.crc32(blob[header_size:]) == crc
