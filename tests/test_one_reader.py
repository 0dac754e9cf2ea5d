"""One capture reader: every command names a capture's fault alike.

The strict readers, the salvager, ``capture doctor`` and ``lint`` all
read a capture through one header parser and one record-stream decoder,
so each fault has one text, and on an open-ended stream one P8xx code.
Each case below is a capture on which separate copies of the format
once disagreed: a stream cut before its trailer, a flipped bit, a
trailer that lies about the count, a header a later version extended,
and a label that is not UTF-8.
"""

from __future__ import annotations

import io
import re

import pytest

from repro.__main__ import main
from repro.lint.live_lint import lint_live_stream
from repro.profiler.ram import RawRecord
from repro.profiler.upload import (
    CaptureFormatError,
    CaptureStreamWriter,
    iter_capture_columns,
    read_capture,
    salvage_capture_bytes,
    write_capture_file,
)
from stream_helpers import columns_of, make_names

MISSING_TRAILER = (
    "open-ended capture ends without an end-of-stream trailer: "
    "the stream was cut before the producer closed it"
)


def _records(pairs: int = 6) -> list[RawRecord]:
    """``read`` called *pairs* times: 2 * *pairs* records."""
    records = []
    for i in range(pairs):
        records.append(RawRecord(tag=502, time=10 * i))
        records.append(RawRecord(tag=503, time=10 * i + 5))
    return records


def _stream(records, *, close: bool = True, label: str = "wire") -> bytes:
    sink = io.BytesIO()
    writer = CaptureStreamWriter(sink, label=label)
    writer.write_records(records)
    if close:
        writer.close()
    return sink.getvalue()


def _closed(records, label: str = "wire") -> bytes:
    sink = io.BytesIO()
    write_capture_file(sink, columns_of(records), label=label)
    return sink.getvalue()


def _extend_header(blob: bytes, extra: bytes) -> bytes:
    """*blob* with *extra* header bytes after its label: the header a
    later version with more fields would write."""
    size = int.from_bytes(blob[4:6], "big")
    grown = (size + len(extra)).to_bytes(2, "big")
    return blob[:4] + grown + blob[6:size] + extra + blob[size:]


def _strict_text(blob: bytes) -> str:
    """The one text every strict reader raises on *blob*."""
    texts = set()
    for read in (
        lambda s: read_capture(s),
        lambda s: list(iter_capture_columns(s)),
        lambda s: list(iter_capture_columns(s, chunk_records=3)),
    ):
        with pytest.raises(CaptureFormatError) as excinfo:
            read(io.BytesIO(blob))
        texts.add(str(excinfo.value))
    assert len(texts) == 1, texts
    return texts.pop()


@pytest.fixture
def files(tmp_path):
    """Write named captures and a name table; return ``(write, tags)``."""
    tags = tmp_path / "t.tags"
    make_names(("main", 500), ("read", 502)).write(tags)

    def write(name: str, blob: bytes) -> str:
        path = tmp_path / name
        path.write_bytes(blob)
        return str(path)

    return write, str(tags)


def _cli(capsys, *argv: str) -> tuple[int, list[str], str]:
    """Run one command: its status, its stdout lines, its stderr."""
    chunks: list[str] = []
    code = main(list(argv), out=chunks.append)
    return code, "\n".join(chunks).splitlines(), capsys.readouterr().err


def _p8_codes(lines: list[str]) -> list[str]:
    return re.findall(r"\bP8\d\d\b", "\n".join(lines))


class TestCutStream:
    """A 12-record open-ended stream whose producer never wrote the trailer."""

    def test_strict_readers_name_the_missing_trailer(self):
        assert _strict_text(_stream(_records(), close=False)) == MISSING_TRAILER

    def test_salvage_keeps_every_record(self):
        result = salvage_capture_bytes(_stream(_records(), close=False))
        assert [d.message for d in result.defects] == [MISSING_TRAILER]
        assert result.records.to_records() == _records()

    def test_every_command_names_it_alike(self, files, capsys):
        write, tags = files
        cut = write("cut.mpf", _stream(_records(), close=False))
        code, lines, err = _cli(capsys, "analyze", cut, "--names", tags)
        assert code == 2 and err == f"repro: error: {MISSING_TRAILER}\n"
        code, lines, _ = _cli(capsys, "lint", cut, "--names", tags)
        assert code == 1
        assert f"{cut}: error P200: cannot read capture: {MISSING_TRAILER}" in lines
        assert _p8_codes(lines) == ["P801"]
        code, lines, _ = _cli(capsys, "capture", "doctor", cut)
        assert code == 1
        assert _p8_codes(lines) == ["P801"]
        assert MISSING_TRAILER in lines[0]


class TestStreamFaultCodes:
    """``capture doctor`` and ``lint`` give an open-ended stream's CRC32
    fault P802 and its count fault P803, with the strict reader's text."""

    def _flipped(self) -> bytes:
        blob = bytearray(_stream(_records()))
        blob[40] ^= 0x10
        return bytes(blob)

    def _lying(self) -> bytes:
        blob = bytearray(_stream(_records()))
        blob[-8:-4] = (10).to_bytes(4, "big")
        return bytes(blob)

    def test_salvaged_crc_fault_names_the_trailer(self):
        blob = self._flipped()
        text = _strict_text(blob)
        assert "the trailer's" in text
        defects = salvage_capture_bytes(blob).defects
        assert [(d.kind, d.message) for d in defects] == [("crc-mismatch", text)]

    @pytest.mark.parametrize("case,code", [("_flipped", "P802"), ("_lying", "P803")])
    def test_doctor_and_lint_agree(self, files, capsys, case, code):
        write, tags = files
        blob = getattr(self, case)()
        text = _strict_text(blob)
        path = write(f"{case}.mpf", blob)
        status, doctor, _ = _cli(capsys, "capture", "doctor", path)
        assert status == 1
        status, lint, _ = _cli(capsys, "lint", path, "--names", tags)
        assert status == 1
        assert _p8_codes(doctor) == _p8_codes(lint) == [code]
        for lines in (doctor, lint):
            (line,) = [line for line in lines if code in line]
            assert text in line
        status, analyzed, _ = _cli(capsys, "analyze", path, "--names", tags, "--salvage")
        assert status == 0
        assert any(text in line for line in analyzed)


class TestExtendedHeader:
    """A header 4 bytes longer than 22 + L: fields of a later version,
    which every reader skips."""

    @pytest.mark.parametrize("build", [_closed, _stream], ids=["closed", "open-ended"])
    def test_strict_and_salvage_read_it_alike(self, build):
        blob = _extend_header(build(_records(), label="extend"), b"\x00\x01\x02\x03")
        records, meta = read_capture(io.BytesIO(blob))
        result = salvage_capture_bytes(blob)
        assert result.defects == []
        assert records == result.records
        assert records.to_records() == _records()
        assert meta.label == result.meta.label == "extend"

    @pytest.mark.parametrize("build", [_closed, _stream], ids=["closed", "open-ended"])
    def test_doctor_and_lint_find_nothing(self, files, capsys, build):
        write, tags = files
        blob = _extend_header(build(_records(), label="extend"), b"\x00\x01\x02\x03")
        path = write("extended.mpf", blob)
        code, lines, _ = _cli(capsys, "capture", "doctor", path)
        assert code == 0, lines
        code, lines, _ = _cli(capsys, "lint", path, "--names", tags)
        assert _p8_codes(lines) == []
        assert len(lint_live_stream(path)) == 0


class TestUndecodableLabel:
    def test_lint_finds_no_stream_fault(self, files, capsys):
        write, tags = files
        blob = _stream(_records(), label="abc")
        label_at = blob.index(b"abc")
        blob = blob[:label_at] + b"\xff\xfe\xfd" + blob[label_at + 3 :]
        assert read_capture(io.BytesIO(blob))[0].to_records() == _records()
        path = write("label.mpf", blob)
        code, lines, _ = _cli(capsys, "lint", path, "--names", tags)
        assert _p8_codes(lines) == []
        assert len(lint_live_stream(path)) == 0
