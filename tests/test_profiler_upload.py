"""Tests for capture serialisation and the EPROM-readback path."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, strategies as st

from repro.profiler.ram import RawRecord, TraceRam
from repro.profiler.upload import (
    MAGIC,
    CaptureFormatError,
    CaptureStreamWriter,
    EpromReadback,
    decode_record_columns,
    iter_capture_columns,
    read_capture,
    read_capture_meta,
    write_capture_file,
)

import oracles
from stream_helpers import columns_of, iter_records, read_records, record_bytes

records_strategy = st.lists(
    st.builds(
        RawRecord,
        tag=st.integers(min_value=0, max_value=0xFFFF),
        time=st.integers(min_value=0, max_value=0xFFFFFF),
    ),
    max_size=200,
)


class TestRecordStream:
    def test_pack_layout(self):
        blob = RawRecord(tag=0x1234, time=0x56789A).pack()
        assert blob == bytes([0x12, 0x34, 0x56, 0x78, 0x9A])

    def test_unpack_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            RawRecord.unpack(b"\x00" * 4)

    def test_load_rejects_ragged_stream(self):
        with pytest.raises(ValueError):
            decode_record_columns(b"\x00" * 7)

    @given(records=records_strategy)
    def test_roundtrip(self, records):
        assert columns_of(records).to_bytes() == record_bytes(records)
        assert decode_record_columns(record_bytes(records)).to_records() == records


class TestCaptureFile:
    def test_file_roundtrip(self, tmp_path):
        records = [RawRecord(tag=i, time=i * 10) for i in range(5)]
        path = tmp_path / "run1.mpf"
        assert write_capture_file(path, columns_of(records)) == 5
        assert read_records(path) == records

    def test_stream_roundtrip(self):
        records = [RawRecord(tag=1, time=2)]
        buffer = io.BytesIO()
        write_capture_file(buffer, columns_of(records))
        buffer.seek(0)
        assert read_records(buffer) == records

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_records(path)

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.mpf"
        records = [RawRecord(tag=1, time=2)]
        blob = b"MPF1" + (9).to_bytes(4, "big") + record_bytes(records)
        path.write_bytes(blob)
        with pytest.raises(ValueError):
            read_records(path)


class TestEpromReadback:
    def test_bank_multiplexed_readback(self):
        ram = TraceRam(depth=16)
        stored = [RawRecord(tag=100 + i, time=1000 * i) for i in range(5)]
        for record in stored:
            ram.store(record.tag, record.time)
        assert EpromReadback(ram).read_all() == stored

    def test_unwritten_slots_float_high(self):
        ram = TraceRam(depth=4)
        ram.store(1, 1)
        readback = EpromReadback(ram)
        readback.select_bank(0)
        assert readback.read(3) == 0xFF

    def test_bank_bounds(self):
        readback = EpromReadback(TraceRam(depth=4))
        with pytest.raises(ValueError):
            readback.select_bank(5)
        with pytest.raises(ValueError):
            readback.read(4)

    @given(records=records_strategy.filter(lambda r: len(r) <= 64))
    def test_readback_equals_direct_dump(self, records):
        ram = TraceRam(depth=64)
        for record in records:
            ram.store(record.tag, record.time)
        assert EpromReadback(ram).read_all() == ram.columns().to_records()


class TestStreamingCaptureIO:
    """The chunked readers/writers behind ``analyze``."""

    def _file(self, records):
        buffer = io.BytesIO()
        write_capture_file(buffer, columns_of(records))
        buffer.seek(0)
        return buffer

    def test_iter_capture_columns_partial_record_spanning_chunks(self):
        """A record split across two read() chunks must reassemble."""
        records = [RawRecord(tag=i, time=i) for i in range(10)]
        blob = self._file(records).getvalue()

        class DribbleStream(io.BytesIO):
            def read(self, n=-1):
                return super().read(min(n, 3) if n and n > 0 else n)

        batches = iter_capture_columns(DribbleStream(blob), chunk_records=4)
        assert [r for batch in batches for r in batch.to_records()] == records

    def test_iter_capture_file_roundtrip(self, tmp_path):
        records = [RawRecord(tag=i, time=i * 3) for i in range(50)]
        path = tmp_path / "run.mpf"
        write_capture_file(path, columns_of(records))
        assert list(iter_records(path, chunk_records=8)) == records

    def test_iter_capture_file_accepts_open_stream(self):
        records = [RawRecord(tag=5, time=9)]
        assert list(iter_records(self._file(records))) == records

    def test_iter_capture_file_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            list(iter_records(io.BytesIO(b"NOPE\x00\x00\x00\x00")))

    def test_iter_capture_file_count_mismatch_raises_at_end(self):
        records = [RawRecord(tag=1, time=2), RawRecord(tag=3, time=4)]
        blob = MAGIC + (9).to_bytes(4, "big") + record_bytes(records)
        iterator = iter_records(io.BytesIO(blob))
        assert next(iterator) == records[0]
        assert next(iterator) == records[1]
        with pytest.raises(ValueError, match="claims 9"):
            next(iterator)

    @given(records=records_strategy)
    def test_streaming_and_batch_formats_are_identical(self, records):
        """The open-ended wire form and the closed file carry the same
        records, for every reader."""
        streamed = io.BytesIO()
        with CaptureStreamWriter(streamed) as writer:
            writer.write_records(records)
        batch = io.BytesIO()
        write_capture_file(batch, columns_of(records))
        for blob in (streamed.getvalue(), batch.getvalue()):
            assert read_records(io.BytesIO(blob)) == records
            assert list(iter_records(io.BytesIO(blob))) == records


class _NonSeekable(io.RawIOBase):
    """A pipe-like stream: readable, never seekable."""

    def __init__(self, blob: bytes) -> None:
        self._inner = io.BytesIO(blob)

    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return False

    def readinto(self, buffer):
        blob = self._inner.read(len(buffer))
        buffer[: len(blob)] = blob
        return len(blob)


class TestCaptureFormatErrorContract:
    """The one documented exception type for capture *content* faults.

    Every reader — batch, per-record streaming, columnar streaming,
    header probe — raises :class:`CaptureFormatError` (a
    :class:`ValueError` subclass, so old callers keep working) with the
    same message for the same fault, seekable or not.
    """

    def _v2_file(self, records) -> bytes:
        buffer = io.BytesIO()
        write_capture_file(buffer, columns_of(records))
        return buffer.getvalue()

    def test_is_a_value_error(self):
        assert issubclass(CaptureFormatError, ValueError)

    def test_short_magic_reported_as_truncation_not_bad_magic(self):
        """A 2-byte file is a *truncated* file, not a magic mismatch."""
        for reader in (
            lambda s: read_capture_meta(s),
            lambda s: read_capture(s),
            lambda s: list(iter_records(s)),
            lambda s: list(iter_capture_columns(s)),
        ):
            with pytest.raises(CaptureFormatError) as excinfo:
                reader(io.BytesIO(b"MP"))
            message = str(excinfo.value)
            assert "truncated" in message
            assert "2 byte(s)" in message
            assert "magic)" not in message  # not the bad-magic wording

    def test_readers_agree_on_fault_messages(self):
        """Same fault, same message, whichever reader hits it."""
        records = [RawRecord(tag=1, time=2), RawRecord(tag=3, time=4)]
        good = self._v2_file(records)
        faults = {
            "bad-magic": b"NOPE" + good[4:],
            "count-lie": good[:6] + (9).to_bytes(4, "big") + good[10:],
            "crc-flip": good[:-1] + bytes([good[-1] ^ 0x01]),
        }
        for fault, blob in faults.items():
            messages = set()
            for reader in (
                lambda s: read_capture(s),
                lambda s: list(iter_records(s)),
                lambda s: list(iter_capture_columns(s)),
            ):
                with pytest.raises(CaptureFormatError) as excinfo:
                    reader(io.BytesIO(blob))
                messages.add(str(excinfo.value))
            assert len(messages) == 1, f"{fault}: {messages}"

    def test_trailing_garbage_raises_everywhere(self):
        """Trailing partial-record bytes: one exception and one message
        from every reader, whole-file or streaming."""
        blob = self._v2_file([RawRecord(tag=1, time=2)]) + b"\x00\x00"
        messages = set()
        for reader in (
            lambda s: read_capture(s),
            lambda s: list(iter_capture_columns(s)),
        ):
            with pytest.raises(CaptureFormatError) as excinfo:
                reader(io.BytesIO(blob))
            messages.add(str(excinfo.value))
        assert messages == {"record stream ends with a partial 2-byte record"}

    def test_ragged_stream_raises_in_both_record_decoders(self):
        blob = b"\x00" * 7
        with pytest.raises(CaptureFormatError, match="not a multiple"):
            oracles.load_records(blob)
        with pytest.raises(CaptureFormatError, match="not a multiple"):
            decode_record_columns(blob)

    def test_meta_probe_restores_seekable_position(self):
        records = [RawRecord(tag=i, time=i * 3) for i in range(7)]
        stream = io.BytesIO(self._v2_file(records))
        meta = read_capture_meta(stream)
        assert meta.count == 7
        assert stream.tell() == 0
        # The probe composes with a subsequent full read.
        assert list(iter_records(stream)) == records

    def test_meta_probe_leaves_non_seekable_at_first_record(self):
        records = [RawRecord(tag=i, time=i * 3) for i in range(7)]
        stream = io.BufferedReader(_NonSeekable(self._v2_file(records)))
        meta = read_capture_meta(stream)
        assert meta.count == 7
        # Documented contract: a pipe is positioned at the record bytes.
        assert decode_record_columns(stream.read()).to_records() == records

    def test_meta_probe_same_error_seekable_or_not(self):
        damaged = b"MP"
        with pytest.raises(CaptureFormatError) as seekable_err:
            read_capture_meta(io.BytesIO(damaged))
        with pytest.raises(CaptureFormatError) as pipe_err:
            read_capture_meta(io.BufferedReader(_NonSeekable(damaged)))
        assert str(seekable_err.value) == str(pipe_err.value)
