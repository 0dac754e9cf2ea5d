"""Reference implementations the differential suites hold the program to.

The program decodes records one way: in columns
(:func:`repro.profiler.upload.decode_record_columns`,
:func:`repro.analysis.columnar.decode_columns`).  The walkers here do the
same jobs one record at a time — a :meth:`RawRecord.unpack`, a name-table
lookup and a wrap subtraction per record — simple enough to read as the
specification.  ``tests/test_decode_differential.py`` and
``tests/test_salvage_fuzz.py`` require the columnar code to agree with
them exactly; nothing outside ``tests/`` imports this module.
"""

from __future__ import annotations

import contextlib
import zlib
from typing import BinaryIO, Iterable, Iterator, Optional

from repro.analysis.events import DecodedEvent, EventKind, _check_width
from repro.instrument.namefile import NameTable
from repro.instrument.tags import TagKind
from repro.profiler import upload
from repro.profiler.ram import RawRecord
from repro.profiler.upload import (
    DEFAULT_CHUNK_RECORDS,
    RECORD_BYTES,
    TRAILER_BYTES,
    CaptureFormatError,
    decode_stream_trailer,
)

_KIND_FROM_TAG = {
    TagKind.ENTRY: EventKind.ENTRY,
    TagKind.EXIT: EventKind.EXIT,
    TagKind.INLINE: EventKind.INLINE,
}


# -- records -----------------------------------------------------------------


def load_records(blob: bytes) -> list[RawRecord]:
    """Decode a raw record stream one 5-byte record at a time."""
    if len(blob) % RECORD_BYTES:
        raise CaptureFormatError(
            f"record stream length {len(blob)} is not a multiple of {RECORD_BYTES}"
        )
    return [
        RawRecord.unpack(blob[i : i + RECORD_BYTES])
        for i in range(0, len(blob), RECORD_BYTES)
    ]


def iter_record_stream(
    stream: BinaryIO, *, chunk_records: int = DEFAULT_CHUNK_RECORDS
) -> Iterator[RawRecord]:
    """Read a raw record stream chunk by chunk, unpacking per record."""
    chunk_bytes = chunk_records * RECORD_BYTES
    leftover = b""
    while True:
        blob = stream.read(chunk_bytes)
        if not blob:
            break
        blob = leftover + blob
        usable = len(blob) - (len(blob) % RECORD_BYTES)
        for i in range(0, usable, RECORD_BYTES):
            yield RawRecord.unpack(blob[i : i + RECORD_BYTES])
        leftover = blob[usable:]
    if leftover:
        raise CaptureFormatError(
            f"record stream ends with a partial {len(leftover)}-byte record"
        )


def iter_capture_file(
    stream: BinaryIO, *, chunk_records: int = DEFAULT_CHUNK_RECORDS
) -> Iterator[RawRecord]:
    """Read a capture file (either version, closed or open-ended) per
    record, verifying the count and CRC32 at end of stream."""
    meta = upload._read_header(stream)
    chunk_bytes = chunk_records * RECORD_BYTES
    hold_back = TRAILER_BYTES if meta.streamed else 0
    crc = 0
    seen = 0
    leftover = b""
    while True:
        blob = stream.read(chunk_bytes)
        if not blob:
            break
        blob = leftover + blob
        usable = max(len(blob) - hold_back, 0)
        usable -= usable % RECORD_BYTES
        crc = zlib.crc32(blob[:usable], crc)
        for i in range(0, usable, RECORD_BYTES):
            yield RawRecord.unpack(blob[i : i + RECORD_BYTES])
        seen += usable // RECORD_BYTES
        leftover = blob[usable:]
    declared, declared_crc = meta.count, meta.crc32
    if meta.streamed:
        tail = leftover[-TRAILER_BYTES:] if len(leftover) >= TRAILER_BYTES else leftover
        leftover = leftover[: len(leftover) - len(tail)]
        if len(leftover) % RECORD_BYTES == 0:
            crc = zlib.crc32(leftover, crc)
            for i in range(0, len(leftover), RECORD_BYTES):
                yield RawRecord.unpack(leftover[i : i + RECORD_BYTES])
            seen += len(leftover) // RECORD_BYTES
            leftover = b""
        declared, declared_crc = decode_stream_trailer(tail)
    if leftover:
        raise CaptureFormatError(
            f"record stream ends with a partial {len(leftover)}-byte record"
        )
    if seen != declared:
        raise CaptureFormatError(f"count {seen} is not the declared {declared}")
    if declared_crc is not None and crc != declared_crc:
        raise CaptureFormatError(f"CRC32 {crc:#010x} is not {declared_crc:#010x}")


@contextlib.contextmanager
def per_record_payload_decoder():
    """Make the program's batch and salvaging readers decode payloads
    with :func:`load_records` for the duration of the block."""
    columnar = upload.load_records
    upload.load_records = load_records
    try:
        yield
    finally:
        upload.load_records = columnar


# -- decoded events ----------------------------------------------------------


def decoded_events(
    records: Iterable[RawRecord],
    names: NameTable,
    width_bits: int = 24,
    *,
    start_index: int = 0,
    time_base_us: int = 0,
) -> Iterator[DecodedEvent]:
    """Decode records one at a time: name-table lookup, wrap subtraction.

    ``start_index`` and ``time_base_us`` place the first record in a
    longer run's frame of reference.  An over-width snapshot raises after
    the events before it have been yielded.
    """
    _check_width(width_bits)
    mask = (1 << width_bits) - 1
    absolute = time_base_us
    previous: Optional[int] = None
    index = start_index
    for record in records:
        if record.time > mask:
            raise ValueError(
                f"record time {record.time} exceeds the {width_bits}-bit counter"
            )
        if previous is not None:
            absolute += (record.time - previous) & mask
        previous = record.time
        decoded = names.decode(record.tag)
        if decoded is None:
            yield DecodedEvent(
                index=index,
                time_us=absolute,
                kind=EventKind.UNKNOWN,
                name=f"tag#{record.tag}",
                entry=None,
                raw=record,
            )
        else:
            entry, tag_kind = decoded
            yield DecodedEvent(
                index=index,
                time_us=absolute,
                kind=_KIND_FROM_TAG[tag_kind],
                name=entry.name,
                entry=entry,
                raw=record,
            )
        index += 1
