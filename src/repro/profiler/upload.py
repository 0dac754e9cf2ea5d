"""Getting the capture off the board and onto the analysis host.

The paper's workflow: "the timing data is retrieved by transferring the
RAMs into another networked embedded host, and copying the profile data to
a UNIX host for processing."  The future-work section proposes reading the
RAMs back *through* the EPROM window instead.  All three paths are
modelled:

* :meth:`RecordColumns.to_bytes` / :func:`decode_record_columns` — the
  canonical 5-byte big-endian record stream (16-bit tag, 24-bit time);
* :func:`write_capture_file` / :func:`read_capture` — the stream with a
  self-identifying header, the on-disk interchange format;
* :class:`EpromReadback` — the future-work mode: each RAM bank is
  multiplexed into the EPROM address space and read as if it were an
  EPROM, bank by bank.

Two header versions exist on disk.  **MPF1** is magic + u32 record count
and nothing else: a file that crossed hosts lost the counter geometry and
the overflow-LED state, so a non-stock capture decoded with the wrong wrap
mask.  **MPF2** is self-describing — counter width and rate, the overflow
flag, a free-form label and a CRC32 of the record stream — and carries its
own header size so future fields can append without breaking old readers::

    MPF1                          MPF2
    0  4  magic "MPF1"            0   4  magic "MPF2"
    4  4  record count            4   2  header size H (>= 22)
    8  …  records                 6   4  record count
                                  10  1  counter width (bits)
                                  11  4  counter rate (Hz)
                                  15  1  flags (bit 0 = overflowed,
                                          bit 1 = open-ended stream)
                                  16  4  CRC32 of the record stream
                                  20  2  label length L
                                  22  L  label (UTF-8);  H = 22 + L
                                  H   …  records

An **open-ended** MPF2 stream (flags bit 1) is the live-profiling wire
form: the producer does not know the record count up front and the sink
(pipe, socket, FIFO) cannot seek for a backpatch, so the header carries
the sentinel count ``0xFFFFFFFF`` and a zero CRC, and the authoritative
count and CRC32 arrive in a 12-byte end-of-stream trailer instead::

    H + 5n      4  trailer magic "MPFT"
    H + 5n + 4  4  record count n
    H + 5n + 8  4  CRC32 of the record stream

Readers hold back the last 12 bytes while records stream — a consumer
can tail a capture before the producer finishes — and verify the trailer
at end of stream exactly as they verify a closed header.  A missing or
corrupt trailer raises :class:`CaptureFormatError` (the capture was cut
mid-stream); the salvaging decoder reports it as a ``missing-trailer``
defect and still recovers every whole record.

All multi-byte fields are big-endian.  Writers default to MPF2; every
reader accepts both versions transparently.  For files that met a real
transfer path (pipes, truncation, flipped bits) there is a salvaging
decoder, :func:`salvage_capture`, that resynchronises instead of
throwing and reports what it had to tolerate as :class:`CaptureDefect`s.

Records travel as :class:`~repro.profiler.ram.RecordColumns` — a tag
column and a time column, the shape of the RAM word — from the board to
every reader and writer; no path builds an object per record.
:func:`decode_record_columns` shears a record blob into the two columns
with constant-time-per-byte slice assignments, and every reader goes
through it.  There is one strict reader: the chunk loop behind
:func:`iter_capture_columns` checks the framing, the count and the CRC32,
and :func:`read_capture` is that loop with its batches joined, so a fault
reads the same whichever path meets it.  The salvaging decoder is the
forgiving alternative.  A one-record-at-a-time reference decoder lives
with the tests (``tests/oracles.py``), which hold the columnar one
bit-identical to it.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import os
import threading
import warnings
import zlib
from array import array
from pathlib import Path
from typing import BinaryIO, Callable, Generator, Iterable, Iterator, Optional, Union

from repro.profiler.ram import (
    _LITTLE_ENDIAN,
    RECORD_BYTES,
    TIME_BITS,
    U32_TYPECODE,
    RawRecord,
    RecordColumns,
    TraceRam,
)
from repro.telemetry import TELEMETRY as _TELEMETRY


class CaptureFormatError(ValueError):
    """A capture file or record stream violates the MPF1/MPF2 format.

    The one documented exception type every reader raises for *content*
    faults — bad magic, truncated header, ragged record stream, a header
    count that disagrees with the stream, a CRC mismatch — whether the
    capture is read whole (:func:`read_capture`), streamed
    (:func:`iter_capture_columns`) or probed for its header only
    (:func:`read_capture_meta`).  It subclasses
    :class:`ValueError` so pre-existing callers keep working.
    ``OSError`` from the underlying file passes through unchanged, and
    the salvaging decoder never raises on content at all.
    """

#: Capture-file magic: "McRae Profiler Format", versions 1 and 2.
MAGIC = b"MPF1"
MAGIC_V2 = b"MPF2"

#: MPF1 header: magic + u32 count.
V1_HEADER_BYTES = 8

#: MPF2 header without the label: everything up to the label bytes.
V2_FIXED_HEADER_BYTES = 22

#: The header count field is 32-bit in both versions.
MAX_RECORDS = 1 << 32

#: Sentinel header count of an open-ended MPF2 stream (flags bit 1 set):
#: the true count arrives in the end-of-stream trailer.
OPEN_COUNT = MAX_RECORDS - 1

#: End-of-stream trailer of an open-ended MPF2 stream.
TRAILER_MAGIC = b"MPFT"

#: Trailer size: magic (4) + record count u32 (4) + CRC32 u32 (4).  Not a
#: multiple of :data:`RECORD_BYTES`, so a stream that ends in a trailer can
#: never be mistaken for one that ends in whole records.
TRAILER_BYTES = 12

#: What an MPF1 header silently implies (the stock board).
STOCK_WIDTH_BITS = TIME_BITS
STOCK_RATE_HZ = 1_000_000

#: Records per read() in the streaming readers (8192 records = 40 KiB).
DEFAULT_CHUNK_RECORDS = 8192


class CaptureMetadataWarning(UserWarning):
    """Capture metadata was defaulted or dropped at a format boundary."""


@dataclasses.dataclass(frozen=True)
class CaptureMeta:
    """What a capture-file header says about its records.

    ``version`` is 1 or 2 (0 means the salvager could not even identify
    the format).  For MPF1 files the counter fields are the stock-board
    defaults the format implies, not anything the file recorded, and
    ``crc32`` is ``None``.  ``streamed`` marks an open-ended MPF2 stream:
    the header's count is the :data:`OPEN_COUNT` sentinel and ``crc32``
    is ``None`` because both truths live in the end-of-stream trailer.
    """

    version: int
    count: int
    counter_width_bits: int = STOCK_WIDTH_BITS
    counter_rate_hz: int = STOCK_RATE_HZ
    overflowed: bool = False
    label: str = ""
    crc32: Optional[int] = None
    streamed: bool = False


@dataclasses.dataclass(frozen=True)
class CaptureDefect:
    """One fault the salvaging decoder tolerated.

    ``kind`` is a stable machine-readable string (``bad-magic``,
    ``truncated-header``, ``bad-header-field``, ``partial-record``,
    ``count-mismatch``, ``crc-mismatch``, ``missing-trailer``);
    ``offset`` is the byte offset in the file where the fault sits, when
    that is meaningful.
    """

    kind: str
    message: str
    offset: Optional[int] = None


@dataclasses.dataclass
class SalvageResult:
    """Everything the salvaging decoder recovered from one file."""

    records: RecordColumns
    defects: list[CaptureDefect]
    meta: CaptureMeta


# -- the columnar record decoder ---------------------------------------------


def decode_record_columns(blob: Union[bytes, bytearray, memoryview]) -> RecordColumns:
    """Columnar batch decode of a raw record stream.

    Shears the interleaved 5-byte records into parallel tag/time arrays
    using strided slice assignment — every per-record operation happens
    inside the interpreter's C loops, no Python bytecode per record.
    """
    blob = bytes(blob)
    if len(blob) % RECORD_BYTES:
        raise CaptureFormatError(
            f"record stream length {len(blob)} is not a multiple of {RECORD_BYTES}"
        )
    n = len(blob) // RECORD_BYTES
    # Tags: bytes 0-1 of each record, re-packed as big-endian u16 pairs.
    tag_shear = bytearray(2 * n)
    tag_shear[0::2] = blob[0::RECORD_BYTES]
    tag_shear[1::2] = blob[1::RECORD_BYTES]
    tags = array("H", bytes(tag_shear))
    # Times: bytes 2-4, zero-padded into the tail of a u32 (or wider) slot.
    step = array(U32_TYPECODE).itemsize
    time_shear = bytearray(step * n)
    time_shear[step - 3 :: step] = blob[2::RECORD_BYTES]
    time_shear[step - 2 :: step] = blob[3::RECORD_BYTES]
    time_shear[step - 1 :: step] = blob[4::RECORD_BYTES]
    times = array(U32_TYPECODE, bytes(time_shear))
    if _LITTLE_ENDIAN:
        tags.byteswap()
        times.byteswap()
    return RecordColumns(tags=tags, times=times)


def _read_exact(stream: BinaryIO, size: int) -> bytes:
    """Read exactly *size* bytes, looping over short reads.

    A pipe or socket may legally return fewer bytes than asked; a single
    ``stream.read(n)`` there would misparse a perfectly good header.
    Returns whatever arrived before EOF (possibly short) — the caller
    decides whether a short result is an error.
    """
    chunks: list[bytes] = []
    need = size
    while need > 0:
        blob = stream.read(need)
        if not blob:
            break
        chunks.append(blob)
        need -= len(blob)
    return b"".join(chunks)


def _check_count(count: int) -> None:
    if count >= MAX_RECORDS:
        raise ValueError(
            f"capture holds {count} records but the header count field is "
            f"32-bit (max {MAX_RECORDS - 1}); split the run into multiple "
            "capture files"
        )


def _encode_v2_header(
    count: int,
    counter_width_bits: int,
    counter_rate_hz: int,
    overflowed: bool,
    label: str,
    crc32: int,
    streamed: bool = False,
) -> bytes:
    if not (1 <= counter_width_bits <= TIME_BITS):
        raise ValueError(
            f"counter width {counter_width_bits} outside 1..{TIME_BITS} bits"
        )
    if not (1 <= counter_rate_hz < 1 << 32):
        raise ValueError(f"counter rate {counter_rate_hz} Hz does not fit in 32 bits")
    label_bytes = label.encode("utf-8")
    if len(label_bytes) > 0xFFFF:
        raise ValueError(f"label is {len(label_bytes)} bytes; the limit is 65535")
    header_size = V2_FIXED_HEADER_BYTES + len(label_bytes)
    return (
        MAGIC_V2
        + header_size.to_bytes(2, "big")
        + count.to_bytes(4, "big")
        + counter_width_bits.to_bytes(1, "big")
        + counter_rate_hz.to_bytes(4, "big")
        + ((1 if overflowed else 0) | (2 if streamed else 0)).to_bytes(1, "big")
        + crc32.to_bytes(4, "big")
        + len(label_bytes).to_bytes(2, "big")
        + label_bytes
    )


def _decode_v2_body(body: bytes) -> CaptureMeta:
    """Decode the MPF2 header bytes that follow magic + header size."""
    count = int.from_bytes(body[0:4], "big")
    width = body[4]
    rate = int.from_bytes(body[5:9], "big")
    flags = body[9]
    crc32 = int.from_bytes(body[10:14], "big")
    label_len = int.from_bytes(body[14:16], "big")
    if not (1 <= width <= TIME_BITS):
        raise CaptureFormatError(
            f"MPF2 header counter width {width} outside 1..{TIME_BITS}"
        )
    if rate == 0:
        raise CaptureFormatError("MPF2 header counter rate is zero")
    if 16 + label_len > len(body):
        raise CaptureFormatError(
            f"MPF2 header label length {label_len} overruns the "
            f"{len(body) + 6}-byte header"
        )
    label = body[16 : 16 + label_len].decode("utf-8", errors="replace")
    streamed = bool(flags & 2)
    return CaptureMeta(
        version=2,
        count=count,
        counter_width_bits=width,
        counter_rate_hz=rate,
        overflowed=bool(flags & 1),
        label=label,
        # An open-ended header's count/CRC fields are placeholders: the
        # trailer is authoritative, so the header CRC is not exposed.
        crc32=None if streamed else crc32,
        streamed=streamed,
    )


def encode_stream_trailer(count: int, crc32: int) -> bytes:
    """Serialise the end-of-stream trailer of an open-ended MPF2 stream."""
    _check_count(count)
    return TRAILER_MAGIC + count.to_bytes(4, "big") + crc32.to_bytes(4, "big")


def decode_stream_trailer(blob: bytes) -> tuple[int, int]:
    """Decode an end-of-stream trailer: ``(record count, CRC32)``.

    Raises :class:`CaptureFormatError` when *blob* is not a whole, intact
    trailer — the signature every reader uses to report a capture that
    was cut before its producer closed the stream.
    """
    if len(blob) < TRAILER_BYTES:
        raise CaptureFormatError(
            f"open-ended capture ends without an end-of-stream trailer "
            f"({len(blob)} byte(s) remain, a trailer is {TRAILER_BYTES}): "
            "the stream was cut before the producer closed it"
        )
    if blob[: len(TRAILER_MAGIC)] != TRAILER_MAGIC:
        raise CaptureFormatError(
            f"open-ended capture trailer magic {blob[:4]!r} is not "
            f"{TRAILER_MAGIC!r}: the stream was cut or corrupted"
        )
    count = int.from_bytes(blob[4:8], "big")
    crc32 = int.from_bytes(blob[8:12], "big")
    return count, crc32


def _read_header(stream: BinaryIO) -> CaptureMeta:
    """Read and validate either version's header off *stream*.

    Every content fault — short file, bad magic, lying header fields —
    raises :class:`CaptureFormatError`, the same type from every reader,
    with truncation reported as truncation rather than as a magic
    mismatch.  Short reads are retried (:func:`_read_exact`), so pipe
    and socket sources parse exactly like regular files.
    """
    magic = _read_exact(stream, len(MAGIC))
    if len(magic) < len(MAGIC):
        raise CaptureFormatError(
            f"capture file header truncated: {len(magic)} byte(s) is "
            f"shorter than the {len(MAGIC)}-byte magic"
        )
    if magic == MAGIC:
        rest = _read_exact(stream, 4)
        if len(rest) < 4:
            raise CaptureFormatError("capture file header truncated")
        return CaptureMeta(version=1, count=int.from_bytes(rest, "big"))
    if magic == MAGIC_V2:
        size_blob = _read_exact(stream, 2)
        if len(size_blob) < 2:
            raise CaptureFormatError("capture file header truncated")
        header_size = int.from_bytes(size_blob, "big")
        if header_size < V2_FIXED_HEADER_BYTES:
            raise CaptureFormatError(
                f"MPF2 header claims {header_size} bytes, below the "
                f"{V2_FIXED_HEADER_BYTES}-byte minimum"
            )
        body = _read_exact(stream, header_size - 6)
        if len(body) < header_size - 6:
            raise CaptureFormatError("capture file header truncated")
        return _decode_v2_body(body)
    raise CaptureFormatError("not a Profiler capture file (bad magic)")


def _open_context(
    path_or_file: Union[str, Path, BinaryIO], mode: str
) -> contextlib.AbstractContextManager:
    if hasattr(path_or_file, "read" if "r" in mode else "write"):
        return contextlib.nullcontext(path_or_file)
    return open(Path(path_or_file), mode)  # type: ignore[arg-type]


def iter_capture_columns(
    path_or_file: Union[str, Path, BinaryIO],
    *,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    on_meta: Optional[Callable[[CaptureMeta], None]] = None,
) -> Iterator[RecordColumns]:
    """Stream a capture file as columnar record batches.

    Accepts both MPF1 and MPF2 headers and yields :class:`RecordColumns`
    batches of up to ``chunk_records`` records, accumulating the MPF2
    record-stream CRC32 *per chunk* (one :func:`zlib.crc32` call per
    read, never per record).  A mismatch between the header's record
    count and the stream length raises :class:`CaptureFormatError` at
    end of iteration — late, but without buffering the file — and so
    does an MPF2 record-stream CRC32 mismatch (MPF1 has no checksum to
    verify).

    Open-ended streams (flags bit 1) work off a live pipe/socket: the
    reader holds back the last :data:`TRAILER_BYTES` bytes so records
    flow while the producer is still writing, then verifies the trailer's
    count and CRC32 at end of stream — a cut stream raises instead of
    silently under-reporting.  ``on_meta`` is called with the parsed
    header before the first batch, so a reader of a stream it cannot
    re-read (stdin, a FIFO, a socket) learns its counter width too.
    """
    if chunk_records <= 0:
        raise ValueError(f"chunk_records must be positive, got {chunk_records}")
    with _open_context(path_or_file, "rb") as stream:
        meta = _read_header(stream)
        if on_meta is not None:
            on_meta(meta)
        yield from _decode_payload(stream, meta, chunk_records)


def _decode_payload(
    stream: BinaryIO,
    meta: CaptureMeta,
    chunk_records: int,
) -> Generator[RecordColumns, None, CaptureMeta]:
    """The one strict decoder: the record stream after *meta*'s header.

    Yields the batches of :func:`iter_capture_columns` and returns
    *meta*, with an open-ended stream's trailer count and CRC32 adopted.
    """
    check_crc = meta.crc32 is not None or meta.streamed
    hold_back = TRAILER_BYTES if meta.streamed else 0
    chunk_bytes = chunk_records * RECORD_BYTES
    telemetry = _TELEMETRY
    crc = 0
    seen = 0
    leftover = b""
    while True:
        blob = stream.read(chunk_bytes)
        if not blob:
            break
        blob = leftover + blob
        usable = len(blob) - hold_back
        usable -= usable % RECORD_BYTES
        if usable > 0:
            if check_crc:
                crc = zlib.crc32(blob[:usable], crc)
            if telemetry.enabled:
                with telemetry.span(
                    "upload.decode_chunk", records=usable // RECORD_BYTES
                ):
                    columns = decode_record_columns(blob[:usable])
                telemetry.count("upload.records.decoded", len(columns))
            else:
                columns = decode_record_columns(blob[:usable])
            seen += len(columns)
            yield columns
            leftover = blob[usable:]
        else:
            leftover = blob
    tail = b""
    if meta.streamed:
        # The loop leaves at most a trailer plus 4 bytes, so whatever
        # precedes the trailer is a partial record.
        split = max(len(leftover) - TRAILER_BYTES, 0)
        leftover, tail = leftover[:split], leftover[split:]
    if leftover:
        raise CaptureFormatError(
            f"record stream ends with a partial {len(leftover)}-byte record"
        )
    if meta.streamed:
        count, trailer_crc = decode_stream_trailer(tail)
        meta = dataclasses.replace(meta, count=count, crc32=trailer_crc)
        if check_crc and crc != trailer_crc:
            _TELEMETRY.count("upload.crc.failures")
            raise CaptureFormatError(
                f"record stream CRC32 {crc:#010x} disagrees with "
                f"the trailer's {trailer_crc:#010x}: the payload is corrupt"
            )
    if seen != meta.count:
        where = "trailer" if meta.streamed else "header"
        raise CaptureFormatError(
            f"capture file {where} claims {meta.count} records but stream "
            f"holds {seen}"
        )
    if check_crc and not meta.streamed and crc != meta.crc32:
        _TELEMETRY.count("upload.crc.failures")
        raise CaptureFormatError(
            f"record stream CRC32 {crc:#010x} disagrees with "
            f"the header's {meta.crc32:#010x}: the payload is corrupt"
        )
    return meta


def read_capture(
    path_or_file: Union[str, Path, BinaryIO],
) -> tuple[RecordColumns, CaptureMeta]:
    """Read a whole capture file of either version: every record as one
    :class:`RecordColumns`, plus the header metadata (an open-ended
    stream's trailer count and CRC32 adopted).

    The batches of :func:`iter_capture_columns`, joined: the same
    checks raise the same :class:`CaptureFormatError`.  Use
    :func:`salvage_capture` when the file may be damaged.
    """
    tags, times = array("H"), array(U32_TYPECODE)
    with _open_context(path_or_file, "rb") as stream:
        batches = _decode_payload(stream, _read_header(stream), DEFAULT_CHUNK_RECORDS)
        try:
            while True:
                batch = next(batches)
                tags.extend(batch.tags)
                times.extend(batch.times)
        except StopIteration as end:
            meta = end.value
    return RecordColumns(tags=tags, times=times), meta


def read_capture_meta(path_or_file: Union[str, Path, BinaryIO]) -> CaptureMeta:
    """Read just the header of a capture file (either version).

    Cheap — a few dozen bytes — so callers that stream the records can
    still learn the record count up front (the ``--progress`` ETA).
    Seekable open streams are restored to their starting position so the
    probe composes with a subsequent full read; a non-seekable stream
    (pipe, socket) is left positioned at the first record byte, and a
    damaged header raises the same :class:`CaptureFormatError` either
    way — never a misleading bad-magic for a merely short stream.
    """
    with _open_context(path_or_file, "rb") as stream:
        restore: Optional[int] = None
        # Sockets wrapped with makefile(), raw pipes and duck-typed
        # readers disagree on how they refuse seeking: some lack
        # seekable(), some lack tell(), some raise OSError from tell()
        # despite seekable() saying yes.  Probe defensively — a refusal
        # anywhere just means "don't restore", never an AttributeError
        # escaping a mere header peek.
        try:
            if stream.seekable():
                restore = stream.tell()
        except (AttributeError, OSError, ValueError):
            restore = None
        try:
            return _read_header(stream)
        finally:
            if restore is not None:
                stream.seek(restore)


# -- the header-probe cache --------------------------------------------------
#
# Fleet-scale ingestion probes the same headers over and over: the planner
# reads every header to order the corpus, the decode stage reads it again
# for the counter geometry, and a serve-mode rescan probes the whole inbox
# each poll.  A header never changes without the file changing, so a tiny
# (mtime_ns, size)-validated cache turns thousands of re-probes into one
# stat() each.

#: Maximum entries the header-probe cache retains (LRU beyond this).
META_CACHE_SIZE = 4096

_meta_cache: "collections.OrderedDict[str, tuple[tuple[int, int], CaptureMeta]]" = (
    collections.OrderedDict()
)
_meta_cache_lock = threading.Lock()


def clear_meta_cache() -> None:
    """Drop every cached header probe (test isolation)."""
    with _meta_cache_lock:
        _meta_cache.clear()


def cached_capture_meta(path: Union[str, Path]) -> CaptureMeta:
    """:func:`read_capture_meta` behind a ``(path, mtime, size)`` cache.

    Filesystem paths only — open streams have no stable identity and go
    straight to :func:`read_capture_meta`.  A cached entry is valid while
    the file's ``st_mtime_ns`` and ``st_size`` both match; a rewritten or
    truncated file re-probes.  Damaged headers raise exactly like the
    uncached probe and are never cached, so a file repaired in place is
    picked up on the next call.
    """
    if hasattr(path, "read"):
        return read_capture_meta(path)
    key = os.fspath(path)
    st = os.stat(key)
    token = (st.st_mtime_ns, st.st_size)
    with _meta_cache_lock:
        hit = _meta_cache.get(key)
        if hit is not None and hit[0] == token:
            _meta_cache.move_to_end(key)
            meta = hit[1]
        else:
            meta = None
    if meta is not None:
        if _TELEMETRY.enabled:
            _TELEMETRY.count("upload.meta.probes", kind="hit")
        return meta
    meta = read_capture_meta(path)
    with _meta_cache_lock:
        _meta_cache[key] = (token, meta)
        _meta_cache.move_to_end(key)
        while len(_meta_cache) > META_CACHE_SIZE:
            _meta_cache.popitem(last=False)
    if _TELEMETRY.enabled:
        _TELEMETRY.count("upload.meta.probes", kind="miss")
    return meta


class CaptureStreamWriter:
    """Incremental writer of an open-ended MPF2 stream (the live wire form).

    Writes the open-ended header (sentinel count, flags bit 1) on
    construction, then records in whatever increments the producer has
    them — per board drain, per chunk — and the authoritative
    count + CRC32 trailer on :meth:`close`.  Never seeks, so the target
    can be a pipe, socket or FIFO, and a consumer holding the other end
    (:func:`iter_capture_columns`) decodes records as they land.

    Usable as a context manager; the trailer is written on clean exit
    only, so an aborted producer leaves a stream the strict readers
    refuse (and the salvager repairs) rather than one that lies.
    """

    def __init__(
        self,
        stream: BinaryIO,
        *,
        counter_width_bits: int = STOCK_WIDTH_BITS,
        counter_rate_hz: int = STOCK_RATE_HZ,
        overflowed: bool = False,
        label: str = "",
    ) -> None:
        self._stream = stream
        self.count = 0
        self.crc32 = 0
        self.closed = False
        stream.write(
            _encode_v2_header(
                OPEN_COUNT,
                counter_width_bits,
                counter_rate_hz,
                overflowed,
                label,
                0,
                streamed=True,
            )
        )

    def write_bytes(self, blob: Union[bytes, bytearray, memoryview]) -> int:
        """Append pre-packed record bytes (a multiple of 5); returns count."""
        if self.closed:
            raise ValueError("capture stream writer is closed")
        blob = bytes(blob)
        if len(blob) % RECORD_BYTES:
            raise CaptureFormatError(
                f"record blob length {len(blob)} is not a multiple of "
                f"{RECORD_BYTES}"
            )
        added = len(blob) // RECORD_BYTES
        _check_count(self.count + added)
        if self.count + added >= OPEN_COUNT:
            raise ValueError(
                f"open-ended stream cannot carry {OPEN_COUNT} records or "
                "more: the sentinel count would be ambiguous"
            )
        self.crc32 = zlib.crc32(blob, self.crc32)
        self._stream.write(blob)
        self.count += added
        return added

    def write_records(self, records: Iterable[RawRecord]) -> int:
        """Append *records*; returns how many were written."""
        buffer = bytearray()
        for record in records:
            buffer += record.pack()
        return self.write_bytes(buffer) if buffer else 0

    def flush(self) -> None:
        flush = getattr(self._stream, "flush", None)
        if flush is not None:
            flush()

    def close(self) -> int:
        """Write the end-of-stream trailer; returns the final count."""
        if not self.closed:
            self._stream.write(encode_stream_trailer(self.count, self.crc32))
            self.flush()
            self.closed = True
        return self.count

    def __enter__(self) -> "CaptureStreamWriter":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if exc_type is None:
            self.close()


def _warn_v1_metadata_loss(
    counter_width_bits: int, counter_rate_hz: int, overflowed: bool, label: str
) -> None:
    if (counter_width_bits, counter_rate_hz, overflowed, label) != (
        STOCK_WIDTH_BITS,
        STOCK_RATE_HZ,
        False,
        "",
    ):
        warnings.warn(
            "MPF1 cannot carry capture metadata: counter width/rate, the "
            "overflow flag and the label are dropped — write version=2 to "
            "keep them",
            CaptureMetadataWarning,
            stacklevel=3,
        )


def write_capture_file(
    path_or_file: Union[str, Path, BinaryIO],
    columns: RecordColumns,
    *,
    version: int = 2,
    counter_width_bits: int = STOCK_WIDTH_BITS,
    counter_rate_hz: int = STOCK_RATE_HZ,
    overflowed: bool = False,
    label: str = "",
) -> int:
    """Write a capture file (header + record stream).

    MPF2 by default; ``version=1`` writes the legacy header byte-for-byte
    (and warns if that drops non-stock metadata).  Returns the number of
    records written.
    """
    count = len(columns)
    _check_count(count)
    payload = columns.to_bytes()
    if version == 1:
        _warn_v1_metadata_loss(counter_width_bits, counter_rate_hz, overflowed, label)
        header = MAGIC + count.to_bytes(4, "big")
    elif version == 2:
        header = _encode_v2_header(
            count,
            counter_width_bits,
            counter_rate_hz,
            overflowed,
            label,
            zlib.crc32(payload),
        )
    else:
        raise ValueError(f"unknown capture format version {version}")
    blob = header + payload
    if hasattr(path_or_file, "write"):
        path_or_file.write(blob)  # type: ignore[union-attr]
    else:
        Path(path_or_file).write_bytes(blob)  # type: ignore[arg-type]
    return count


def _read_exact_to_eof(stream: BinaryIO) -> bytes:
    """Drain *stream*, tolerating short reads the way :func:`_read_exact` does."""
    chunks: list[bytes] = []
    while True:
        blob = stream.read(1 << 20)
        if not blob:
            return b"".join(chunks)
        chunks.append(blob)


# -- the salvaging decoder ---------------------------------------------------


def _fuzzy_version(blob: bytes) -> Optional[int]:
    """Best-effort version from a damaged magic: >= 3 of 4 bytes agree.

    A flip in the version byte itself (``b"MPF?"``) matches both magics
    equally, so ties are broken by framing plausibility: the version
    whose header makes the record stream come out whole wins.
    """
    magic = blob[: len(MAGIC)]
    candidates = [
        version
        for candidate, version in ((MAGIC_V2, 2), (MAGIC, 1))
        if sum(a == b for a, b in zip(magic, candidate)) >= 3
    ]
    if len(candidates) != 1:
        for version in candidates:
            if version == 1 and len(blob) >= V1_HEADER_BYTES:
                count = int.from_bytes(blob[4:8], "big")
                if count * RECORD_BYTES == len(blob) - V1_HEADER_BYTES:
                    return 1
            if version == 2 and len(blob) >= V2_FIXED_HEADER_BYTES:
                header_size = int.from_bytes(blob[4:6], "big")
                count = int.from_bytes(blob[6:10], "big")
                if (
                    V2_FIXED_HEADER_BYTES <= header_size <= len(blob)
                    and count * RECORD_BYTES == len(blob) - header_size
                ):
                    return 2
    return candidates[0] if candidates else None


def salvage_capture_bytes(blob: bytes) -> SalvageResult:
    """Decode a possibly damaged capture image, resynchronising on faults.

    Never raises on content: every fault becomes a :class:`CaptureDefect`
    and decoding continues with the most plausible interpretation.  A
    single flipped magic bit, a truncated tail, a lying record count or a
    corrupt payload all still yield every recoverable record.
    """
    result = _salvage_capture_bytes(blob)
    if _TELEMETRY.enabled:
        _TELEMETRY.count("upload.records.salvaged", len(result.records))
        for defect in result.defects:
            _TELEMETRY.count("upload.salvage.defects", kind=defect.kind)
    return result


def _nothing_recovered(defects: list[CaptureDefect], version: int) -> SalvageResult:
    return SalvageResult(
        decode_record_columns(b""), defects, CaptureMeta(version=version, count=0)
    )


def _salvage_capture_bytes(blob: bytes) -> SalvageResult:
    defects: list[CaptureDefect] = []
    n = len(blob)
    if n < len(MAGIC):
        defects.append(
            CaptureDefect(
                "truncated-header",
                f"file is {n} byte(s), shorter than any capture magic",
                offset=0,
            )
        )
        return _nothing_recovered(defects, version=0)

    magic = blob[: len(MAGIC)]
    if magic == MAGIC:
        version = 1
    elif magic == MAGIC_V2:
        version = 2
    else:
        guessed = _fuzzy_version(blob)
        if guessed is None:
            defects.append(
                CaptureDefect(
                    "bad-magic",
                    f"magic {magic!r} matches no known capture format",
                    offset=0,
                )
            )
            return _nothing_recovered(defects, version=0)
        version = guessed
        defects.append(
            CaptureDefect(
                "bad-magic",
                f"magic {magic!r} is corrupt; resynchronised as MPF{version}",
                offset=0,
            )
        )

    if version == 1:
        meta, data_offset = _salvage_v1_header(blob, defects)
    else:
        meta, data_offset = _salvage_v2_header(blob, defects)
    if meta is None:
        return _nothing_recovered(defects, version=version)

    payload = blob[data_offset:]
    if meta.streamed:
        # Open-ended stream: the trailer, not the header, carries the
        # count and CRC.  A well-formed tail ends in "MPFT" + count +
        # CRC; anything else means the producer was cut mid-stream.
        if (
            len(payload) >= TRAILER_BYTES
            and payload[-TRAILER_BYTES:][: len(TRAILER_MAGIC)] == TRAILER_MAGIC
        ):
            count, crc32 = decode_stream_trailer(payload[-TRAILER_BYTES:])
            payload = payload[: len(payload) - TRAILER_BYTES]
            meta = dataclasses.replace(meta, count=count, crc32=crc32)
        else:
            defects.append(
                CaptureDefect(
                    "missing-trailer",
                    "open-ended capture ends without an end-of-stream "
                    "trailer: the stream was cut before the producer "
                    "closed it",
                    offset=data_offset + len(payload),
                )
            )
            # No declared count or CRC survives; whatever whole records
            # remain are the recovery.
            meta = dataclasses.replace(
                meta, count=len(payload) // RECORD_BYTES, crc32=None
            )
    remainder = len(payload) % RECORD_BYTES
    if remainder:
        defects.append(
            CaptureDefect(
                "partial-record",
                f"{remainder} trailing byte(s) are not a whole record; dropped",
                offset=data_offset + len(payload) - remainder,
            )
        )
        payload = payload[: len(payload) - remainder]
    records = decode_record_columns(payload)

    if len(records) != meta.count:
        defects.append(
            CaptureDefect(
                "count-mismatch",
                f"header claims {meta.count} records but the stream holds "
                f"{len(records)}",
                offset=len(MAGIC),
            )
        )
    elif meta.crc32 is not None and not remainder:
        # Count and framing agree, so a CRC mismatch isolates payload
        # corruption (a truncated stream would mismatch trivially).
        actual = zlib.crc32(payload)
        if actual != meta.crc32:
            defects.append(
                CaptureDefect(
                    "crc-mismatch",
                    f"record stream CRC32 {actual:#010x} disagrees with the "
                    f"header's {meta.crc32:#010x}: at least one record byte "
                    "is corrupt",
                    offset=data_offset,
                )
            )
    meta = dataclasses.replace(meta, count=len(records))
    return SalvageResult(records, defects, meta)


def _salvage_v1_header(
    blob: bytes, defects: list[CaptureDefect]
) -> tuple[Optional[CaptureMeta], int]:
    if len(blob) < V1_HEADER_BYTES:
        defects.append(
            CaptureDefect(
                "truncated-header",
                f"MPF1 header needs {V1_HEADER_BYTES} bytes, file holds "
                f"{len(blob)}",
                offset=len(blob),
            )
        )
        return None, 0
    count = int.from_bytes(blob[4:V1_HEADER_BYTES], "big")
    return CaptureMeta(version=1, count=count), V1_HEADER_BYTES


def _salvage_v2_header(
    blob: bytes, defects: list[CaptureDefect]
) -> tuple[Optional[CaptureMeta], int]:
    if len(blob) < V2_FIXED_HEADER_BYTES:
        defects.append(
            CaptureDefect(
                "truncated-header",
                f"MPF2 header needs at least {V2_FIXED_HEADER_BYTES} bytes, "
                f"file holds {len(blob)}",
                offset=len(blob),
            )
        )
        return None, 0
    header_size = int.from_bytes(blob[4:6], "big")
    clamped = False
    if header_size < V2_FIXED_HEADER_BYTES:
        defects.append(
            CaptureDefect(
                "bad-header-field",
                f"header size {header_size} is below the "
                f"{V2_FIXED_HEADER_BYTES}-byte minimum; assuming a label-less "
                "header",
                offset=4,
            )
        )
        header_size = V2_FIXED_HEADER_BYTES
        clamped = True
    if header_size > len(blob):
        defects.append(
            CaptureDefect(
                "truncated-header",
                f"header claims {header_size} bytes but the file holds "
                f"{len(blob)}; treating everything past the fixed header as "
                "records",
                offset=len(blob),
            )
        )
        header_size = V2_FIXED_HEADER_BYTES
        clamped = True
    count = int.from_bytes(blob[6:10], "big")
    width = blob[10]
    rate = int.from_bytes(blob[11:15], "big")
    flags = blob[15]
    crc32 = int.from_bytes(blob[16:20], "big")
    label_len = int.from_bytes(blob[20:22], "big")
    if not (1 <= width <= TIME_BITS):
        defects.append(
            CaptureDefect(
                "bad-header-field",
                f"counter width {width} outside 1..{TIME_BITS} bits; assuming "
                f"the stock {STOCK_WIDTH_BITS}",
                offset=10,
            )
        )
        width = STOCK_WIDTH_BITS
    if rate == 0:
        defects.append(
            CaptureDefect(
                "bad-header-field",
                f"counter rate is zero; assuming the stock {STOCK_RATE_HZ} Hz",
                offset=11,
            )
        )
        rate = STOCK_RATE_HZ
    if not clamped and V2_FIXED_HEADER_BYTES + label_len != header_size:
        defects.append(
            CaptureDefect(
                "bad-header-field",
                f"label length {label_len} disagrees with header size "
                f"{header_size}; trusting the header size",
                offset=20,
            )
        )
    label = blob[V2_FIXED_HEADER_BYTES:header_size].decode("utf-8", errors="replace")
    streamed = bool(flags & 2)
    meta = CaptureMeta(
        version=2,
        count=count,
        counter_width_bits=width,
        counter_rate_hz=rate,
        overflowed=bool(flags & 1),
        label=label,
        crc32=None if streamed else crc32,
        streamed=streamed,
    )
    return meta, header_size


def salvage_capture(path_or_file: Union[str, Path, BinaryIO]) -> SalvageResult:
    """Salvage a capture from a path or open stream (full result)."""
    if hasattr(path_or_file, "read"):
        blob = _read_exact_to_eof(path_or_file)  # type: ignore[arg-type]
    else:
        blob = Path(path_or_file).read_bytes()  # type: ignore[arg-type]
    return salvage_capture_bytes(blob)


class EpromReadback:
    """Future-work readback: multiplex each RAM bank into the EPROM window.

    The board has five 8-bit RAM banks; selecting bank *b* makes byte *b*
    of every record readable at the record's address, "and the data can be
    read as if it were an EPROM".  The host reads all five banks and
    reassembles records.
    """

    BANKS = RECORD_BYTES

    def __init__(self, ram: TraceRam) -> None:
        self.ram = ram
        self.selected_bank = 0

    def select_bank(self, bank: int) -> None:
        """Flip the board's bank-select switches."""
        if not (0 <= bank < self.BANKS):
            raise ValueError(f"bank {bank} out of range 0..{self.BANKS - 1}")
        self.selected_bank = bank

    def read(self, address: int) -> int:
        """Read one byte of the selected bank at record *address*."""
        if not (0 <= address < self.ram.depth):
            raise ValueError(f"address {address} outside RAM depth {self.ram.depth}")
        if address >= len(self.ram):
            return 0xFF
        return self.ram[address].pack()[self.selected_bank]

    def read_all(self) -> list[RawRecord]:
        """Host-side procedure: read every bank, reassemble every record."""
        banks: list[list[int]] = []
        for bank in range(self.BANKS):
            self.select_bank(bank)
            banks.append([self.read(addr) for addr in range(len(self.ram))])
        records = []
        for i in range(len(self.ram)):
            blob = bytes(banks[bank][i] for bank in range(self.BANKS))
            records.append(RawRecord.unpack(blob))
        return records
