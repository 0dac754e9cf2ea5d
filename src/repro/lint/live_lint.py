"""Pass 9 — open-ended (live wire) capture streams: the P8xx family.

The live wire form trades the header's authoritative count and CRC32
for an end-of-stream trailer, which moves the failure modes: a producer
killed mid-stream leaves no trailer at all (P801), wire corruption
shows up as a trailer CRC disagreement (P802), and a stream that
carries a different number of records than its trailer declares was cut
short or padded (P803).

:func:`lint_live_stream` inspects a finished stream *file* (a FIFO
capture teed to disk, an inbox drop) without raising — the lint
counterpart of the strict readers in :mod:`repro.profiler.upload`, which
raise on the same faults while a consumer drains the stream.

Ordinary backpatched-header captures are out of scope by design: the
stream pass (P2xx) owns them, and this pass reports nothing on them.
"""

from __future__ import annotations

import io
import zlib
from pathlib import Path
from typing import Optional, Union

from repro.lint.diagnostics import LintReport
from repro.profiler.upload import (
    RECORD_BYTES,
    TRAILER_BYTES,
    V2_FIXED_HEADER_BYTES,
    CaptureFormatError,
    decode_stream_trailer,
    read_capture_meta,
)


def lint_live_stream(
    source: Union[str, Path],
    report: Optional[LintReport] = None,
) -> LintReport:
    """Verify the open-ended framing of one stream file, non-raising.

    Emits nothing for non-streamed captures (the P2xx pass owns those)
    and nothing for unreadable/malformed headers (ditto: P200/P209 are
    already on the report when the passes run chained).
    """
    report = report if report is not None else LintReport()
    path = str(source)
    try:
        blob = Path(source).read_bytes()
    except OSError:
        return report
    stream = io.BytesIO(blob)
    try:
        meta = read_capture_meta(stream)
    except (CaptureFormatError, ValueError):
        return report
    if not meta.streamed:
        return report
    header_bytes = V2_FIXED_HEADER_BYTES + len(meta.label.encode("utf-8"))
    payload = blob[header_bytes:]
    if len(payload) < TRAILER_BYTES:
        report.add(
            "P801",
            f"stream ends {TRAILER_BYTES - len(payload)} byte(s) short of "
            "any possible trailer: the producer never closed it",
            source=path,
        )
        return report
    records_blob, tail = payload[:-TRAILER_BYTES], payload[-TRAILER_BYTES:]
    try:
        declared_count, declared_crc = decode_stream_trailer(tail)
    except CaptureFormatError:
        report.add(
            "P801",
            "no end-of-stream trailer where the stream ends: the producer "
            "was cut off mid-stream",
            source=path,
        )
        return report
    whole, leftover = divmod(len(records_blob), RECORD_BYTES)
    if declared_count != whole or leftover:
        report.add(
            "P803",
            f"trailer declares {declared_count} record(s) but the stream "
            f"carries {whole}"
            + (f" plus {leftover} trailing byte(s)" if leftover else ""),
            source=path,
        )
        return report
    actual_crc = zlib.crc32(records_blob)
    if actual_crc != declared_crc:
        report.add(
            "P802",
            f"trailer CRC32 0x{declared_crc:08x} but the records hash to "
            f"0x{actual_crc:08x}: the wire corrupted in flight",
            source=path,
        )
    return report
