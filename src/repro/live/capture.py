"""The live producer: run a workload, stream the capture down a wire.

``repro live capture`` runs here.  The board constraint shapes the
design: capture RAM can only be drained at disarm, and arming resets the
board, so incremental RAM pulls would fracture the timer continuity the
decode depends on.  The producer therefore profiles the workload under
one ordinary :meth:`~repro.system.CaseStudySystem.profile` session —
byte-for-byte the records batch ``repro capture`` would keep — and then
*streams* them through :class:`~repro.profiler.upload.CaptureStreamWriter`
in flushed chunks, so the consumer on the far end of the pipe decodes,
summarises and renders concurrently with the producer's writes.  The
concurrency is real (a slow consumer backpressures the producer through
the pipe); the capture itself is the paper's post-hoc board drain.

The name/tag table still travels out of band, as in the paper's
workflow: pass ``names_out`` to write it where the consumer can find it.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Optional, Sequence, Union

from repro.atomicio import write_text_atomic
from repro.instrument.namefile import NameTable, format_name_file
from repro.profiler.upload import (
    DEFAULT_CHUNK_RECORDS,
    RECORD_BYTES,
    CaptureStreamWriter,
)
from repro.system import build_case_study

if TYPE_CHECKING:
    from repro.workloads import WorkloadSpec


@dataclasses.dataclass(frozen=True)
class LiveCaptureResult:
    """What the producer reports (on stderr) after the trailer is written."""

    workload: str
    records: int
    chunks: int
    overflowed: bool
    desyncs: int
    label: str
    names: NameTable


def stream_capture(
    sink: BinaryIO,
    workload: WorkloadSpec,
    *,
    packets: int = 2000,
    modules: Optional[Sequence[str]] = None,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    names_out: Optional[Union[str, Path]] = None,
    info: Optional[Callable[[str], None]] = None,
    on_names: Optional[Callable[[NameTable], None]] = None,
) -> LiveCaptureResult:
    """Profile *workload* (a registry entry, see
    :func:`repro.workloads.get_workload`) and stream the capture into
    *sink* as an open-ended MPF2 stream (header, flushed record chunks,
    trailer).

    *sink* is any writable binary stream — a pipe, socket ``makefile``,
    FIFO or regular file; nothing here seeks.  ``info`` receives
    human-oriented progress lines (the CLI points it at stderr so the
    wire stays pure).  Returns the producer-side accounting; the
    records on the wire are exactly the session's records, in order, so
    the consumer's drained summary matches batch analysis by
    construction.
    """
    if chunk_records <= 0:
        raise ValueError(f"chunk_records must be positive, got {chunk_records}")

    def say(line: str) -> None:
        if info is not None:
            info(line)

    system = build_case_study(profiled_modules=list(modules) if modules else None)
    say(
        f"built: {system.image.profiled_functions} profiled functions, "
        f"board depth {system.board.ram.depth}"
    )

    label = f"live: {workload.name}"
    capture = system.profile(
        lambda: workload.run_packets(system, packets), label=label
    )
    desyncs = system.kernel.stats.get("kstack_desync", 0)
    say(
        f"captured {len(capture)} events"
        + (" (RAM overflowed)" if capture.overflowed else "")
    )

    if names_out is not None:
        # Atomic (write + rename): the analyzer on the far end polls for
        # this file and must never observe a half-written table.
        write_text_atomic(Path(names_out), format_name_file(system.names))
        say(f"name/tag file written to {names_out}")
    if on_names is not None:
        # In-process consumers (repro top) get the table before the first
        # record hits the wire, so their analyzer can decode batch one.
        on_names(system.names)

    blob = capture.records.to_bytes()
    chunk_bytes = chunk_records * RECORD_BYTES
    chunks = 0
    with CaptureStreamWriter(
        sink,
        counter_width_bits=capture.counter_width_bits,
        counter_rate_hz=capture.counter_rate_hz,
        overflowed=capture.overflowed,
        label=label,
    ) as writer:
        for start in range(0, len(blob), chunk_bytes):
            writer.write_bytes(blob[start : start + chunk_bytes])
            writer.flush()
            chunks += 1
    say(
        f"streamed {writer.count} records in {chunks} chunk(s); "
        f"trailer crc32=0x{writer.crc32:08x}"
    )
    return LiveCaptureResult(
        workload=workload.name,
        records=writer.count,
        chunks=chunks,
        overflowed=capture.overflowed,
        desyncs=desyncs,
        label=label,
        names=system.names,
    )
