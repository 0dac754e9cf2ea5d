"""Capture-session orchestration: arm, record, retrieve.

A :class:`CaptureSession` is the procedural wrapper around one profiling
run — the software equivalent of "press the switch, run the test, pull the
RAMs".  The result is a :class:`Capture`: the raw records, as the tag and
time columns the RAM stored, plus the name table that gives the tags
meaning, which is everything the analysis layer (:mod:`repro.analysis`)
consumes.  A capture saved to disk and loaded back holds the same columns.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.telemetry import TELEMETRY as _TELEMETRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.instrument.namefile import NameTable
    from repro.profiler.hardware import ProfilerBoard
    from repro.profiler.ram import RecordColumns
    from repro.profiler.upload import CaptureDefect


class Capture:
    """One completed profiling run, ready for analysis.

    ``records`` are exactly what the hardware stored, as a tag column and
    a column of wrapped 24-bit times; ``names`` maps tags back to
    functions; ``overflowed`` is the
    state of the overflow LED when the RAMs were pulled.  ``defects`` is
    non-empty only for captures loaded with ``salvage=True``: the faults
    the decoder tolerated while recovering the records.

    Only :meth:`save` and :meth:`load` import the capture-file codec
    (:mod:`repro.profiler.upload`), so a capture that stays in memory
    never compiles it.
    """

    def __init__(
        self,
        records: RecordColumns,
        names: NameTable,
        overflowed: bool = False,
        label: str = "",
        counter_width_bits: int = 24,
        counter_rate_hz: int = 1_000_000,
        defects: tuple[CaptureDefect, ...] = (),
    ) -> None:
        self.records = records
        self.names = names
        self.overflowed = overflowed
        self.label = label
        self.counter_width_bits = counter_width_bits
        self.counter_rate_hz = counter_rate_hz
        self.defects = defects

    def __len__(self) -> int:
        return len(self.records)

    def save(self, path: Union[str, Path], *, version: int = 2) -> int:
        """Write the records to a capture file (names travel separately,
        exactly as in the paper's workflow).

        MPF2 by default, so the counter geometry, overflow flag and label
        survive the trip; ``version=1`` writes the legacy header for old
        tools (and warns when that drops non-stock metadata).
        """
        from repro.profiler.upload import write_capture_file

        return write_capture_file(
            path,
            self.records,
            version=version,
            counter_width_bits=self.counter_width_bits,
            counter_rate_hz=self.counter_rate_hz,
            overflowed=self.overflowed,
            label=self.label,
        )

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        names: "NameTable",
        label: str = "",
        *,
        salvage: bool = False,
    ) -> "Capture":
        """Re-read a saved capture, pairing it with *names*.

        MPF2 files restore every field; MPF1 files carry no metadata, so
        the counter geometry and overflow flag default to stock values and
        a :class:`CaptureMetadataWarning` says so.  With ``salvage=True``
        a damaged file is decoded fault-tolerantly instead of raising:
        every recoverable record is kept and the tolerated faults land in
        :attr:`Capture.defects`.
        """
        from repro.profiler.upload import read_capture, salvage_capture

        defects: tuple[CaptureDefect, ...] = ()
        if salvage:
            result = salvage_capture(path)
            records, meta = result.records, result.meta
            defects = tuple(result.defects)
        else:
            records, meta = read_capture(path)
        if meta.version == 1:
            warn_legacy_metadata(path)
        return cls(
            records=records,
            names=names,
            overflowed=meta.overflowed,
            label=label or meta.label,
            counter_width_bits=meta.counter_width_bits,
            counter_rate_hz=meta.counter_rate_hz,
            defects=defects,
        )


def warn_legacy_metadata(path: Union[str, Path]) -> None:
    """Say that an MPF1 file's counter geometry and overflow flag were
    defaulted to stock values (warned at the reader's caller)."""
    from repro.profiler.upload import CaptureMetadataWarning

    warnings.warn(
        f"{path}: MPF1 carries no capture metadata; counter "
        "width/rate and the overflow flag defaulted to stock values "
        "— resave as MPF2 (Capture.save) to make the file "
        "self-describing",
        CaptureMetadataWarning,
        stacklevel=3,
    )


class CaptureSession:
    """Arms a board around a workload and retrieves the capture.

    Usage::

        session = CaptureSession(board, names)
        with session:
            run_workload()
        capture = session.capture

    The context manager presses the switch on entry and releases it on
    exit; :attr:`capture` pulls the battery-backed RAMs (emptying the
    board for the next run).

    Telemetry is sampled at the session *boundary* only — the per-strobe
    hot path (``eprom_strobe``, ``Kernel.enter``/``leave``) carries no
    probes at all, which is what keeps the disabled-overhead gate in
    ``benchmarks/bench_telemetry_overhead.py`` trivially satisfiable.
    The board's own statistics (stored/suppressed strobes, the overflow
    latch, RAM occupancy) already exist for free; disarm simply reads
    them out.
    """

    def __init__(
        self,
        board: ProfilerBoard,
        names: "NameTable",
        label: str = "",
    ) -> None:
        self.board = board
        self.names = names
        self.label = label
        self._capture: Optional[Capture] = None
        self._span = None

    def __enter__(self) -> "CaptureSession":
        self.board.reset()
        self.board.arm()
        if _TELEMETRY.enabled:
            self._span = _TELEMETRY.span("capture.run", label=self.label)
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.board.disarm()
        if _TELEMETRY.enabled:
            self._sample_board()
        if exc_type is None:
            self._capture = self._retrieve()

    def _sample_board(self) -> None:
        """Read the board's statistics into telemetry (boundary sampling)."""
        logic = self.board.logic
        ram = self.board.ram
        _TELEMETRY.count("profiler.triggers.latched", logic.stored_strobes)
        _TELEMETRY.count("profiler.strobes.suppressed", logic.suppressed_strobes)
        if self.board.overflow_led:
            _TELEMETRY.count("profiler.overflow")
        _TELEMETRY.set_gauge(
            "profiler.ram.occupancy", len(ram) / ram.depth if ram.depth else 0.0
        )
        span = self._span
        if span is not None:
            span.set(
                records=len(ram),
                overflowed=self.board.overflow_led,
                suppressed=logic.suppressed_strobes,
            )
            span.close()
            self._span = None

    @property
    def capture(self) -> Capture:
        """The completed capture; raises if the session has not finished."""
        if self._capture is None:
            raise RuntimeError(
                "no capture available: the session has not completed cleanly"
            )
        return self._capture

    def _retrieve(self) -> Capture:
        overflowed = self.board.overflow_led
        carrier = self.board.pull_rams()
        return Capture(
            records=carrier.columns(),
            names=self.names,
            overflowed=overflowed,
            label=self.label,
            counter_width_bits=self.board.counter.width_bits,
            counter_rate_hz=self.board.counter.rate_hz,
        )

