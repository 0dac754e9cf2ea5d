"""The Profiler's 40-bit-wide battery-backed trace RAM.

Five 8-bit static RAMs side by side give a 40-bit word: 16 bits of event
tag and 24 bits of latched microsecond counter.  The stock board is 16384
words deep ("there is no inherent limit ... except the maximum amount of
memory designed into the Profiler", so depth is a parameter).

The RAMs sit in battery-backed SmartSocket carriers; after a capture they
are physically moved to another host for readback, which is why the RAM
object survives independently of the board and why its contents serialise
losslessly (:mod:`repro.profiler.upload`).

Each word is exactly two fields, so the RAM stores a tag column and a time
column, and :class:`RecordColumns` carries them onward: a capture, a file
read and every analysis pass hold records in that shape.
:class:`RawRecord` is the view of one word as an object (``ram[i]``,
:meth:`RecordColumns.record`), for tests and tooling.
"""

from __future__ import annotations

import dataclasses
import sys
from array import array
from typing import Sequence

TAG_BITS = 16
TIME_BITS = 24
TAG_MASK = (1 << TAG_BITS) - 1
TIME_MASK = (1 << TIME_BITS) - 1

#: Stock board depth: "The list is currently 16384 events long."
DEFAULT_DEPTH = 16384

#: Bytes per serialised record: 2 tag + 3 time.
RECORD_BYTES = 5

#: array typecode holding at least 32 bits (platform-dependent width of "I").
U32_TYPECODE = "I" if array("I").itemsize >= 4 else "L"

_LITTLE_ENDIAN = sys.byteorder == "little"


@dataclasses.dataclass(frozen=True)
class RawRecord:
    """One stored event: a 16-bit tag and a 24-bit counter snapshot."""

    tag: int
    time: int

    def __post_init__(self) -> None:
        if not (0 <= self.tag <= TAG_MASK):
            raise ValueError(f"tag {self.tag} does not fit in {TAG_BITS} bits")
        if not (0 <= self.time <= TIME_MASK):
            raise ValueError(f"time {self.time} does not fit in {TIME_BITS} bits")

    def pack(self) -> bytes:
        """Serialise to the 5-byte on-wire layout (tag, then time, big-endian)."""
        return self.tag.to_bytes(2, "big") + self.time.to_bytes(3, "big")

    @classmethod
    def unpack(cls, blob: bytes) -> "RawRecord":
        """Decode one 5-byte record."""
        if len(blob) != 5:
            raise ValueError(f"record must be 5 bytes, got {len(blob)}")
        return cls(tag=int.from_bytes(blob[:2], "big"), time=int.from_bytes(blob[2:], "big"))


@dataclasses.dataclass(frozen=True)
class RecordColumns:
    """Records as two parallel columns instead of one object each.

    ``tags`` and ``times`` are :mod:`array` arrays (unsigned 16-bit and
    >= 32-bit respectively) holding field by field what a list of
    :class:`RawRecord` would, at 6 bytes per record — the shape of the
    RAM word itself, and the one every reader, writer and analysis pass
    works on.  ``times`` are the raw wrapped counter snapshots;
    unwrapping to an absolute timeline is the analysis layer's job
    (:func:`repro.analysis.columnar.unwrap_times`).
    """

    tags: Sequence[int]
    times: Sequence[int]

    def __len__(self) -> int:
        return len(self.tags)

    def record(self, offset: int) -> RawRecord:
        """The record at *offset*, as an object (bounds-checked by the arrays)."""
        return RawRecord(tag=self.tags[offset], time=self.times[offset])

    def to_records(self) -> list[RawRecord]:
        """Every record as an object, for tests and tooling."""
        return list(map(RawRecord, self.tags, self.times))

    def to_bytes(self) -> bytes:
        """Serialise to the 5-byte-per-record wire stream."""
        n = len(self.tags)
        out = bytearray(n * RECORD_BYTES)
        tag_b = array("H", self.tags)
        time_b = array(U32_TYPECODE, self.times)
        if _LITTLE_ENDIAN:
            tag_b.byteswap()
            time_b.byteswap()
        raw_tags = tag_b.tobytes()
        # Undo the column shear: write each column back at its stride.
        out[0::RECORD_BYTES] = raw_tags[0::2]
        out[1::RECORD_BYTES] = raw_tags[1::2]
        step = time_b.itemsize
        raw_times = time_b.tobytes()
        out[2::RECORD_BYTES] = raw_times[step - 3 :: step]
        out[3::RECORD_BYTES] = raw_times[step - 2 :: step]
        out[4::RECORD_BYTES] = raw_times[step - 1 :: step]
        return bytes(out)


class TraceRam:
    """The event store: a tag column and a time column.

    The RAM itself is dumb — the address counter and write strobe live in
    the PAL (:mod:`repro.profiler.pal`).  It only enforces physical limits:
    a fixed depth and the 16+24 bit field widths.  ``ram[i]`` reads one
    word back as a :class:`RawRecord`.
    """

    def __init__(self, depth: int = DEFAULT_DEPTH) -> None:
        if depth <= 0:
            raise ValueError(f"RAM depth must be positive, got {depth}")
        self.depth = depth
        self._tags = array("H")
        self._times = array(U32_TYPECODE)

    def __len__(self) -> int:
        return len(self._tags)

    def __getitem__(self, index: int) -> RawRecord:
        return RawRecord(tag=self._tags[index], time=self._times[index])

    @property
    def full(self) -> bool:
        """True when every slot has been written (address counter at top)."""
        return len(self._tags) >= self.depth

    @property
    def free_slots(self) -> int:
        """Slots remaining before overflow."""
        return self.depth - len(self._tags)

    def store(self, tag: int, time: int) -> None:
        """Write one record at the current address; caller checks ``full``.

        Raises :class:`OverflowError` when the address counter has already
        topped out — real hardware gates the strobe in the PAL, and the
        PAL model does check first, so hitting this from board code is a
        logic bug.
        """
        if self.full:
            raise OverflowError(
                f"trace RAM overflow: all {self.depth} slots written"
            )
        self._tags.append(tag & TAG_MASK)
        self._times.append(time & TIME_MASK)

    def erase(self) -> None:
        """Clear all slots and reset the fill level (new capture)."""
        self._tags = array("H")
        self._times = array(U32_TYPECODE)

    def columns(self) -> RecordColumns:
        """A copy of every stored record, in store order."""
        return RecordColumns(tags=self._tags[:], times=self._times[:])

    def remove_for_transfer(self) -> "TraceRam":
        """Simulate pulling the battery-backed RAMs out of their sockets.

        Returns a new :class:`TraceRam` carrying the contents; this RAM is
        left empty (fresh chips socketed in their place).
        """
        carrier = TraceRam(depth=self.depth)
        carrier._tags, carrier._times = self._tags, self._times
        self.erase()
        return carrier
