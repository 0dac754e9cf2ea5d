"""Raw-record decode and time reconstruction.

Two jobs, both purely mechanical:

1. **Tag decode** — look every 16-bit tag up in the name table and label
   it entry / exit / inline / unknown.
2. **Time reconstruction** — the board stores only the low 24 bits of a
   1 MHz counter.  "The analysis software only uses the timer value as an
   interval time, not as an absolute time": successive records are
   differenced modulo 2**24 and the differences accumulated into an
   absolute microsecond timeline starting at zero.  Any real gap of 16
   seconds or more aliases irrecoverably (the paper's stated limit); the
   decoder cannot detect that, so it is documented rather than guessed at.

Both run over columns in :mod:`repro.analysis.columnar`:
:func:`decode_capture` returns a
:class:`~repro.analysis.columnar.ColumnarEvents` batch, from which the
call tree is built.  (The summary fold does both jobs inline, one record
at a time.)  This module also holds the object
form of one decoded event, :class:`DecodedEvent`, which only
:meth:`~repro.analysis.columnar.ColumnarEvents.to_events` builds, for
callers that want objects.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING, Optional

from repro.instrument.tags import TagEntry
from repro.profiler.capture import Capture
from repro.profiler.ram import TIME_BITS, RawRecord

if TYPE_CHECKING:
    from repro.analysis.columnar import ColumnarEvents


def _check_width(width_bits: int) -> None:
    """A wrong wrap mask corrupts every reconstructed interval, so the
    counter width is validated wherever one enters the decode path."""
    if not (1 <= width_bits <= TIME_BITS):
        raise ValueError(
            f"counter width {width_bits} outside 1..{TIME_BITS} bits"
        )


class EventKind(enum.Enum):
    """Decoded meaning of one captured record."""

    ENTRY = "entry"
    EXIT = "exit"
    INLINE = "inline"
    UNKNOWN = "unknown"


@dataclasses.dataclass(frozen=True)
class DecodedEvent:
    """One record with its reconstructed time and decoded identity."""

    index: int
    time_us: int
    kind: EventKind
    name: str
    #: The owning name-table entry; ``None`` for unknown tags.
    entry: Optional[TagEntry]
    raw: RawRecord

    @property
    def is_context_switch(self) -> bool:
        """True when this event belongs to a ``!``-tagged function."""
        return self.entry is not None and self.entry.context_switch


def decode_capture(capture: Capture) -> ColumnarEvents:
    """Decode every record of *capture* against its name table, as columns.

    An over-width counter snapshot raises :class:`ValueError` before any
    event is returned.
    """
    from repro.analysis import columnar  # lazy: events is columnar's base

    return columnar.decode_columns(
        capture.records, capture.names, capture.counter_width_bits
    )
