"""Time reconstruction for the call tree.

The board stores only the low 24 bits of a 1 MHz counter.  "The analysis
software only uses the timer value as an interval time, not as an
absolute time": successive records are differenced modulo 2**24 and the
differences accumulated into an absolute microsecond timeline starting
at zero.  Any real gap of 16 seconds or more aliases irrecoverably (the
paper's stated limit); the decoder cannot detect that, so it is
documented rather than guessed at.

:func:`decode_capture` unwraps a whole capture's counter in columns
(:func:`repro.analysis.columnar.unwrap_times`) and pairs the absolute
times with the raw tags; the call tree's fold looks each tag up as it
steps it.  (The summary fold unwraps inline, one record at a time.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.profiler.ram import TIME_BITS

if TYPE_CHECKING:
    from repro.analysis.columnar import ColumnarEvents
    from repro.profiler.capture import Capture


def _check_width(width_bits: int) -> None:
    """A wrong wrap mask corrupts every reconstructed interval, so the
    counter width is validated wherever one enters the decode path."""
    if not (1 <= width_bits <= TIME_BITS):
        raise ValueError(
            f"counter width {width_bits} outside 1..{TIME_BITS} bits"
        )


def decode_capture(capture: Capture) -> ColumnarEvents:
    """*capture*'s records with the counter unwrapped: absolute times
    beside the raw tags.

    An over-width counter snapshot raises :class:`ValueError` before any
    event is returned.
    """
    from repro.analysis import columnar  # lazy: events is columnar's base

    records = capture.records
    return columnar.ColumnarEvents(
        times=columnar.unwrap_times(records.times, capture.counter_width_bits),
        tags=records.tags,
    )
