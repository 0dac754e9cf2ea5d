"""Columnar decode: the analysis ingest, one batch at a time.

Decoding one :class:`~repro.profiler.ram.RawRecord` at a time costs a
Python object, a name-table lookup and a wrap subtraction per record, so
the decode jobs run over the :class:`~repro.profiler.ram.RecordColumns`
every reader hands out:

1. **Timer unwrap** (:func:`unwrap_times`) — the modular
   difference-and-accumulate as two C-level passes (:func:`zip` +
   :func:`itertools.accumulate`) over a whole batch, once
   :func:`check_snapshots` has refused any snapshot wider than the
   counter;
2. **Tag decode** (:func:`build_decode_map`) — one memoizing dict
   lookup per record.

The reconstruction fold
(:class:`repro.analysis.summary.SummaryAccumulator`) does both as it
steps the raw ``(time, tag)`` pairs: it unwraps inline, looks each tag
up once in the :func:`build_decode_map` table, and shares
:func:`check_snapshots` with :func:`unwrap_times`.  Only the call tree
unwraps ahead of the fold:
:func:`repro.analysis.events.decode_capture` pairs a capture's
unwrapped times with its raw tags as :class:`ColumnarEvents`, which
:func:`repro.analysis.callstack.build_call_tree` steps through the fold.
``tests/test_decode_differential.py`` holds those columns identical to a
one-record-at-a-time reference decoder (``tests/oracles.py``) over
generated streams.
"""

from __future__ import annotations

from itertools import accumulate, islice
from typing import NamedTuple, Optional, Sequence

from repro.analysis.events import _check_width
from repro.instrument.namefile import NameTable
from repro.instrument.tags import TagEntry

#: Integer event codes, cheap to compare in the fold's hot loop
#: (:mod:`repro.analysis.summary` imports them as ``_ENTRY`` etc.).
CODE_ENTRY, CODE_EXIT, CODE_INLINE, CODE_UNKNOWN = 0, 1, 2, 3

#: Frame names treated as device-interrupt handlers: the timeline's
#: ``intr`` row, the Chrome trace's interrupt track and lint's nesting
#: check (P206).  The case-study kernel has a single ISA interrupt
#: dispatcher; real tag files name one handler per source, so the
#: timeline and the trace take any set of names.
INTERRUPT_FRAMES: frozenset[str] = frozenset({"ISAINTR"})


class _DecodeMap(dict):
    """Tag -> (code, name, entry, is context switch), memoizing unknown tags.

    ``__missing__`` synthesises the ``tag#N`` identity of a tag absent
    from the name file, and caches it so a burst of the same unknown tag
    costs one format call, not one per record.
    """

    def __missing__(self, tag: int) -> tuple[int, str, None, bool]:
        info = (CODE_UNKNOWN, f"tag#{tag}", None, False)
        self[tag] = info
        return info


def build_decode_map(
    names: NameTable,
) -> dict[int, tuple[int, str, Optional[TagEntry], bool]]:
    """Precompute raw tag value -> (event code, name, owning TagEntry,
    is context switch).

    One dict hit per record then yields its whole decoded identity
    without touching ``NameTable.decode``.  Unknown tags resolve (and
    memoize) on first sight.
    """
    decode_map = _DecodeMap()
    for entry in names:
        if entry.inline:
            decode_map[entry.entry_value] = (CODE_INLINE, entry.name, entry, False)
        else:
            switch = entry.context_switch
            decode_map[entry.entry_value] = (CODE_ENTRY, entry.name, entry, switch)
            decode_map[entry.exit_value] = (CODE_EXIT, entry.name, entry, switch)
    return decode_map


def build_tag_map(names: NameTable) -> dict[int, tuple[str, int, bool]]:
    """Raw tag value -> (name, event code, is context switch), for callers
    that classify raw tags without decoding them."""
    return {
        tag: (name, code, switch)
        for tag, (code, name, _, switch) in build_decode_map(names).items()
    }


def check_snapshots(raw_times: Sequence[int], width_bits: int) -> None:
    """Refuse a batch holding a snapshot wider than the counter.

    One :func:`max` over the whole batch; only a failing batch is walked,
    to raise :class:`ValueError` naming its first offending snapshot.
    """
    mask = (1 << width_bits) - 1
    if raw_times and max(raw_times) > mask:
        for t in raw_times:
            if t > mask:
                raise ValueError(
                    f"record time {t} exceeds the {width_bits}-bit counter"
                )


def unwrap_times(raw_times: Sequence[int], width_bits: int = 24) -> list[int]:
    """Vectorized counter unwrap: wrapped snapshots -> absolute timeline.

    The per-record ``(t - prev) & mask`` difference runs in one
    :func:`zip` comprehension and the running sum in one
    :func:`itertools.accumulate` — no Python-level loop state per record.
    The first snapshot is t=0.

    Every snapshot is validated against the counter width
    (:func:`check_snapshots`).
    """
    _check_width(width_bits)
    check_snapshots(raw_times, width_bits)
    mask = (1 << width_bits) - 1
    if not raw_times:
        return []
    deltas = [(b - a) & mask for a, b in zip(raw_times, islice(raw_times, 1, None))]
    return list(accumulate(deltas, initial=0))


class ColumnarEvents(NamedTuple):
    """Records with the counter unwrapped: absolute times beside the raw
    tags, as parallel columns.  The tags are left for the fold that
    steps them to look up."""

    times: Sequence[int]
    tags: Sequence[int]

    def __len__(self) -> int:
        return len(self.times)
