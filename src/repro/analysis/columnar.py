"""Columnar decode: the analysis ingest, one batch at a time.

Decoding one :class:`~repro.profiler.ram.RawRecord` at a time costs a
Python object, a name-table lookup and a wrap subtraction per record, so
the decode jobs of :mod:`repro.analysis.events` run over the
:class:`~repro.profiler.ram.RecordColumns` every reader hands out:

1. **Timer unwrap** (:func:`unwrap_times`) — the modular
   difference-and-accumulate as two C-level passes (:func:`zip` +
   :func:`itertools.accumulate`) over a whole batch, once
   :func:`check_snapshots` has refused any snapshot wider than the
   counter;
2. **Tag decode** (:func:`build_decode_map` + :func:`decode_columns`) —
   one memoizing dict lookup per record, batched into parallel code /
   name / entry / context-switch columns.

The reconstruction fold
(:class:`repro.analysis.summary.SummaryAccumulator`) needs neither pass:
it steps the raw ``(time, tag)`` pairs, unwrapping inline and looking
each tag up once in the same :func:`build_decode_map` table, and shares
:func:`check_snapshots` with :func:`unwrap_times`.  The product of the
two passes, :class:`ColumnarEvents`, serves the callers that want
decoded columns: the call tree
(:func:`repro.analysis.callstack.build_call_tree` steps a decoded
batch's absolute times and tags) and the tests.  It
holds every field a list of :class:`~repro.analysis.events.DecodedEvent`
would, column by column, and can materialise them
(:meth:`ColumnarEvents.to_events`) for callers that want objects.
``tests/test_decode_differential.py`` holds the columns field-identical
to a one-record-at-a-time reference decoder (``tests/oracles.py``) over
generated streams.
"""

from __future__ import annotations

import dataclasses
from itertools import accumulate, chain, islice
from typing import Optional, Sequence

from repro.analysis.events import DecodedEvent, EventKind, _check_width
from repro.instrument.namefile import NameTable
from repro.instrument.tags import TagEntry
from repro.profiler.ram import RawRecord, RecordColumns

#: Integer event codes — cheaper than :class:`EventKind` members in every
#: columnar hot loop.  Shared with the reconstruction fold
#: (:mod:`repro.analysis.summary` imports them as ``_ENTRY`` etc.).
CODE_ENTRY, CODE_EXIT, CODE_INLINE, CODE_UNKNOWN = 0, 1, 2, 3

#: Frame names treated as device-interrupt handlers: the timeline's
#: ``intr`` row, the Chrome trace's interrupt track and lint's nesting
#: check (P206).  The case-study kernel has a single ISA interrupt
#: dispatcher; real tag files name one handler per source, so the
#: timeline and the trace take any set of names.
INTERRUPT_FRAMES: frozenset[str] = frozenset({"ISAINTR"})

KIND_FROM_CODE = {
    CODE_ENTRY: EventKind.ENTRY,
    CODE_EXIT: EventKind.EXIT,
    CODE_INLINE: EventKind.INLINE,
    CODE_UNKNOWN: EventKind.UNKNOWN,
}


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

    One dict hit per record then yields every decoded column without
    touching ``NameTable.decode``.  Unknown tags resolve (and memoize) on
    first sight.
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


def unwrap_times(
    raw_times: Sequence[int],
    width_bits: int = 24,
    *,
    previous: Optional[int] = None,
    base: int = 0,
) -> list[int]:
    """Vectorized counter unwrap: wrapped snapshots -> absolute timeline.

    The per-record ``(t - prev) & mask`` difference runs in one
    :func:`zip` comprehension and the running sum in one
    :func:`itertools.accumulate` — no Python-level loop state per record.

    With ``previous``/``base`` a caller unwraps a *chunk* of a longer
    stream: ``previous`` is the last raw snapshot of the prior chunk and
    ``base`` its final absolute time.  When ``previous`` is ``None`` the
    first snapshot defines ``base`` (t=0 by default).

    Every snapshot is validated against the counter width
    (:func:`check_snapshots`).
    """
    _check_width(width_bits)
    check_snapshots(raw_times, width_bits)
    mask = (1 << width_bits) - 1
    if not raw_times:
        return []
    if previous is None:
        deltas = [
            (b - a) & mask for a, b in zip(raw_times, islice(raw_times, 1, None))
        ]
        return list(accumulate(deltas, initial=base))
    deltas = [(b - a) & mask for a, b in zip(chain((previous,), raw_times), raw_times)]
    return list(accumulate(deltas, initial=base))[1:]


@dataclasses.dataclass(frozen=True)
class ColumnarEvents:
    """A batch of decoded events as parallel columns.

    Field-for-field the same information as a list of
    :class:`DecodedEvent` — index ``start_index + i``, absolute time,
    event code, name, owning :class:`TagEntry` (``None`` for unknown
    tags) and the raw tag/time pair — held as columns so analysis passes
    iterate machine values, not objects.  ``switches`` flags the events of
    context-switch (``!``) functions.
    """

    start_index: int
    times: Sequence[int]
    codes: Sequence[int]
    names: Sequence[str]
    entries: Sequence[Optional[TagEntry]]
    switches: Sequence[bool]
    tags: Sequence[int]
    raw_times: Sequence[int]

    def __len__(self) -> int:
        return len(self.codes)

    def to_events(self) -> list[DecodedEvent]:
        """Materialise the whole batch as :class:`DecodedEvent` objects."""
        kinds = KIND_FROM_CODE
        return [
            DecodedEvent(
                index=index,
                time_us=time_us,
                kind=kinds[code],
                name=name,
                entry=entry,
                raw=RawRecord(tag=tag, time=raw_time),
            )
            for index, (time_us, code, name, entry, tag, raw_time) in enumerate(
                zip(
                    self.times,
                    self.codes,
                    self.names,
                    self.entries,
                    self.tags,
                    self.raw_times,
                ),
                start=self.start_index,
            )
        ]


def decode_columns(
    columns: RecordColumns,
    names: NameTable,
    width_bits: int = 24,
    *,
    start_index: int = 0,
    time_base_us: int = 0,
    previous: Optional[int] = None,
    decode_map: Optional[dict] = None,
) -> ColumnarEvents:
    """Decode one columnar record batch against *names*.

    The timer unwrap is vectorized (:func:`unwrap_times`, carrying
    ``previous``/``time_base_us`` across batches) and the tag decode is
    one memoized dict hit per record.  Passing a prebuilt ``decode_map``
    (:func:`build_decode_map`) amortises the table build across batches.

    The whole batch is validated before anything is returned, so an
    over-width snapshot raises *before* any of the batch's events are
    observable.
    """
    if decode_map is None:
        decode_map = build_decode_map(names)
    times = unwrap_times(
        columns.times, width_bits, previous=previous, base=time_base_us
    )
    tags = columns.tags
    info = [decode_map[tag] for tag in tags]
    if info:
        codes, name_col, entry_col, switches = zip(*info)
    else:
        codes = name_col = entry_col = switches = ()
    return ColumnarEvents(
        start_index=start_index,
        times=times,
        codes=codes,
        names=name_col,
        entries=entry_col,
        switches=switches,
        tags=tags,
        raw_times=columns.times,
    )
