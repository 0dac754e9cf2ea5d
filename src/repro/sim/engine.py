"""Deterministic event engine: simulated clock and interrupt queue.

The simulator's notion of "real time" is a single integer nanosecond
counter.  Devices *post* interrupts for future instants; the kernel's
execution layer consumes them whenever simulated time advances past their
due time **and** the current spl (interrupt priority level) does not mask
them.  Interrupts masked by spl stay pending and are delivered when the
level drops — exactly the behaviour the paper measures when it reports the
cost of the ``spl*`` synchronisation routines on the 386's flat interrupt
architecture.

Determinism rules:

* ties are broken by posting order (a monotone sequence number), and
* nothing here reads the wall clock or a global RNG.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, NamedTuple, Optional


class TimeError(Exception):
    """An attempt to move simulated time backwards or by a negative step."""


class SimClock:
    """Monotonic simulated time in integer nanoseconds."""

    def __init__(self, start_ns: int = 0) -> None:
        if start_ns < 0:
            raise TimeError(f"negative start time {start_ns}")
        self._now_ns = start_ns

    @property
    def now_ns(self) -> int:
        """Current simulated time."""
        return self._now_ns

    @property
    def now_us(self) -> int:
        """Current simulated time in whole microseconds (truncated)."""
        return self._now_ns // 1_000

    def tick(self, delta_ns: int) -> int:
        """Advance by *delta_ns* and return the new time."""
        if delta_ns < 0:
            raise TimeError(f"cannot tick by negative {delta_ns} ns")
        self._now_ns += delta_ns
        return self._now_ns

    def advance_to(self, t_ns: int) -> int:
        """Jump forward to absolute time *t_ns* (must not be in the past)."""
        if t_ns < self._now_ns:
            raise TimeError(
                f"cannot move time backwards: now={self._now_ns} target={t_ns}"
            )
        self._now_ns = t_ns
        return self._now_ns


class InterruptLine(NamedTuple):
    """A hardware interrupt source (one IRQ line on the ISA bus).

    ``ipl`` is the spl level that masks this line: the line is deliverable
    only while the CPU's current level is *below* ``ipl``.  ``handler`` is
    invoked by the kernel's dispatch layer with no arguments; devices close
    over their own state.
    """

    irq: int
    name: str
    ipl: int
    handler: Callable[[], None]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InterruptLine(irq={self.irq}, name={self.name!r}, ipl={self.ipl})"


class PendingInterrupt(NamedTuple):
    """One posted interrupt awaiting delivery (heap-ordered by due time).

    Entries order on ``(due_ns, seq)``: ``seq`` is unique per queue, so
    the line is never compared.
    """

    due_ns: int
    seq: int
    line: InterruptLine


class InterruptQueue:
    """Time-ordered queue of posted interrupts with spl-aware delivery.

    The queue itself is policy-free: callers ask "what is due at time T
    given that levels >= L are masked?" and pop accordingly.  Masked
    interrupts remain queued (the real PIC holds the line asserted), which
    is what produces the paper's deferred-delivery traces around
    ``splnet``/``splx`` pairs.

    The capture hot path asks ``next_due_ns`` once per simulated charge
    (several times per trigger), so the queue keeps pending interrupts in
    one small binary heap *per ipl level* and caches the answer per
    queried level.  A line is deliverable at ``current_ipl`` exactly when
    ``line.ipl > current_ipl``, so the deliverable set is a union of
    whole buckets — the earliest deliverable entry is always some
    bucket's head, which makes ``pop_due`` a head-pop (no mid-heap
    removal, no re-heapify) and ``next_due_ns`` a min over at most
    ``IPL_HIGH`` heads, answered from the cache between mutations.

    Tie-breaking is unchanged from the single-heap implementation (the
    reference queue in ``tests/oracles.py``): entries compare by
    ``(due_ns, seq)`` and ``seq`` is globally monotone, so FIFO order
    among same-due entries holds across buckets too.
    """

    def __init__(self) -> None:
        #: line.ipl -> heap of PendingInterrupt, ordered by (due_ns, seq).
        self._buckets: dict[int, list[PendingInterrupt]] = {}
        #: queried ipl -> cached next_due_ns result (None is a valid,
        #: cacheable answer).  Invalidated selectively on mutation; the
        #: "any level" view of next_any_due_ns is cached under ipl -1.
        self._horizon: dict[int, Optional[int]] = {}
        self._live = 0
        self._seq = itertools.count()
        #: Count of interrupts ever posted, for statistics.
        self.posted = 0
        #: Count of interrupts ever delivered (popped), for statistics.
        self.popped = 0

    def __len__(self) -> int:
        return self._live

    def post(self, line: InterruptLine, due_ns: int) -> PendingInterrupt:
        """Schedule *line* to assert at absolute time *due_ns*."""
        if due_ns < 0:
            raise TimeError(f"interrupt due in negative time {due_ns}")
        pending = PendingInterrupt(due_ns=due_ns, seq=next(self._seq), line=line)
        level = line.ipl
        bucket = self._buckets.get(level)
        if bucket is None:
            bucket = self._buckets[level] = []
        heapq.heappush(bucket, pending)
        self._live += 1
        self.posted += 1
        # The new entry is deliverable at every level below its own; it
        # can only pull those cached horizons *down*, so update in place
        # instead of invalidating (keeps the cache warm across re-arms).
        for ipl, cached in self._horizon.items():
            if ipl < level and (cached is None or due_ns < cached):
                self._horizon[ipl] = due_ns
        return pending

    def next_due_ns(self, current_ipl: int = 0) -> Optional[int]:
        """Earliest due time among deliverable (unmasked) interrupts.

        Returns ``None`` when nothing deliverable is queued.  Masked
        entries are skipped but kept.  O(1) between queue mutations (the
        per-level answer is cached); O(levels) to recompute.
        """
        cache = self._horizon
        try:
            return cache[current_ipl]
        except KeyError:
            pass
        best: Optional[int] = None
        for level, bucket in self._buckets.items():
            if level <= current_ipl or not bucket:
                continue
            due = bucket[0].due_ns
            if best is None or due < best:
                best = due
        cache[current_ipl] = best
        return best

    def next_any_due_ns(self) -> Optional[int]:
        """Earliest due time regardless of masking (for idle-loop planning)."""
        # Equivalent to a query at an ipl below every line's level.
        return self.next_due_ns(-1)

    def pop_due(self, now_ns: int, current_ipl: int = 0) -> Optional[PendingInterrupt]:
        """Remove and return the earliest deliverable interrupt due by *now_ns*.

        The earliest-due deliverable entry wins even if an earlier-due
        masked entry exists (the masked one keeps waiting).  Returns
        ``None`` when nothing qualifies.  The winner is always the head
        of its level bucket, so removal is a plain ``heappop``.
        """
        best: Optional[PendingInterrupt] = None
        best_bucket: Optional[list[PendingInterrupt]] = None
        for level, bucket in self._buckets.items():
            if level <= current_ipl or not bucket:
                continue
            head = bucket[0]
            if head.due_ns > now_ns:
                continue
            if best is None or head < best:
                best = head
                best_bucket = bucket
        if best is None or best_bucket is None:
            return None
        heapq.heappop(best_bucket)
        self._live -= 1
        self.popped += 1
        # Cached horizons below the popped level are stale only if this
        # entry defined them (same due); cheaper entries stay valid.
        level = best.line.ipl
        due = best.due_ns
        stale = [k for k, v in self._horizon.items() if k < level and v == due]
        for k in stale:
            del self._horizon[k]
        return best

    def cancel_line(self, line: InterruptLine) -> int:
        """Drop every pending entry for *line*; return how many were dropped.

        O(bucket) — only the line's own level bucket is rebuilt.
        """
        bucket = self._buckets.get(line.ipl)
        if not bucket:
            return 0
        kept = [p for p in bucket if p.line is not line]
        dropped = len(bucket) - len(kept)
        if dropped:
            heapq.heapify(kept)
            self._buckets[line.ipl] = kept
            self._live -= dropped
            for k in [k for k in self._horizon if k < line.ipl]:
                del self._horizon[k]
        return dropped

    def pending_for(self, line: InterruptLine) -> int:
        """Number of queued entries for *line*."""
        bucket = self._buckets.get(line.ipl)
        if not bucket:
            return 0
        return sum(1 for p in bucket if p.line is line)
