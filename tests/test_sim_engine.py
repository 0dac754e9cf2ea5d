"""Unit tests for the simulated clock and interrupt queue."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import (
    InterruptLine,
    InterruptQueue,
    PendingInterrupt,
    SimClock,
    TimeError,
)


def line(irq: int = 3, ipl: int = 2, name: str = "test") -> InterruptLine:
    return InterruptLine(irq=irq, name=name, ipl=ipl, handler=lambda: None)


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ns == 0

    def test_tick_advances(self):
        clock = SimClock()
        clock.tick(1500)
        assert clock.now_ns == 1500
        assert clock.now_us == 1

    def test_advance_to_absolute(self):
        clock = SimClock(start_ns=10)
        clock.advance_to(999)
        assert clock.now_ns == 999

    def test_negative_tick_rejected(self):
        with pytest.raises(TimeError):
            SimClock().tick(-1)

    def test_backwards_advance_rejected(self):
        clock = SimClock(start_ns=100)
        with pytest.raises(TimeError):
            clock.advance_to(50)

    def test_negative_start_rejected(self):
        with pytest.raises(TimeError):
            SimClock(start_ns=-5)

    @given(steps=st.lists(st.integers(min_value=0, max_value=10**9), max_size=50))
    def test_time_is_monotone(self, steps):
        clock = SimClock()
        previous = 0
        for step in steps:
            clock.tick(step)
            assert clock.now_ns >= previous
            previous = clock.now_ns
        assert clock.now_ns == sum(steps)


class TestInterruptQueue:
    def test_post_and_pop(self):
        q = InterruptQueue()
        ln = line()
        q.post(ln, due_ns=100)
        assert len(q) == 1
        popped = q.pop_due(now_ns=100, current_ipl=0)
        assert popped is not None and popped.line is ln
        assert len(q) == 0

    def test_not_due_yet(self):
        q = InterruptQueue()
        q.post(line(), due_ns=100)
        assert q.pop_due(now_ns=99, current_ipl=0) is None

    def test_masked_interrupt_stays_pending(self):
        q = InterruptQueue()
        ln = line(ipl=2)
        q.post(ln, due_ns=50)
        # CPU at ipl 2 masks lines with ipl <= 2.
        assert q.pop_due(now_ns=100, current_ipl=2) is None
        assert q.pending_for(ln) == 1
        # Lowering the level releases it.
        assert q.pop_due(now_ns=100, current_ipl=0).line is ln

    def test_earliest_deliverable_wins_over_masked(self):
        q = InterruptQueue()
        masked = line(irq=1, ipl=1, name="low")
        deliverable = line(irq=2, ipl=5, name="high")
        q.post(masked, due_ns=10)
        q.post(deliverable, due_ns=20)
        popped = q.pop_due(now_ns=100, current_ipl=1)
        assert popped.line is deliverable
        assert q.pending_for(masked) == 1

    def test_fifo_tiebreak_same_due_time(self):
        q = InterruptQueue()
        first = line(irq=1, name="first")
        second = line(irq=2, name="second")
        q.post(first, due_ns=10)
        q.post(second, due_ns=10)
        assert q.pop_due(100, 0).line is first
        assert q.pop_due(100, 0).line is second

    def test_next_due_respects_mask(self):
        q = InterruptQueue()
        q.post(line(ipl=1), due_ns=10)
        q.post(line(ipl=5), due_ns=30)
        assert q.next_due_ns(current_ipl=1) == 30
        assert q.next_due_ns(current_ipl=0) == 10
        assert q.next_any_due_ns() == 10

    def test_next_due_empty(self):
        q = InterruptQueue()
        assert q.next_due_ns() is None
        assert q.next_any_due_ns() is None

    def test_cancel_line(self):
        q = InterruptQueue()
        ln = line()
        other = line(irq=9, name="other")
        q.post(ln, 10)
        q.post(ln, 20)
        q.post(other, 30)
        assert q.cancel_line(ln) == 2
        assert len(q) == 1
        assert q.pop_due(100, 0).line is other

    def test_negative_due_rejected(self):
        with pytest.raises(TimeError):
            InterruptQueue().post(line(), due_ns=-1)

    @given(
        dues=st.lists(
            st.integers(min_value=0, max_value=10_000), min_size=1, max_size=30
        )
    )
    def test_pop_order_is_time_sorted(self, dues):
        q = InterruptQueue()
        ln = line(ipl=5)
        for due in dues:
            q.post(ln, due)
        popped = []
        while True:
            entry = q.pop_due(now_ns=10_001, current_ipl=0)
            if entry is None:
                break
            popped.append(entry.due_ns)
        assert popped == sorted(dues)


class TestPendingInterrupt:
    """Entries order on ``(due_ns, seq)``; ``seq`` is unique, so the queue
    pops in due order, FIFO among ties, whatever lines are posted."""

    def test_orders_on_due_then_seq(self):
        """The lines are never compared: these two differ only in their
        handlers, which do not order."""
        a, b = line(), line()
        entries = [
            PendingInterrupt(11, 0, a),
            PendingInterrupt(10, 2, b),
            PendingInterrupt(10, 1, a),
        ]
        assert [(e.due_ns, e.seq) for e in sorted(entries)] == [
            (10, 1), (10, 2), (11, 0),
        ]

    def test_pop_order(self):
        """Ties on the due time pop in posting order, across ipl levels
        and against the lines' own order."""
        q = InterruptQueue()
        lines = [
            line(irq=9, ipl=3, name="z"),
            line(irq=1, ipl=5, name="a"),
            line(irq=5, ipl=3, name="m"),
            line(irq=2, ipl=6, name="b"),
        ]
        for due, ln in [(30, 0), (10, 1), (10, 0), (20, 3), (10, 2), (20, 1)]:
            q.post(lines[ln], due)
        popped = []
        while (entry := q.pop_due(now_ns=100, current_ipl=0)) is not None:
            popped.append((entry.due_ns, entry.seq, entry.line.name))
        assert popped == [
            (10, 1, "a"), (10, 2, "z"), (10, 4, "m"),
            (20, 3, "b"), (20, 5, "a"), (30, 0, "z"),
        ]
