"""InterruptQueue edge cases: tie-breaking, duplicates, masked planning.

Companion to ``test_sim_engine.py`` — these pin down the corners the
interrupt-heavy workloads lean on: FIFO tie-breaks among same-due-time
lines (also under masking), ``cancel_line`` with many queued entries for
one line, and the deliberate disagreement between ``next_due_ns`` (spl
aware) and ``next_any_due_ns`` (idle-loop planning) when the earliest
entry is masked.
"""

from __future__ import annotations

import random

from repro.sim.engine import InterruptLine, InterruptQueue
from oracles import ReferenceInterruptQueue


def line(irq: int = 3, ipl: int = 2, name: str = "test") -> InterruptLine:
    return InterruptLine(irq=irq, name=name, ipl=ipl, handler=lambda: None)


class TestPopDueTieBreaking:
    def test_same_due_time_pops_in_posting_order(self):
        q = InterruptQueue()
        first = line(irq=3, name="first")
        second = line(irq=4, name="second")
        third = line(irq=5, name="third")
        q.post(second, due_ns=100)
        q.post(third, due_ns=100)
        q.post(first, due_ns=100)
        popped = [q.pop_due(100).line.name for _ in range(3)]
        assert popped == ["second", "third", "first"]

    def test_masking_skips_ahead_but_keeps_fifo_among_deliverable(self):
        q = InterruptQueue()
        masked = line(irq=3, ipl=2, name="masked")
        high_a = line(irq=4, ipl=6, name="high-a")
        high_b = line(irq=5, ipl=6, name="high-b")
        q.post(masked, due_ns=100)  # earliest posted, but masked at ipl 3
        q.post(high_a, due_ns=100)
        q.post(high_b, due_ns=100)
        assert q.pop_due(100, current_ipl=3).line.name == "high-a"
        assert q.pop_due(100, current_ipl=3).line.name == "high-b"
        # The masked entry stayed queued (the PIC holds the line asserted)...
        assert q.pop_due(100, current_ipl=3) is None
        assert len(q) == 1
        # ... and delivers the moment spl drops.
        assert q.pop_due(100, current_ipl=0).line.name == "masked"

    def test_earlier_due_masked_entry_does_not_block_later_deliverable(self):
        q = InterruptQueue()
        masked = line(irq=3, ipl=2, name="masked")
        deliverable = line(irq=4, ipl=6, name="deliverable")
        q.post(masked, due_ns=50)
        q.post(deliverable, due_ns=90)
        popped = q.pop_due(100, current_ipl=3)
        assert popped.line.name == "deliverable"
        assert q.pending_for(masked) == 1

    def test_nothing_due_yet_returns_none_without_removal(self):
        q = InterruptQueue()
        q.post(line(), due_ns=200)
        assert q.pop_due(199) is None
        assert len(q) == 1


class TestCancelLineDuplicates:
    def test_cancel_drops_every_entry_for_the_line(self):
        q = InterruptQueue()
        noisy = line(irq=3, name="noisy")
        other = line(irq=4, name="other")
        for due in (10, 20, 30, 40):
            q.post(noisy, due_ns=due)
        q.post(other, due_ns=25)
        assert q.cancel_line(noisy) == 4
        assert q.pending_for(noisy) == 0
        assert len(q) == 1
        # The heap is still well-formed after the rebuild.
        assert q.pop_due(100).line.name == "other"

    def test_cancel_matches_identity_not_equality(self):
        q = InterruptQueue()
        handler = lambda: None  # noqa: E731 - shared on purpose
        twin_a = InterruptLine(irq=3, name="twin", ipl=2, handler=handler)
        twin_b = InterruptLine(irq=3, name="twin", ipl=2, handler=handler)
        q.post(twin_a, due_ns=10)
        q.post(twin_b, due_ns=20)
        assert q.cancel_line(twin_a) == 1
        assert q.pending_for(twin_b) == 1

    def test_cancel_absent_line_is_a_noop(self):
        q = InterruptQueue()
        q.post(line(irq=3), due_ns=10)
        assert q.cancel_line(line(irq=9, name="never-posted")) == 0
        assert len(q) == 1

    def test_posted_counter_survives_cancellation(self):
        q = InterruptQueue()
        noisy = line()
        for due in (10, 20, 30):
            q.post(noisy, due_ns=due)
        q.cancel_line(noisy)
        assert q.posted == 3


class TestNextDueDisagreement:
    def test_masked_earliest_splits_the_two_views(self):
        q = InterruptQueue()
        q.post(line(irq=3, ipl=2, name="masked-early"), due_ns=100)
        q.post(line(irq=4, ipl=6, name="deliverable-late"), due_ns=500)
        # spl-aware view skips the masked entry; planning view must not —
        # the idle loop has to wake at 100 even though delivery waits.
        assert q.next_due_ns(current_ipl=3) == 500
        assert q.next_any_due_ns() == 100

    def test_everything_masked_leaves_only_the_planning_view(self):
        q = InterruptQueue()
        q.post(line(ipl=2), due_ns=100)
        assert q.next_due_ns(current_ipl=7) is None
        assert q.next_any_due_ns() == 100

    def test_views_agree_when_nothing_is_masked(self):
        q = InterruptQueue()
        q.post(line(ipl=6), due_ns=300)
        q.post(line(ipl=6), due_ns=100)
        assert q.next_due_ns(current_ipl=0) == 100
        assert q.next_any_due_ns() == 100

    def test_empty_queue_returns_none_from_both_views(self):
        q = InterruptQueue()
        assert q.next_due_ns() is None
        assert q.next_any_due_ns() is None


class TestCrossBucketTieBreaking:
    """Same-due entries at *different* ipl levels live in different
    per-level heaps; ``seq`` is globally monotone, so FIFO order must
    survive the bucket split."""

    def test_same_due_across_ipl_buckets_pops_in_posting_order(self):
        q = InterruptQueue()
        mid = line(irq=3, ipl=4, name="mid")
        high = line(irq=4, ipl=6, name="high")
        higher = line(irq=5, ipl=5, name="higher")
        q.post(high, due_ns=100)
        q.post(higher, due_ns=100)
        q.post(mid, due_ns=100)
        popped = [q.pop_due(100).line.name for _ in range(3)]
        assert popped == ["high", "higher", "mid"]

    def test_seq_order_survives_interleaved_levels(self):
        q = InterruptQueue()
        lines = [line(irq=i, ipl=2 + (i % 3), name=f"l{i}") for i in range(9)]
        for ln in lines:
            q.post(ln, due_ns=50)
        popped = [q.pop_due(50).line.name for _ in range(9)]
        assert popped == [f"l{i}" for i in range(9)]


class TestHorizonCache:
    """The cached per-ipl horizon must stay coherent across every
    mutation path (post / pop_due / cancel_line)."""

    def test_post_lowers_a_cached_horizon_in_place(self):
        q = InterruptQueue()
        q.post(line(ipl=6), due_ns=500)
        assert q.next_due_ns(0) == 500  # warm the cache
        q.post(line(ipl=6), due_ns=100)
        assert q.next_due_ns(0) == 100

    def test_post_of_masked_entry_leaves_masked_view_untouched(self):
        q = InterruptQueue()
        q.post(line(ipl=6), due_ns=500)
        assert q.next_due_ns(3) == 500  # warm the cache at ipl 3
        q.post(line(ipl=2), due_ns=50)  # masked at ipl 3
        assert q.next_due_ns(3) == 500
        assert q.next_due_ns(0) == 50

    def test_post_refreshes_a_cached_none(self):
        q = InterruptQueue()
        assert q.next_due_ns(0) is None  # cache the empty answer
        q.post(line(ipl=6), due_ns=100)
        assert q.next_due_ns(0) == 100

    def test_pop_invalidates_the_horizon_it_defined(self):
        q = InterruptQueue()
        q.post(line(ipl=6), due_ns=100)
        q.post(line(ipl=6), due_ns=300)
        assert q.next_due_ns(0) == 100
        q.pop_due(100)
        assert q.next_due_ns(0) == 300

    def test_pop_keeps_cheaper_horizons_valid(self):
        q = InterruptQueue()
        q.post(line(irq=3, ipl=6, name="early"), due_ns=100)
        q.post(line(irq=4, ipl=4, name="late"), due_ns=400)
        assert q.next_due_ns(0) == 100
        assert q.next_due_ns(5) == 100
        popped = q.pop_due(100, current_ipl=0)
        assert popped.line.name == "early"
        assert q.next_due_ns(0) == 400
        assert q.next_due_ns(5) is None

    def test_cancel_line_refreshes_the_horizon(self):
        q = InterruptQueue()
        noisy = line(irq=3, ipl=6, name="noisy")
        q.post(noisy, due_ns=100)
        q.post(line(irq=9, ipl=6, name="other"), due_ns=400)
        assert q.next_due_ns(0) == 100
        q.cancel_line(noisy)
        assert q.next_due_ns(0) == 400

    def test_randomized_schedule_matches_reference_queue(self):
        """Drive both implementations through an identical randomized
        post/pop/query/cancel schedule; every observable must agree."""
        rng = random.Random(0xC0FFEE)
        fast = InterruptQueue()
        ref = ReferenceInterruptQueue()
        lines = [line(irq=i, ipl=rng.randint(1, 6), name=f"irq{i}") for i in range(8)]
        now = 0
        for _ in range(2000):
            op = rng.random()
            if op < 0.45:
                ln = rng.choice(lines)
                due = now + rng.randint(0, 5_000)
                fast.post(ln, due)
                ref.post(ln, due)
            elif op < 0.75:
                now += rng.randint(0, 2_000)
                ipl = rng.randint(0, 6)
                got = fast.pop_due(now, ipl)
                want = ref.pop_due(now, ipl)
                assert (got is None) == (want is None)
                if got is not None:
                    assert (got.due_ns, got.seq, got.line.name) == (
                        want.due_ns,
                        want.seq,
                        want.line.name,
                    )
            elif op < 0.95:
                ipl = rng.randint(0, 6)
                assert fast.next_due_ns(ipl) == ref.next_due_ns(ipl)
                assert fast.next_any_due_ns() == ref.next_any_due_ns()
            else:
                ln = rng.choice(lines)
                assert fast.cancel_line(ln) == ref.cancel_line(ln)
            assert len(fast) == len(ref)
