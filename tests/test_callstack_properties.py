"""Property-based stress tests for the call-tree reconstruction.

The analyzer must never crash and must conserve time on *any* event
stream the hardware could plausibly record: well-formed nested streams,
streams with context switches, and streams truncated at both ends by the
capture window.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.analysis.callstack import analyze_capture, build_call_tree
from repro.analysis.events import decode_capture
from repro.analysis.summary import summarize

from stream_helpers import capture_from_records, make_names, stream

NAMES = make_names(
    ("fn_a", 500),
    ("fn_b", 502),
    ("fn_c", 504),
    ("fn_d", 506),
    ("fn_e", 508),
    ("swtch", 600, "!"),
    ("MARK", 1002, "="),
)
FUNCTIONS = ["fn_a", "fn_b", "fn_c", "fn_d", "fn_e"]


def generate_wellformed(seed: int, max_events: int = 120) -> list[tuple[str, str, int]]:
    """A random properly-nested stream (entries/exits balanced, LIFO)."""
    rng = random.Random(seed)
    steps: list[tuple[str, str, int]] = []
    stack: list[str] = []
    t = 0
    while len(steps) < max_events:
        t += rng.randint(1, 50)
        choice = rng.random()
        if stack and (choice < 0.4 or len(stack) > 5):
            steps.append(("<", stack.pop(), t))
        elif choice < 0.9:
            name = rng.choice(FUNCTIONS)
            stack.append(name)
            steps.append((">", name, t))
        else:
            steps.append(("=", "MARK", t))
    while stack:
        t += rng.randint(1, 50)
        steps.append(("<", stack.pop(), t))
    return steps


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60)
def test_wellformed_streams_conserve_time(seed):
    steps = generate_wellformed(seed)
    capture = stream(NAMES, *steps)
    analysis = analyze_capture(capture)
    attributed = sum(node.self_us for node in analysis.nodes())
    assert attributed + analysis.unattributed_us == analysis.wall_us
    assert analysis.idle_us == 0  # no swtch frames in this generator
    # Every frame closed cleanly; inclusive == subtree self everywhere.
    for node in analysis.nodes():
        assert node.closed
        assert not node.truncated
        assert node.inclusive_us == sum(d.self_us for d in node.walk())


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60)
def test_wellformed_summary_consistent(seed):
    steps = generate_wellformed(seed)
    capture = stream(NAMES, *steps)
    summary = summarize(analyze_capture(capture))
    # Call counts in the summary equal entry events in the stream.
    for name in FUNCTIONS:
        expected = sum(1 for op, n, _ in steps if op == ">" and n == name)
        stats = summary.get(name)
        assert (stats.calls if stats else 0) == expected
    # Net time sums to attributed busy time.
    total_net = sum(s.net_us for s in summary.functions.values())
    assert total_net <= summary.wall_us


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    cut_head=st.integers(min_value=0, max_value=30),
    cut_tail=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=60)
def test_truncated_streams_never_crash(seed, cut_head, cut_tail):
    """Any window cut out of a valid stream analyses without error and
    still conserves time."""
    steps = generate_wellformed(seed)
    window = steps[cut_head : len(steps) - cut_tail]
    if not window:
        return
    capture = stream(NAMES, *window)
    analysis = analyze_capture(capture)
    attributed = sum(
        node.self_us for node in analysis.nodes() if not node.synthetic
    )
    assert attributed + analysis.unattributed_us == analysis.wall_us
    assert analysis.event_count == len(window)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    switch_points=st.lists(
        st.integers(min_value=1, max_value=100), min_size=0, max_size=4
    ),
)
@settings(max_examples=40)
def test_streams_with_context_switches(seed, switch_points):
    """Interleave swtch entry/exit pairs anywhere; reconstruction stays
    time-conserving and idle equals the swtch self time."""
    rng = random.Random(seed)
    steps = generate_wellformed(seed, max_events=60)
    for point in sorted(set(switch_points), reverse=True):
        if point >= len(steps):
            continue
        t_at = steps[point][2]
        gap = rng.randint(2, 200)
        # Shift later events to make room, insert a swtch pair.
        shifted = [
            (op, name, t + gap + 2) for op, name, t in steps[point:]
        ]
        steps = steps[:point] + [
            (">", "swtch", t_at + 1),
            ("<", "swtch", t_at + 1 + gap),
        ] + shifted
    capture = stream(NAMES, *steps)
    analysis = analyze_capture(capture)
    attributed = sum(
        node.self_us for node in analysis.nodes() if not node.synthetic
    )
    assert attributed + analysis.unattributed_us == analysis.wall_us
    swtch_self = sum(
        n.self_us for n in analysis.nodes() if n.is_swtch and not n.synthetic
    )
    assert analysis.idle_us == swtch_self


@given(data=st.binary(min_size=0, max_size=400))
@settings(max_examples=60)
def test_arbitrary_tag_soup_never_crashes(data):
    """Even a stream of random tags (some unknown, some exits-without-
    entries) decodes and reconstructs without raising."""
    from repro.profiler.ram import RawRecord

    records = []
    t = 0
    for i in range(0, len(data) - 1, 2):
        tag = (data[i] << 8 | data[i + 1]) % 1100
        t += data[i] + 1
        records.append(RawRecord(tag=tag, time=t & 0xFFFFFF))
    capture = capture_from_records(records, NAMES)
    analysis = analyze_capture(capture)
    assert analysis.event_count == len(records)
    summary = summarize(analysis)
    assert summary.wall_us >= 0
