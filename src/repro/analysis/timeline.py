"""Per-process activity timelines — another "graphical code path" view.

One row per reconstructed process (plus an interrupt row), time running
left to right across the capture window: a Gantt-style answer to "who had
the CPU when", which is exactly what the paper's context-switch splitting
makes recoverable from the raw tag stream.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Iterable, Union

from repro.analysis.callstack import CallTreeAnalysis
from repro.analysis.columnar import INTERRUPT_FRAMES


@dataclasses.dataclass(frozen=True)
class Span:
    """One contiguous activity interval."""

    start_us: int
    end_us: int

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us


def process_spans(analysis: CallTreeAnalysis) -> dict[str, list[Span]]:
    """Activity spans per process (top-level frames, swtch excluded)."""
    spans: defaultdict[str, list[Span]] = defaultdict(list)
    for root in analysis.roots:
        if root.synthetic or root.exit_us is None:
            continue
        spans[root.proc].append(Span(root.enter_us, root.exit_us))
    merged: dict[str, list[Span]] = {}
    for proc, items in spans.items():
        merged[proc] = _merge(sorted(items, key=lambda s: s.start_us))
    return merged


def interrupt_spans(
    analysis: CallTreeAnalysis,
    names: Union[str, Iterable[str]] = INTERRUPT_FRAMES,
) -> list[Span]:
    """Intervals during which any interrupt frame was open.

    *names* may be a single frame name or any iterable of them; the
    default covers the case-study kernel's ``ISAINTR`` dispatcher.
    """
    wanted = frozenset({names}) if isinstance(names, str) else frozenset(names)
    spans = [
        Span(node.enter_us, node.exit_us)
        for node in analysis.nodes()
        if node.name in wanted and not node.synthetic and node.exit_us is not None
    ]
    return _merge(sorted(spans, key=lambda s: s.start_us))


def _merge(spans: list[Span]) -> list[Span]:
    merged: list[Span] = []
    for span in spans:
        if merged and span.start_us <= merged[-1].end_us:
            merged[-1] = Span(merged[-1].start_us, max(merged[-1].end_us, span.end_us))
        else:
            merged.append(span)
    return merged


def render_timeline(
    analysis: CallTreeAnalysis,
    width: int = 72,
    with_interrupts: bool = True,
    interrupt_names: Union[str, Iterable[str]] = INTERRUPT_FRAMES,
) -> str:
    """ASCII Gantt chart: '#' while the row holds the CPU."""
    wall = analysis.wall_us
    if wall == 0:
        return "(empty capture)"

    def row(label: str, spans: list[Span], mark: str) -> str:
        cells = [" "] * width
        for span in spans:
            lo = span.start_us * width // wall
            hi = max(lo + 1, span.end_us * width // wall)
            for i in range(lo, min(hi, width)):
                cells[i] = mark
        return f"{label:<8}|{''.join(cells)}|"

    lines = []
    for proc, spans in sorted(process_spans(analysis).items()):
        lines.append(row(proc, spans, "#"))
    if with_interrupts:
        spans = interrupt_spans(analysis, interrupt_names)
        if spans:
            lines.append(row("intr", spans, "^"))
    ticks = f"{'':<8}|0{'':<{max(0, width - 12)}}{wall} us|"
    lines.append(ticks)
    return "\n".join(lines)


def utilization_by_proc(analysis: CallTreeAnalysis) -> dict[str, float]:
    """Fraction of the capture window each process held the CPU."""
    wall = analysis.wall_us or 1
    return {
        proc: sum(s.duration_us for s in spans) / wall
        for proc, spans in process_spans(analysis).items()
    }
