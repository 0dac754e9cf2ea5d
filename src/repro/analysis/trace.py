"""The real-time code-path trace report (paper Figure 4).

Each function entry prints one line, timestamped and indented by call
depth; functions with subroutines also show where they returned.  The
per-call times are printed in the paper's two forms: ``(net us)`` for a
leaf and ``(net us, total us)`` when subroutines were called.  Context
switches are flagged::

    0:005 449 <-  ---- Context switch in ----
    0:005 488               <- swtch

and inline triggers are marked with ``==``.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.analysis.callstack import CallNode, CallTreeAnalysis

_INDENT = "    "


def _stamp(time_us: int) -> str:
    """Format a microsecond timestamp as ``s:mmm uuu`` (Figure 4 style)."""
    seconds, rem = divmod(time_us, 1_000_000)
    millis, micros = divmod(rem, 1_000)
    return f"{seconds}:{millis:03d} {micros:03d}"


def _times(node: CallNode) -> str:
    if node.children:
        return f"({node.self_us} us, {node.inclusive_us} total)"
    return f"({node.self_us} us)"


def _node_lines(
    node: CallNode, depth: int, start_us: int, end_us: Optional[int]
) -> Iterator[str]:
    if end_us is not None and node.enter_us > end_us:
        return
    indent = _INDENT * depth
    emit_this = node.enter_us >= start_us
    if emit_this:
        marker = "==" if node.synthetic else "->"
        yield f"{_stamp(node.enter_us)} {indent}{marker} {node.name} {_times(node)}"
    # Interleave children and inline marks in time order.
    items: list[tuple[int, int, object]] = []
    for child in node.children:
        items.append((child.enter_us, 0, child))
    for mark_us, mark_name in node.inline_marks:
        items.append((mark_us, 1, mark_name))
    items.sort(key=lambda item: (item[0], item[1]))
    for when, _, item in items:
        if isinstance(item, CallNode):
            yield from _node_lines(item, depth + 1, start_us, end_us)
        elif start_us <= when and (end_us is None or when <= end_us):
            yield f"{_stamp(when)} {indent}{_INDENT}== {item}"
    if (
        emit_this
        and node.exit_us is not None
        and (end_us is None or node.exit_us <= end_us)
    ):
        if node.is_swtch:
            yield f"{_stamp(node.exit_us)} {indent}<- {node.name}"
        elif node.children and not node.truncated:
            yield f"{_stamp(node.exit_us)} {indent}<-"


def trace_lines(
    analysis: CallTreeAnalysis,
    start_us: int = 0,
    end_us: Optional[int] = None,
) -> list[str]:
    """Render the code-path trace between *start_us* and *end_us*."""
    lines: list[str] = []
    # Interleave root frames and any frame-less inline marks in time order.
    items: list[tuple[int, int, object]] = [
        (root.enter_us, 0, root) for root in analysis.roots
    ]
    items.extend((when, 1, name) for when, name in analysis.orphan_marks)
    items.sort(key=lambda item: (item[0], item[1]))
    previous_proc: Optional[str] = None
    for when, _, item in items:
        if end_us is not None and when > end_us:
            break
        if not isinstance(item, CallNode):
            if when >= start_us:
                lines.append(f"{_stamp(when)} == {item}")
            continue
        root = item
        if (
            previous_proc is not None
            and root.proc != previous_proc
            and root.enter_us >= start_us
        ):
            lines.append(
                f"{_stamp(root.enter_us)} <-  ---- Context switch in ----"
            )
        previous_proc = root.proc
        lines.extend(_node_lines(root, 0, start_us, end_us))
    return lines


def format_trace(
    analysis: CallTreeAnalysis,
    start_us: int = 0,
    end_us: Optional[int] = None,
) -> str:
    """The trace as one printable string."""
    return "\n".join(trace_lines(analysis, start_us=start_us, end_us=end_us))
