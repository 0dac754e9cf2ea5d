"""Call graphs and subsystem groupings (the paper's future work).

"Further work in this area hopefully will yield sophisticated tools that
allow statistical processing of the data, groupings of functions into
separate subsystems, and other ways to process the data."  The dynamic
call graph is two plain dicts: per-function node stats, and the observed
caller -> callee edges weighted by call count and by time transferred.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

from repro.analysis.callstack import CallTreeAnalysis


@dataclasses.dataclass
class DynamicCallGraph:
    """The call graph observed in a capture, in first-seen order.

    ``nodes`` maps function -> ``{"calls", "net_us"}``; ``edges`` maps
    caller -> callee -> ``{"calls", "inclusive_us"}``: times the edge was
    traversed, and total time spent in the callee's subtree when entered
    from this caller.
    """

    nodes: dict[str, dict[str, int]] = dataclasses.field(default_factory=dict)
    edges: dict[str, dict[str, dict[str, int]]] = dataclasses.field(
        default_factory=dict
    )


def call_graph(analysis: CallTreeAnalysis) -> DynamicCallGraph:
    """Build the dynamic call graph observed in the capture."""
    graph = DynamicCallGraph()
    nodes, edges = graph.nodes, graph.edges
    for node in analysis.nodes():
        if node.synthetic:
            continue
        data = nodes.setdefault(node.name, {"calls": 0, "net_us": 0})
        data["calls"] += 1
        data["net_us"] += node.self_us
        for child in node.children:
            if child.synthetic:
                continue
            nodes.setdefault(child.name, {"calls": 0, "net_us": 0})
            edge = edges.setdefault(node.name, {}).setdefault(
                child.name, {"calls": 0, "inclusive_us": 0}
            )
            edge["calls"] += 1
            edge["inclusive_us"] += child.inclusive_us
    return graph


def subsystem_rollup(
    analysis: CallTreeAnalysis,
    subsystem_of: Mapping[str, str],
    default: str = "other",
) -> dict[str, dict[str, int]]:
    """Group per-function net time into subsystems.

    *subsystem_of* maps function names to subsystem labels (typically
    derived from source-module paths, e.g. ``netinet/* -> "net"``).
    Returns ``{subsystem: {"net_us": ..., "calls": ...}}``.
    """
    rollup: dict[str, dict[str, int]] = {}
    for node in analysis.nodes():
        if node.synthetic or node.is_swtch:
            continue
        label = subsystem_of.get(node.name, default)
        bucket = rollup.setdefault(label, {"net_us": 0, "calls": 0})
        bucket["net_us"] += node.self_us
        bucket["calls"] += 1
    return rollup


def heaviest_paths(
    graph: DynamicCallGraph, root: str, limit: int = 5
) -> list[tuple[list[str], int]]:
    """The *limit* heaviest simple call chains out of *root* by edge time.

    A small illustrative analysis over the call graph: follow the largest
    ``inclusive_us`` edge from each node (greedy), never revisiting a
    node, and report the chains found from *root*'s successors.
    """
    if root not in graph.nodes:
        raise KeyError(f"function {root!r} not in the call graph")
    edges = graph.edges
    chains: list[tuple[list[str], int]] = []
    for first, data in sorted(
        edges.get(root, {}).items(), key=lambda e: -e[1]["inclusive_us"]
    )[:limit]:
        chain = [root, first]
        weight = data["inclusive_us"]
        seen = {root, first}
        node = first
        while True:
            out = [
                (succ, d) for succ, d in edges.get(node, {}).items() if succ not in seen
            ]
            if not out:
                break
            succ, d = max(out, key=lambda e: e[1]["inclusive_us"])
            chain.append(succ)
            weight += d["inclusive_us"]
            seen.add(succ)
            node = succ
        chains.append((chain, weight))
    return chains


def to_dot(graph: DynamicCallGraph, min_calls: int = 1) -> str:
    """Render the call graph as Graphviz dot text."""
    lines = ["digraph calls {"]
    for name, data in graph.nodes.items():
        lines.append(
            f'  "{name}" [label="{name}\\n{data["calls"]} calls, '
            f'{data["net_us"]} us"];'
        )
    for src in graph.nodes:
        for dst, data in graph.edges.get(src, {}).items():
            if data["calls"] < min_calls:
                continue
            lines.append(f'  "{src}" -> "{dst}" [label="{data["calls"]}"];')
    lines.append("}")
    return "\n".join(lines)


def idle_active_split(analysis: CallTreeAnalysis) -> dict[str, int]:
    """The paper's headline CPU accounting, as a dict for tooling."""
    return {
        "wall_us": analysis.wall_us,
        "busy_us": analysis.busy_us,
        "idle_us": analysis.idle_us,
        "unattributed_us": analysis.unattributed_us,
    }
