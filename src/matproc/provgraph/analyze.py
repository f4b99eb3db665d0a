"""Role inference, causal precedence, and deterministic topological ordering."""

from __future__ import annotations

import heapq

from ..errors import CyclicPrecedence
from .model import ProcessGraph, validate_graph


def assign_roles(g: ProcessGraph) -> ProcessGraph:
    """Fill material roles from connectivity; total over valid graphs.

    usage-out only -> precursor; generation-in and usage-out -> intermediate;
    generation-in only -> product; no incident edges -> unconnected. Tool
    nodes are always role=tool, even when a noisy generation edge targets
    them.
    """
    used_out = {src for (src, _) in g.usage_edges}
    generated_in = {dst for (_, dst) in g.generation_edges}
    for node in g.material_entities:
        has_out = node.id in used_out
        has_in = node.id in generated_in
        if has_in and has_out:
            node.role = "intermediate"
        elif has_out:
            node.role = "precursor"
        elif has_in:
            node.role = "product"
        else:
            node.role = "unconnected"
    for node in g.tool_entities:
        node.role = "tool"
    return g


def infer_precedence(g: ProcessGraph) -> set[tuple[str, str]]:
    """Ordered activity pairs (a_i, a_j): a_i generated an entity a_j uses.

    Irreflexive by construction. Raises CyclicPrecedence when the induced
    relation contains a cycle; the record gets flagged, never repaired.
    """
    pairs = _precedence_pairs(g)
    _topological_order(g, pairs)
    return pairs


def _precedence_pairs(g: ProcessGraph) -> set[tuple[str, str]]:
    """The pairs of :func:`infer_precedence`, not checked for cycles."""
    producers_of: dict[str, list[str]] = {}
    for act, ent in g.generation_edges:
        producers_of.setdefault(ent, []).append(act)
    pairs: set[tuple[str, str]] = set()
    for ent, act in g.usage_edges:
        for producer in producers_of.get(ent, []):
            if producer != act:
                pairs.add((producer, act))
    return pairs


def _topological_order(g: ProcessGraph, prec: set[tuple[str, str]]) -> list[str]:
    """Kahn's algorithm with source_position priority; raises CyclicPrecedence."""
    position = {a.id: a.source_position for a in g.activities}
    indegree = {a.id: 0 for a in g.activities}
    succ: dict[str, list[str]] = {a.id: [] for a in g.activities}
    for i, j in prec:
        succ[i].append(j)
        indegree[j] += 1
    ready = [(position[a], a) for a, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        _, node = heapq.heappop(ready)
        order.append(node)
        for nxt in succ[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, (position[nxt], nxt))
    if len(order) != len(g.activities):
        raise CyclicPrecedence(f"{g.record_id}: precedence relation contains a cycle")
    return order


def order_activities(g: ProcessGraph, prec: set[tuple[str, str]]) -> list[str]:
    """Kahn's algorithm with source_position priority.

    Output is a permutation of all activity ids honouring every precedence
    pair; among unconstrained peers the earliest source position wins, so the
    order is unique and deterministic.
    """
    g.ordered_activity_ids = _topological_order(g, prec)
    return g.ordered_activity_ids


def compile_graph(g: ProcessGraph) -> ProcessGraph:
    """validate -> roles -> precedence -> ordering; returns the same graph.
    The ordering walk is the cycle check, so the precedence is walked once."""
    validate_graph(g)
    assign_roles(g)
    order_activities(g, _precedence_pairs(g))
    return g
