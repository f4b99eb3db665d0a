"""The one read-only view of a compiled graph that downstream stages read.

:func:`graph_view`, the one reader of material roles and the activity
order, derives both from the edges, groups the edges by activity in edge
order, and returns plain tuples. Benchmark generation derives each graph's
view once, for its candidate pools and its tasks; the process memory reads
it too. Every label is canonical (lowercased, whitespace-collapsed), so
pools, memories and benchmark options agree on string identity regardless
of source formatting.
"""

from __future__ import annotations

from typing import NamedTuple

from ..canon import canon_label
from .analyze import _precedence_pairs, material_roles, order_activities
from .model import ActivityNode, ProcessGraph


class StepView(NamedTuple):
    """One ordered activity: the labels of its tools, sorted and distinct;
    its material inputs and outputs, and the forms of those that have one,
    in edge order."""

    activity: ActivityNode
    label: str
    tools: tuple[str, ...]
    inputs: tuple[str, ...]
    input_forms: tuple[str, ...]
    outputs: tuple[str, ...]
    output_forms: tuple[str, ...]


class GraphView(NamedTuple):
    """The route in derived topological order; the sorted, distinct labels
    of the precursor-role and product-role materials; the target product
    (see :func:`graph_view`); the labels of every tool; the steps."""

    route: tuple[str, ...]
    precursors: tuple[str, ...]
    products: tuple[str, ...]
    product: str
    tools: tuple[str, ...]
    steps: tuple[StepView, ...]


def _labels(entities) -> tuple[str, ...]:
    return tuple(sorted({canon_label(e.label) for e in entities}))


def _materials(by_id: dict, entity_ids) -> tuple[tuple[str, ...], tuple[str, ...]]:
    labels, forms = [], []
    for eid in entity_ids:
        node = by_id[eid]
        if node.kind != "material":
            continue
        labels.append(canon_label(node.label))
        form = node.attributes.get("form")
        if form:
            forms.append(canon_label(form))
    return tuple(labels), tuple(forms)


def graph_view(g: ProcessGraph) -> GraphView:
    """The view of ``g``, a graph ``compile_graph`` accepts. Its target product is
    what the last step makes: its first output material, else (a noisy record may
    end in a step that makes none) the first product-role label, else ``""``."""
    by_id = {e.id: e for e in g.entities()}
    activities = {a.id: a for a in g.activities}
    used: dict[str, list[str]] = {}
    generated: dict[str, list[str]] = {}
    for eid, aid in g.usage_edges:
        used.setdefault(aid, []).append(eid)
    for aid, eid in g.generation_edges:
        generated.setdefault(aid, []).append(eid)
    steps = []
    for aid in order_activities(g, _precedence_pairs(g)):
        act, consumed = activities[aid], used.get(aid, ())
        tools = _labels([by_id[e] for e in consumed if by_id[e].kind == "tool"])
        steps.append(StepView(act, canon_label(act.label), tools, *_materials(by_id, consumed),
                              *_materials(by_id, generated.get(aid, ()))))
    roles = material_roles(g)
    products = _labels([e for e in g.material_entities if roles[e.id] == "product"])
    last_outputs = steps[-1].outputs if steps else ()
    return GraphView(
        route=tuple(step.label for step in steps),
        precursors=_labels([e for e in g.material_entities if roles[e.id] == "precursor"]),
        products=products,
        product=(last_outputs or products or ("",))[0],
        tools=_labels(g.tool_entities),
        steps=tuple(steps),
    )
