"""Read-only projections of a compiled graph used by downstream stages.

Everything here returns canonical (lowercased, whitespace-collapsed)
labels so that pools, memories and benchmark options agree on string
identity regardless of source formatting.
"""

from __future__ import annotations

from ..canon import canon_label
from .model import ProcessGraph


def route_labels(g: ProcessGraph) -> list[str]:
    """Canonical activity labels in derived topological order."""
    return [canon_label(a.label) for a in g.ordered_activities()]


def precursor_labels(g: ProcessGraph) -> list[str]:
    return sorted({canon_label(e.label) for e in g.material_entities if e.role == "precursor"})


def product_labels(g: ProcessGraph) -> list[str]:
    return sorted({canon_label(e.label) for e in g.material_entities if e.role == "product"})


def final_product_label(g: ProcessGraph) -> str:
    """The target product: what the last ordered activity generates.

    Falls back to any product-role label when the last step generates
    nothing (possible in noisy records), then to the empty string.
    """
    by_id = g.entity_by_id()
    if g.ordered_activity_ids:
        for ent_id in g.generated_by(g.ordered_activity_ids[-1]):
            node = by_id.get(ent_id)
            if node is not None and node.kind == "material":
                return canon_label(node.label)
    products = product_labels(g)
    return products[0] if products else ""


def step_tool_labels(g: ProcessGraph, activity_id: str) -> list[str]:
    by_id = g.entity_by_id()
    labels = {
        canon_label(by_id[eid].label)
        for eid in g.used_by(activity_id)
        if eid in by_id and by_id[eid].kind == "tool"
    }
    return sorted(labels)


def _step_materials(g: ProcessGraph, entity_ids: list[str]) -> tuple[list[str], list[str]]:
    by_id = g.entity_by_id()
    labels, forms = [], []
    for eid in entity_ids:
        node = by_id.get(eid)
        if node is None or node.kind != "material":
            continue
        labels.append(canon_label(node.label))
        form = node.attributes.get("form")
        if form:
            forms.append(canon_label(form))
    return labels, forms


def step_material_inputs(g: ProcessGraph, activity_id: str) -> tuple[list[str], list[str]]:
    """(labels, forms) of material entities the activity consumes, edge order."""
    return _step_materials(g, g.used_by(activity_id))


def step_material_outputs(g: ProcessGraph, activity_id: str) -> tuple[list[str], list[str]]:
    """(labels, forms) of material entities the activity generates, edge order."""
    return _step_materials(g, g.generated_by(activity_id))
