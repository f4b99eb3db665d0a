"""``graph_view`` against the label helpers it replaced.

The helpers are kept below as they were before the view existed: each one
rebuilt the entity map and rescanned the edge lists on every call. The
view must give the same values on the pipeline's synthetic corpora and on
hand-built and generated graphs with duplicate edges and ids, dangling
edges, tools with a form, empty forms, activities without edges, a last
step that makes no material, and no precursors or products.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matproc import cli, memory
from matproc.canon import canon_label
from matproc.provgraph import (ActivityNode, EntityNode, GraphView, ProcessGraph, StepView,
                               SynthParams, generate_synthetic_corpus, graph_view, load_graphs)
from matproc.taskgen import generate, generate_benchmark, pools

# --- the replaced helpers, as they were -------------------------------------------------


def entity_by_id(g):
    return {e.id: e for e in g.entities()}


def used_by(g, activity_id):
    return [e for (e, a) in g.usage_edges if a == activity_id]


def generated_by(g, activity_id):
    return [e for (a, e) in g.generation_edges if a == activity_id]


def route_labels(g):
    return [canon_label(a.label) for a in g.ordered_activities()]


def precursor_labels(g):
    return sorted({canon_label(e.label) for e in g.material_entities if e.role == "precursor"})


def product_labels(g):
    return sorted({canon_label(e.label) for e in g.material_entities if e.role == "product"})


def final_product_label(g):
    by_id = entity_by_id(g)
    if g.ordered_activity_ids:
        for ent_id in generated_by(g, g.ordered_activity_ids[-1]):
            node = by_id.get(ent_id)
            if node is not None and node.kind == "material":
                return canon_label(node.label)
    products = product_labels(g)
    return products[0] if products else ""


def step_tool_labels(g, activity_id):
    by_id = entity_by_id(g)
    labels = {
        canon_label(by_id[eid].label)
        for eid in used_by(g, activity_id)
        if eid in by_id and by_id[eid].kind == "tool"
    }
    return sorted(labels)


def _step_materials(g, entity_ids):
    by_id = entity_by_id(g)
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


def step_material_inputs(g, activity_id):
    return _step_materials(g, used_by(g, activity_id))


def step_material_outputs(g, activity_id):
    return _step_materials(g, generated_by(g, activity_id))


def memory_tools(g):
    """``build_memory``'s own derivation of a process's tools."""
    return sorted({canon_label(t.label) for t in g.tool_entities})


def reference_view(g: ProcessGraph) -> GraphView:
    steps = []
    for act, label in zip(g.ordered_activities(), route_labels(g)):
        in_labels, in_forms = step_material_inputs(g, act.id)
        out_labels, out_forms = step_material_outputs(g, act.id)
        steps.append(StepView(act, label, tuple(step_tool_labels(g, act.id)), tuple(in_labels),
                              tuple(in_forms), tuple(out_labels), tuple(out_forms)))
    return GraphView(tuple(route_labels(g)), tuple(precursor_labels(g)),
                     tuple(product_labels(g)), final_product_label(g), tuple(memory_tools(g)),
                     tuple(steps))


# --- the pipeline's corpora -----------------------------------------------------------


@pytest.fixture(scope="module", params=[11, 12, 13])
def synth_graphs(request, tmp_path_factory):
    root = tmp_path_factory.mktemp(f"synth{request.param}")
    raw, graphs = root / "raw.ndjson", root / "graphs.ndjson"
    assert cli.dispatch(["synth", "--out", str(raw), "--n", "200", "--seed", str(request.param)]) == 0
    assert cli.dispatch(["compile", "--in", str(raw), "--out", str(graphs),
                         "--warnings", str(root / "warnings.ndjson")]) == 0
    return load_graphs(graphs)


def test_the_view_equals_the_helpers_on_synth_corpora(synth_graphs):
    assert len(synth_graphs) > 100
    for g in synth_graphs:
        assert graph_view(g) == reference_view(g), g.record_id


def test_the_view_is_plain_tuples():
    g = chain(["Mix", "Sinter"])
    view = graph_view(g)
    assert all(type(v) is tuple for v in view[:3]) and type(view.steps) is tuple
    assert all(type(v) is tuple for step in view.steps for v in step[2:])
    with pytest.raises(AttributeError):
        view.route = ()


# --- hand-built corner cases ------------------------------------------------------------


def entity(node_id, label, kind="material", role=None, form=None):
    attributes = {} if form is None else {"form": form}
    return EntityNode(id=node_id, label=label, kind=kind, attributes=attributes, role=role)


def chain(labels):
    """A compiled-looking chain: precursor -> a0 -> m1 -> a1 -> ... -> product."""
    g = ProcessGraph(record_id="chain")
    g.material_entities.append(entity("m0", "Start Powder", role="precursor", form="Powder"))
    for i, label in enumerate(labels):
        g.activities.append(ActivityNode(id=f"a{i}", label=label, source_position=i))
        out = entity(f"m{i + 1}", f"Stage {i}", role="product" if i == len(labels) - 1 else None)
        g.material_entities.append(out)
        g.usage_edges.append((f"m{i}", f"a{i}"))
        g.generation_edges.append((f"a{i}", out.id))
    g.ordered_activity_ids = [a.id for a in g.activities]
    return g


def _dup_edges():
    g = chain(["Mill", "Press"])
    g.tool_entities.append(entity("t0", "Ball  Mill", kind="tool"))
    g.usage_edges += [("m0", "a0"), ("t0", "a0"), ("t0", "a0")]
    g.generation_edges.append(("a1", "m2"))
    return g


def _dup_ids():
    g = chain(["Mill", "Press"])
    g.tool_entities.append(entity("m1", "Die", kind="tool"))  # shadows material m1
    g.activities.append(ActivityNode(id="a1", label="Anneal", source_position=9))
    g.ordered_activity_ids.append("a1")
    return g


def _unknown_ids():
    g = chain(["Mill", "Press"])
    g.usage_edges += [("ghost", "a0"), ("m0", "nowhere")]
    g.generation_edges += [("a1", "ghost"), ("nowhere", "m0")]
    return g


def _forms():
    g = chain(["Mill", "Press"])
    g.tool_entities.append(entity("t0", "Die", kind="tool", form="Steel"))
    g.material_entities.append(entity("m9", "Binder", role="precursor", form=""))
    g.usage_edges += [("t0", "a1"), ("m9", "a1")]
    return g


def _edgeless_activity():
    g = chain(["Mill", "Press"])
    g.activities.append(ActivityNode(id="a9", label="Rest", source_position=9))
    g.ordered_activity_ids.insert(1, "a9")
    return g


def _last_makes_a_tool():
    g = chain(["Mill", "Press"])
    g.tool_entities.append(entity("t0", "Pellet Die", kind="tool"))
    g.generation_edges = [e for e in g.generation_edges if e[0] != "a1"] + [("a1", "t0")]
    return g


def _last_makes_nothing():
    g = chain(["Mill", "Press"])
    g.generation_edges = [e for e in g.generation_edges if e[0] != "a1"]
    return g


def _last_makes_nothing_and_no_products():
    g = _last_makes_nothing()
    for e in g.material_entities:
        e.role = None
    return g


def _no_activities():
    g = ProcessGraph(record_id="empty", material_entities=[entity("m0", "Lone", role="product")])
    return g


CORNERS = {
    "duplicate-edges": _dup_edges,
    "duplicate-ids": _dup_ids,
    "unknown-ids": _unknown_ids,
    "tool-form-and-empty-form": _forms,
    "edgeless-activity": _edgeless_activity,
    "last-step-makes-a-tool": _last_makes_a_tool,
    "last-step-makes-nothing": _last_makes_nothing,
    "no-precursors-no-products": _last_makes_nothing_and_no_products,
    "no-activities": _no_activities,
}


@pytest.mark.parametrize("build", CORNERS.values(), ids=CORNERS.keys())
def test_the_view_equals_the_helpers_on_corner_cases(build):
    g = build()
    assert graph_view(g) == reference_view(g)


def test_the_corner_cases_reach_every_fallback():
    views = {name: graph_view(build()) for name, build in CORNERS.items()}
    assert views["last-step-makes-a-tool"].product == "stage 1"  # the product-role label
    assert views["no-precursors-no-products"].product == ""
    assert views["no-precursors-no-products"].precursors == ()
    assert views["duplicate-edges"].steps[0].inputs == ("start powder", "start powder")
    assert views["duplicate-edges"].steps[0].tools == ("ball mill",)
    assert views["tool-form-and-empty-form"].steps[1].input_forms == ()
    assert views["edgeless-activity"].steps[1][2:] == ((),) * 5
    assert views["no-activities"] == GraphView((), (), ("lone",), "lone", (), ())


# --- generated graphs -------------------------------------------------------------------

NODE_IDS = st.sampled_from(["n0", "n1", "n2", "n3", "n4", "a0", "a1", "ghost"])
LABELS = st.sampled_from(["Ball  Milling", "ball milling", "SINTER", " Press ", "x", ""])
FORMS = st.sampled_from([None, "", "Powder", " pellet ", "FILM"])
ROLES = st.sampled_from([None, "precursor", "product", "intermediate"])
KINDS = st.sampled_from(["material", "material", "tool"])


@st.composite
def graphs(draw):
    def entities():
        return draw(st.lists(st.builds(entity, NODE_IDS, LABELS, KINDS, ROLES, FORMS), max_size=5))

    activities = draw(st.lists(st.builds(ActivityNode, id=NODE_IDS, label=LABELS), max_size=4))
    ids = [a.id for a in activities]
    if ids:
        order = draw(st.permutations(ids)) if draw(st.booleans()) else draw(
            st.lists(st.sampled_from(ids), max_size=5))
    else:
        order = []
    edges = st.lists(st.tuples(NODE_IDS, NODE_IDS), max_size=10)
    return ProcessGraph(record_id="h", material_entities=entities(), tool_entities=entities(),
                        activities=activities, usage_edges=draw(edges),
                        generation_edges=draw(edges), ordered_activity_ids=list(order))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(graphs())
def test_the_view_equals_the_helpers_on_generated_graphs(g):
    assert graph_view(g) == reference_view(g)


# --- work bound -------------------------------------------------------------------------


def test_each_stage_builds_one_view_per_graph(monkeypatch):
    built = Counter()

    def counted(g):
        built[g.record_id] += 1
        return graph_view(g)

    for module in (pools, generate, memory):
        monkeypatch.setattr(module, "graph_view", counted)
    corpus = generate_synthetic_corpus(SynthParams(n_records=100), seed=11)
    generate_benchmark(corpus, seed=4)
    assert len(built) == len(corpus) and max(built.values()) <= 2  # pools, then tasks
    built.clear()
    memory.build_memory(corpus)
    assert built == Counter(g.record_id for g in corpus)
