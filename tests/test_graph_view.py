"""``graph_view`` against the label helpers it replaced.

The helpers are kept below as they were before the view existed: each one
rebuilt the entity map and rescanned the edge lists on every call. They
read the material roles and the activity order from ``material_roles`` and
``order_activities``, as the view does, since a graph no longer holds
either. The view must give the same values on the pipeline's synthetic
corpora and on hand-built and generated graphs with duplicate edges, tools
with a form, empty forms, activities without edges, a last step that makes
no material, and no precursors or products. A cyclic graph has no view.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matproc import cli, memory
from matproc.canon import canon_label
from matproc.errors import CyclicPrecedence, MalformedDocument
from matproc.jsonio import ReadOnlyMapping
from matproc.provgraph import (ActivityNode, EntityNode, GraphView, ProcessGraph, StepView,
                               SynthParams, compile_graph, generate_synthetic_corpus, graph_view,
                               load_graphs, material_roles)
from matproc.taskgen import generate, generate_benchmark

from helpers import ordered_activities

# --- the replaced helpers, as they were -------------------------------------------------


def entity_by_id(g):
    return {e.id: e for e in g.entities()}


def used_by(g, activity_id):
    return [e for (e, a) in g.usage_edges if a == activity_id]


def generated_by(g, activity_id):
    return [e for (a, e) in g.generation_edges if a == activity_id]


def route_labels(g):
    return [canon_label(a.label) for a in ordered_activities(g)]


def precursor_labels(g):
    roles = material_roles(g)
    return sorted({canon_label(e.label) for e in g.material_entities if roles[e.id] == "precursor"})


def product_labels(g):
    roles = material_roles(g)
    return sorted({canon_label(e.label) for e in g.material_entities if roles[e.id] == "product"})


def final_product_label(g):
    by_id = entity_by_id(g)
    if g.activities:
        for ent_id in generated_by(g, ordered_activities(g)[-1].id):
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
    for act, label in zip(ordered_activities(g), route_labels(g)):
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


def entity(node_id, label, kind="material", form=None):
    attributes = {} if form is None else {"form": form}
    return EntityNode(id=node_id, label=label, kind=kind, attributes=ReadOnlyMapping(attributes))


def chain(labels):
    """A chain whose edges make m0 the precursor and the last material the
    product: m0 -> a0 -> m1 -> a1 -> ..."""
    return ProcessGraph(
        record_id="chain",
        material_entities=(entity("m0", "Start Powder", form="Powder"),
                           *(entity(f"m{i + 1}", f"Stage {i}") for i in range(len(labels)))),
        activities=tuple(ActivityNode(id=f"a{i}", label=label, source_position=i)
                         for i, label in enumerate(labels)),
        usage_edges=tuple((f"m{i}", f"a{i}") for i in range(len(labels))),
        generation_edges=tuple((f"a{i}", f"m{i + 1}") for i in range(len(labels))),
    )


def _dup_edges():
    g = chain(["Mill", "Press"])
    return replace(g, tool_entities=(entity("t0", "Ball  Mill", kind="tool"),),
                   usage_edges=(*g.usage_edges, ("m0", "a0"), ("t0", "a0"), ("t0", "a0")),
                   generation_edges=(*g.generation_edges, ("a1", "m2")))


def _forms():
    g = chain(["Mill", "Press"])
    return replace(g, tool_entities=(entity("t0", "Die", kind="tool", form="Steel"),),
                   material_entities=(*g.material_entities, entity("m9", "Binder", form="")),
                   usage_edges=(*g.usage_edges, ("t0", "a1"), ("m9", "a1")))


def _edgeless_activity():
    """An activity no edge constrains comes last: its source position is the highest."""
    g = chain(["Mill", "Press"])
    first, *rest = g.activities
    return replace(g, activities=(first, ActivityNode(id="a9", label="Rest", source_position=9), *rest))


def _last_makes_a_tool():
    """The last step makes a tool; the first makes the one product besides m1."""
    g = chain(["Mill", "Press"])
    return replace(g, tool_entities=(entity("t0", "Pellet Die", kind="tool"),),
                   generation_edges=(("a0", "m1"), ("a0", "m2"), ("a1", "t0")))


def _last_makes_nothing():
    g = chain(["Mill", "Press"])
    return replace(g, generation_edges=tuple(e for e in g.generation_edges if e[0] != "a1"))


def _no_precursors_no_products():
    """m1 passes from a0 to a1; nothing enters a0 and nothing leaves a1."""
    g = chain(["Mill", "Press"])
    return replace(g, usage_edges=(("m1", "a1"),), generation_edges=(("a0", "m1"),))


def _no_activities():
    return ProcessGraph(record_id="empty", material_entities=(entity("m0", "Lone"),))


CORNERS = {
    "duplicate-edges": _dup_edges,
    "tool-form-and-empty-form": _forms,
    "edgeless-activity": _edgeless_activity,
    "last-step-makes-a-tool": _last_makes_a_tool,
    "last-step-makes-nothing": _last_makes_nothing,
    "no-precursors-no-products": _no_precursors_no_products,
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
    assert views["edgeless-activity"].route == ("mill", "press", "rest")
    assert views["edgeless-activity"].steps[2][2:] == ((),) * 5
    assert views["no-activities"] == GraphView((), (), (), "", (), ())


def _dup_ids():
    # the tool shadows material m1
    return replace(chain(["Mill", "Press"]), tool_entities=(entity("m1", "Die", kind="tool"),))


def _unknown_ids():
    g = chain(["Mill", "Press"])
    return replace(g, usage_edges=(*g.usage_edges, ("ghost", "a0"), ("m0", "nowhere")))


@pytest.mark.parametrize("build", [_dup_ids, _unknown_ids], ids=["duplicate-ids", "unknown-ids"])
def test_a_graph_with_repeated_or_unknown_ids_never_reaches_the_view(build):
    with pytest.raises(MalformedDocument):
        compile_graph(build())


# --- generated graphs -------------------------------------------------------------------

LABELS = st.sampled_from(["Ball  Milling", "ball milling", "SINTER", " Press ", "x", ""])
FORMS = st.sampled_from([None, "", "Powder", " pellet ", "FILM"])


@st.composite
def graphs(draw):
    """A graph ``validate_graph`` accepts, with repeated edges, edgeless nodes,
    source positions out of list order, and often a cycle."""
    def entities(prefix, kind):
        drawn = draw(st.lists(st.tuples(LABELS, FORMS), max_size=4))
        return tuple(entity(f"{prefix}{i}", label, kind, form) for i, (label, form) in enumerate(drawn))

    materials, tools = entities("m", "material"), entities("t", "tool")
    positions = draw(st.permutations(range(draw(st.integers(0, 4)))))
    activities = tuple(ActivityNode(id=f"a{i}", label=draw(LABELS), source_position=pos)
                       for i, pos in enumerate(positions))
    usage, generation = (), ()
    if (materials or tools) and activities:
        ent_ids = st.sampled_from([e.id for e in materials + tools])
        act_ids = st.sampled_from([a.id for a in activities])
        usage = tuple(draw(st.lists(st.tuples(ent_ids, act_ids), max_size=10)))
        generation = tuple(draw(st.lists(st.tuples(act_ids, ent_ids), max_size=6)))
    return ProcessGraph(record_id="h", material_entities=materials, tool_entities=tools,
                        activities=activities, usage_edges=usage, generation_edges=generation)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(graphs())
def test_the_view_equals_the_helpers_on_generated_graphs(g):
    try:
        compile_graph(g)
    except CyclicPrecedence:
        with pytest.raises(CyclicPrecedence):
            graph_view(g)
        return
    assert graph_view(g) == reference_view(g)


# --- work bound -------------------------------------------------------------------------


def test_each_stage_builds_one_view_per_graph(monkeypatch):
    built = Counter()

    def counted(g):
        built[g.record_id] += 1
        return graph_view(g)

    for module in (generate, memory):
        monkeypatch.setattr(module, "graph_view", counted)
    corpus = generate_synthetic_corpus(SynthParams(n_records=100), seed=11)
    generate_benchmark(corpus, seed=4)  # the pools and the tasks share each view
    assert built == Counter(g.record_id for g in corpus)
    built.clear()
    memory.build_memory(corpus)
    assert built == Counter(g.record_id for g in corpus)
