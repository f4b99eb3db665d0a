"""Parsing, role inference, precedence and ordering, against brute-force oracles."""

from __future__ import annotations

import json
import random

import networkx as nx
import pytest

from matproc.canon import canonical_json
from matproc.errors import CyclicPrecedence, EmptyRecord, InvalidParams, MalformedDocument
from matproc.provgraph import (
    ActivityNode,
    EntityNode,
    FieldMap,
    ProcessGraph,
    SynthParams,
    assign_roles,
    compile_graph,
    generate_synthetic_corpus,
    infer_precedence,
    order_activities,
    parse_record,
    to_prov_document,
    validate_graph,
)

from helpers import chain_graph, random_graph


# --- oracles -----------------------------------------------------------------

def oracle_roles(g: ProcessGraph) -> dict[str, str]:
    """Recompute roles from the raw edge lists only."""
    roles = {}
    for node in g.material_entities:
        out_edges = [e for e in g.usage_edges if e[0] == node.id]
        in_edges = [e for e in g.generation_edges if e[1] == node.id]
        if out_edges and in_edges:
            roles[node.id] = "intermediate"
        elif out_edges:
            roles[node.id] = "precursor"
        elif in_edges:
            roles[node.id] = "product"
        else:
            roles[node.id] = "unconnected"
    for node in g.tool_entities:
        roles[node.id] = "tool"
    return roles


def oracle_precedence(g: ProcessGraph) -> set[tuple[str, str]]:
    """Brute force over all entity generate/use pairs."""
    pairs = set()
    for act_i in g.activities:
        for act_j in g.activities:
            if act_i.id == act_j.id:
                continue
            for (a, e) in g.generation_edges:
                if a != act_i.id:
                    continue
                if (e, act_j.id) in g.usage_edges:
                    pairs.add((act_i.id, act_j.id))
    return pairs


def all_topological_orders(activity_ids, pairs):
    dg = nx.DiGraph()
    dg.add_nodes_from(activity_ids)
    dg.add_edges_from(pairs)
    return [tuple(order) for order in nx.all_topological_sorts(dg)]


# --- parse_record ------------------------------------------------------------

def minimal_doc():
    return {
        "@id": "rec-1",
        "doi": "10.1/abc",
        "year": 2019,
        "material_class": "battery",
        "@graph": [
            {"@id": "e1", "@type": "prov:Entity", "prov:label": "titanium dioxide", "form": "powder"},
            {"@id": "a1", "@type": "prov:Activity", "prov:label": "ball milling", "temperature": "300 C"},
            {"@id": "e2", "@type": "prov:Entity", "prov:label": "milled oxide"},
            {"@type": "prov:Usage", "prov:entity": {"@id": "e1"}, "prov:activity": {"@id": "a1"}},
            {"@type": "prov:Generation", "prov:entity": {"@id": "e2"}, "prov:activity": {"@id": "a1"}},
        ],
    }


def test_parse_minimal_chain():
    g = parse_record(json.dumps(minimal_doc()))
    assert len(g.material_entities) == 2
    assert len(g.activities) == 1
    assert len(g.usage_edges) == 1
    assert len(g.generation_edges) == 1
    assert g.doi == "10.1/abc"
    assert g.year == 2019
    assert g.material_class == "battery"
    # condition values are canonicalized at parse time
    assert g.activities[0].conditions["temperature"] == "300 c"


def test_parse_tool_typed_entity():
    doc = minimal_doc()
    doc["@graph"].insert(1, {"@id": "t1", "@type": "prov:Entity", "prov:label": "agate mortar", "category": "tool"})
    doc["@graph"].append({"@type": "prov:Usage", "prov:entity": {"@id": "t1"}, "prov:activity": {"@id": "a1"}})
    g = parse_record(doc)
    assert [t.label for t in g.tool_entities] == ["agate mortar"]
    assert g.tool_entities[0].kind == "tool"
    assert len(g.usage_edges) == 2


def test_parse_flat_prov_json():
    doc = {
        "doi": "10.2/z",
        "year": "2021",
        "entity": {"e1": {"prov:label": "precursor"}, "e2": {"prov:label": "product"}},
        "activity": {"a1": {"prov:label": "sintering", "duration": "2 H"}},
        "used": {"_:u1": {"prov:entity": "e1", "prov:activity": "a1"}},
        "wasGeneratedBy": {"_:g1": {"prov:entity": "e2", "prov:activity": "a1"}},
    }
    g = parse_record(doc)
    assert g.year == 2021
    assert g.usage_edges == [("e1", "a1")]
    assert g.generation_edges == [("a1", "e2")]
    assert g.activities[0].conditions["duration"] == "2 h"


def test_a_field_map_names_the_relation_keys_of_flat_and_json_ld_records():
    fm = FieldMap(usage_keys=("consumed",), generation_keys=("made",))
    flat = {
        "entity": {"e1": {"prov:label": "precursor"}, "e2": {"prov:label": "product"}},
        "activity": {"a1": {"prov:label": "sintering"}},
        "consumed": {"_:u1": {"prov:entity": "e1", "prov:activity": "a1"}},
        "made": {"_:g1": {"prov:entity": "e2", "prov:activity": "a1"}},
        # the default keys are not the field map's, so these relations are ignored
        "used": {"_:u2": {"prov:entity": "e2", "prov:activity": "a1"}},
        "wasGeneratedBy": {"_:g2": {"prov:entity": "e1", "prov:activity": "a1"}},
    }
    json_ld = {"@graph": [
        {"@id": "e1", "@type": "prov:Entity", "prov:label": "precursor"},
        {"@id": "e2", "@type": "prov:Entity", "prov:label": "product", "made": "a1"},
        {"@id": "a1", "@type": "prov:Activity", "prov:label": "sintering", "consumed": "e1"},
    ]}
    for doc in (flat, json_ld):
        g = compile_graph(parse_record(doc, fm))
        assert g.usage_edges == [("e1", "a1")] and g.generation_edges == [("a1", "e2")]
        assert g.warnings == []


def test_parse_rejects_malformed():
    with pytest.raises(MalformedDocument):
        parse_record("not json {{{")
    with pytest.raises(MalformedDocument):
        parse_record({"hello": "world"})


def test_parse_empty_record():
    doc = {"@id": "r", "@graph": [{"@id": "e1", "@type": "prov:Entity", "prov:label": "x"}]}
    with pytest.raises(EmptyRecord):
        parse_record(doc)


def test_parse_dangling_edge_warned_not_fatal():
    doc = minimal_doc()
    doc["@graph"].append({"@type": "prov:Usage", "prov:entity": {"@id": "ghost"}, "prov:activity": {"@id": "a1"}})
    g = parse_record(doc)
    assert len(g.usage_edges) == 1
    assert any("dangling" in w for w in g.warnings)


def test_parse_generation_onto_tool_kept_and_flagged():
    doc = minimal_doc()
    doc["@graph"].insert(1, {"@id": "t1", "@type": "prov:Entity", "prov:label": "crucible", "category": "tool"})
    doc["@graph"].append({"@type": "prov:Generation", "prov:entity": {"@id": "t1"}, "prov:activity": {"@id": "a1"}})
    g = parse_record(doc)
    assert ("a1", "t1") in g.generation_edges
    assert any("tool" in w for w in g.warnings)
    assign_roles(g)
    assert g.tool_entities[0].role == "tool"


# --- assign_roles ------------------------------------------------------------

def test_roles_chain():
    g = chain_graph(["mixing", "sintering"])
    compile_graph(g)
    by_id = {e.id: e.role for e in g.material_entities}
    assert by_id["p0"] == "precursor"
    assert by_id["m0"] == "intermediate"
    assert by_id["m1"] == "product"


def test_roles_isolated_node_unconnected():
    g = chain_graph(["mixing"])
    g.material_entities.append(EntityNode(id="iso", label="leftover", kind="material"))
    assign_roles(g)
    assert next(e for e in g.material_entities if e.id == "iso").role == "unconnected"


@pytest.mark.parametrize("seed", range(8))
def test_roles_match_oracle_on_random_graphs(seed):
    g = random_graph(seed, n_materials=20)
    assign_roles(g)
    expected = oracle_roles(g)
    got = {e.id: e.role for e in g.material_entities + g.tool_entities}
    assert got == expected


def test_flow_asymmetry_invariant():
    # no generation edge terminates at a node whose final role is precursor
    for seed in range(6):
        g = random_graph(seed)
        assign_roles(g)
        precursors = {e.id for e in g.material_entities if e.role == "precursor"}
        assert all(dst not in precursors for (_, dst) in g.generation_edges)


# --- infer_precedence --------------------------------------------------------

def test_precedence_single_flow():
    g = ProcessGraph(record_id="p")
    g.material_entities = [EntityNode(id="x", label="x", kind="material")]
    g.activities = [ActivityNode(id="a1", label="mill", source_position=0),
                    ActivityNode(id="a2", label="sinter", source_position=1)]
    g.generation_edges = [("a1", "x")]
    g.usage_edges = [("x", "a2")]
    assert infer_precedence(g) == {("a1", "a2")}


def test_precedence_shared_precursor_gives_none():
    g = ProcessGraph(record_id="p")
    g.material_entities = [EntityNode(id="x", label="x", kind="material")]
    g.activities = [ActivityNode(id="a1", label="mill", source_position=0),
                    ActivityNode(id="a2", label="sinter", source_position=1)]
    g.usage_edges = [("x", "a1"), ("x", "a2")]
    assert infer_precedence(g) == set()


def diamond_graph():
    g = ProcessGraph(record_id="diamond")
    for mid in ["x", "y", "u", "v", "w"]:
        g.material_entities.append(EntityNode(id=mid, label=mid, kind="material"))
    for i, aid in enumerate(["a1", "a2", "a3", "a4"]):
        g.activities.append(ActivityNode(id=aid, label=f"op {aid}", source_position=i))
    g.generation_edges = [("a1", "x"), ("a1", "y"), ("a2", "u"), ("a3", "v"), ("a4", "w")]
    g.usage_edges = [("x", "a2"), ("y", "a3"), ("u", "a4"), ("v", "a4")]
    return g


def test_precedence_diamond_matches_oracle():
    g = diamond_graph()
    expected = {("a1", "a2"), ("a1", "a3"), ("a2", "a4"), ("a3", "a4")}
    assert infer_precedence(g) == expected
    assert oracle_precedence(g) == expected


@pytest.mark.parametrize("seed", range(10))
def test_precedence_matches_oracle_random(seed):
    g = random_graph(seed, n_materials=10, n_activities=6, p_edge=0.25)
    try:
        got = infer_precedence(g)
    except CyclicPrecedence:
        dg = nx.DiGraph(oracle_precedence(g))
        assert not nx.is_directed_acyclic_graph(dg) or len(dg) == 0
        return
    assert got == oracle_precedence(g)


def test_precedence_cycle_flagged():
    g = ProcessGraph(record_id="cyc")
    g.material_entities = [EntityNode(id="x", label="x", kind="material"),
                           EntityNode(id="y", label="y", kind="material")]
    g.activities = [ActivityNode(id="a1", label="a", source_position=0),
                    ActivityNode(id="a2", label="b", source_position=1)]
    g.generation_edges = [("a1", "x"), ("a2", "y")]
    g.usage_edges = [("x", "a2"), ("y", "a1")]
    with pytest.raises(CyclicPrecedence):
        infer_precedence(g)


# --- order_activities --------------------------------------------------------

def test_order_without_constraints_keeps_source_order():
    g = ProcessGraph(record_id="o")
    g.activities = [ActivityNode(id="a2", label="b", source_position=0),
                    ActivityNode(id="a1", label="a", source_position=1)]
    assert order_activities(g, set()) == ["a2", "a1"]


def test_order_constraint_dominates_source_order():
    g = ProcessGraph(record_id="o")
    g.activities = [ActivityNode(id="a2", label="b", source_position=0),
                    ActivityNode(id="a1", label="a", source_position=1)]
    assert order_activities(g, {("a1", "a2")}) == ["a1", "a2"]


def test_order_diamond_valid_and_unique_under_tiebreak():
    g = diamond_graph()
    prec = infer_precedence(g)
    order = order_activities(g, prec)
    valid = all_topological_orders([a.id for a in g.activities], prec)
    assert tuple(order) in valid
    # the tie-break (source position a2 < a3) makes the choice unique
    assert order == ["a1", "a2", "a3", "a4"]


@pytest.mark.parametrize("seed", range(10))
def test_order_always_respects_precedence(seed):
    g = random_graph(seed, n_activities=6, p_edge=0.2)
    try:
        prec = infer_precedence(g)
    except CyclicPrecedence:
        return
    order = order_activities(g, prec)
    assert sorted(order) == sorted(a.id for a in g.activities)
    pos = {a: i for i, a in enumerate(order)}
    assert all(pos[i] < pos[j] for (i, j) in prec)


# --- synthetic corpus --------------------------------------------------------

def test_synth_empty():
    assert generate_synthetic_corpus(SynthParams(n_records=0), seed=1) == []


def test_synth_deterministic():
    a = generate_synthetic_corpus(SynthParams(n_records=25), seed=11)
    b = generate_synthetic_corpus(SynthParams(n_records=25), seed=11)
    assert canonical_json([g.to_dict() for g in a]) == canonical_json([g.to_dict() for g in b])
    c = generate_synthetic_corpus(SynthParams(n_records=25), seed=12)
    assert canonical_json([g.to_dict() for g in a]) != canonical_json([g.to_dict() for g in c])


def test_synth_class_mix_within_5_points():
    mix = {"battery": 0.3, "thermoelectric": 0.4, "magnetic": 0.3}
    corpus = generate_synthetic_corpus(SynthParams(n_records=200, class_mix=mix), seed=3)
    for cls, target in mix.items():
        frac = sum(1 for g in corpus if g.material_class == cls) / len(corpus)
        assert abs(frac - target) <= 0.05


def test_synth_graphs_compile_clean():
    corpus = generate_synthetic_corpus(SynthParams(n_records=40), seed=5)
    for g in corpus:
        validate_graph(g)
        assert g.ordered_activity_ids
        assert all(e.role is not None for e in g.material_entities + g.tool_entities)
        prec = infer_precedence(g)
        pos = {a: i for i, a in enumerate(g.ordered_activity_ids)}
        assert all(pos[i] < pos[j] for (i, j) in prec)


def test_synth_rejects_bad_params():
    with pytest.raises(InvalidParams):
        generate_synthetic_corpus(SynthParams(route_length_range=(0, 3)), seed=1)
    with pytest.raises(InvalidParams):
        generate_synthetic_corpus(SynthParams(activity_vocab=()), seed=1)


def test_prov_document_round_trip():
    corpus = generate_synthetic_corpus(SynthParams(n_records=10), seed=9)
    for g in corpus:
        doc = to_prov_document(g)
        back = compile_graph(parse_record(json.dumps(doc)))
        assert canonical_json(back.to_dict()) == canonical_json(g.to_dict())


def test_parse_then_compile_deterministic():
    g = generate_synthetic_corpus(SynthParams(n_records=3), seed=21)[0]
    doc = json.dumps(to_prov_document(g))
    one = compile_graph(parse_record(doc)).to_dict()
    two = compile_graph(parse_record(doc)).to_dict()
    assert canonical_json(one) == canonical_json(two)


# --- random role-order determinism over whole pipeline ------------------------

def test_roles_partition_is_total_and_single():
    corpus = generate_synthetic_corpus(SynthParams(n_records=30), seed=8)
    for g in corpus:
        for e in g.material_entities:
            assert e.role in ("precursor", "intermediate", "product", "unconnected")
        for t in g.tool_entities:
            assert t.role == "tool"
        assert {e.id: e.role for e in g.material_entities} == {
            k: v for k, v in oracle_roles(g).items() if k in {e.id for e in g.material_entities}
        }
