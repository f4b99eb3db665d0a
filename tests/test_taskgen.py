"""Benchmark generation: pools, instantiation, gold recoverability."""

from __future__ import annotations

import copy
import random
import types
from collections import Counter

import pytest

from matproc.canon import canon_label, canonical_json, derive_seed
from matproc.errors import EmptyCorpus, InvalidParams, RetentionFilterFailed
from matproc.provgraph import (
    ActivityNode,
    EntityNode,
    ProcessGraph,
    SynthParams,
    compile_graph,
    generate_synthetic_corpus,
    graph_view,
)
from matproc.taskgen import (
    BenchItem,
    GenCaps,
    build_candidate_pools,
    generate_benchmark,
    instantiate_tasks,
    load_items,
    order_satisfies,
    payload_constraints,
    read_benchmark,
    render_route,
    write_benchmark,
)

from matproc.taskgen import generate
from matproc.taskgen.model import QUESTION_TYPES

from gold_oracle import validate_item
from helpers import chain_graph, compiled, ordered_activities, views_of


def toy_corpus():
    specs = [
        ("g1", ["mixing", "sintering"],
         {"mixing": {"temperature": "300 c"},
          "sintering": {"temperature": "900 c", "duration": "2 h", "atmosphere": "argon"}},
         {"mixing": ("agate mortar",), "sintering": ("tube furnace",)},
         ("lithium carbonate", "cobalt oxide")),
        ("g2", ["milling", "annealing"],
         {"milling": {"temperature": "400 c"},
          "annealing": {"temperature": "1000 c", "duration": "5 h", "atmosphere": "air"}},
         {"milling": ("planetary ball mill",), "annealing": ("muffle furnace",)},
         ("nickel nitrate",)),
        ("g3", ["dissolving", "drying", "calcination"],
         {"dissolving": {"temperature": "60 c"},
          "drying": {"temperature": "120 c", "duration": "12 h", "atmosphere": "vacuum"},
          "calcination": {"temperature": "700 c", "duration": "4 h", "atmosphere": "oxygen"}},
         {"drying": ("vacuum oven",), "calcination": ("tube furnace",)},
         ("zinc acetate",)),
        ("g4", ["pressing", "sintering"],
         {"pressing": {"temperature": "25 c"},
          "sintering": {"temperature": "1100 c", "duration": "3 h", "atmosphere": "nitrogen"}},
         {"pressing": ("hydraulic press",), "sintering": ("spark plasma press",)},
         ("barium carbonate",)),
        ("g5", ["grinding"],
         {"grinding": {"temperature": "25 c", "duration": "1 h"}},
         {"grinding": ("agate mortar",)},
         ("iron oxide",)),
    ]
    return [
        compiled(chain_graph(labels, record_id=rid, conditions=conds, tools=tools, precursors=pre))
        for rid, labels, conds, tools, pre in specs
    ]


def synth_corpus(n=40, seed=7):
    return generate_synthetic_corpus(SynthParams(n_records=n), seed=seed)


# --- pools --------------------------------------------------------------------

def test_pools_single_graph():
    g = compiled(chain_graph(["mill", "sinter"], record_id="solo"))
    pools = build_candidate_pools([graph_view(g)])
    assert pools.routes == Counter({("mill", "sinter"): 1})
    assert pools.activity_labels == Counter({"mill": 1, "sinter": 1})
    assert pools.successors["mill"] == Counter({"sinter": 1})


def test_pools_empty_corpus():
    with pytest.raises(EmptyCorpus):
        build_candidate_pools([])


def test_pools_counts_match_brute_force():
    corpus = synth_corpus(25)
    pools = build_candidate_pools(views_of(corpus))
    acts = Counter()
    routes = Counter()
    tools = Counter()
    values: dict[str, Counter] = {}
    succ: dict[str, Counter] = {}
    for g in corpus:
        by_id = {e.id: e for e in g.entities()}
        labels = [canon_label(a.label) for a in ordered_activities(g)]
        routes[tuple(labels)] += 1
        for a, b in zip(labels, labels[1:]):
            succ.setdefault(a, Counter())[b] += 1
        for act, label in zip(ordered_activities(g), labels):
            acts[label] += 1
            for eid, aid in g.usage_edges:
                if aid == act.id and by_id[eid].kind == "tool":
                    tools[canon_label(by_id[eid].label)] += 1
            for key, val in act.conditions.items():
                values.setdefault(key, Counter())[val] += 1
    assert pools.activity_labels == acts
    assert pools.routes == routes
    assert pools.tool_labels == tools
    assert pools.condition_values == values
    assert pools.successors == succ


def test_pools_degenerate_key_absent():
    corpus = [
        compiled(chain_graph(["mill"], record_id=f"d{i}",
                             conditions={"mill": {"temperature": f"{i}00 c"}}))
        for i in range(5)
    ]
    pools = build_candidate_pools(views_of(corpus))
    assert "atmosphere" not in pools.condition_values
    items, _ = generate_benchmark(corpus, seed=1)
    assert all(it.question.condition_key != "atmosphere"
               for it in items if it.task == "B1_condition_prediction")


# --- instantiation ------------------------------------------------------------

def test_instantiating_tasks_leaves_the_pools_as_built():
    corpus = synth_corpus(30)
    pools = build_candidate_pools(views_of(corpus))
    built = copy.deepcopy(vars(pools))
    assert pools.routes_by_length.keys() == {len(r) for r in pools.routes}
    for g in corpus:
        instantiate_tasks(g, graph_view(g), pools, seed=4)
    # a length no route has
    longer = compiled(chain_graph(["mill"] * (max(pools.routes_by_length) + 2)))
    assert instantiate_tasks(longer, graph_view(longer), pools, seed=4)
    assert vars(pools) == built
    own = Counter()  # the pool of that length, summed per text in pool order
    for r, count in pools.routes.items():
        own[render_route(r)] += count / (1 + abs(len(r) - len(graph_view(longer).route)))
    assert list(pools.routes_near(len(graph_view(longer).route)).items()) == list(own.items())


def test_a_task_within_its_cap_builds_no_selection_rng(monkeypatch):
    corpus = synth_corpus(30)
    pools = build_candidate_pools(views_of(corpus))
    seeds = []

    class Recorded(random.Random):
        def __init__(self, x=None):
            seeds.append(x)
            super().__init__(x)

    def select_seeds(caps):
        seeds.clear()
        items = [it.to_dict() for g in corpus
                 for it in instantiate_tasks(g, graph_view(g), pools, seed=4, caps=caps)]
        selected = {derive_seed(4, g.record_id, task, "select") for g in corpus for task in QUESTION_TYPES}
        return items, len(selected & set(seeds))

    select_positions = generate._select_positions

    def eager(candidates, cap, make_rng):
        rng = make_rng()
        return select_positions(candidates, cap, lambda: rng)

    monkeypatch.setattr(generate, "random", types.SimpleNamespace(Random=Recorded))
    roomy = GenCaps(a2=99, a3=99, b1=99, b2=99, c1=99)  # no graph has more candidates
    lazy_items, lazy_selected = select_seeds(roomy)
    assert seeds and lazy_selected == 0  # item and placement RNGs only
    capped_items, capped_selected = select_seeds(GenCaps())
    assert 0 < capped_selected < 5 * len(corpus)  # one per task over its cap
    monkeypatch.setattr(generate, "_select_positions", eager)
    eager_items, eager_selected = select_seeds(roomy)
    assert eager_selected == 5 * len(corpus)  # A2, A3, B1, B2 and C1 on every graph
    assert lazy_items and lazy_items == eager_items
    assert capped_items == select_seeds(GenCaps())[0]


def test_single_activity_graph_task_mix():
    corpus = toy_corpus()
    pools = build_candidate_pools(views_of(corpus))
    solo = next(g for g in corpus if g.record_id == "g5")
    items = instantiate_tasks(solo, graph_view(solo), pools, seed=3)
    tasks = {it.task for it in items}
    assert "C1_tool_selection" in tasks
    assert "B1_condition_prediction" in tasks
    assert "A3_next_activity" not in tasks
    assert "D_process_ordering" not in tasks


def test_retention_filter():
    g = ProcessGraph(record_id="nopre", activities=(ActivityNode(id="a0", label="mix", source_position=0),),
                     material_entities=(EntityNode(id="m0", label="out", kind="material"),),
                     generation_edges=(("a0", "m0"),))
    compile_graph(g)
    pools = build_candidate_pools(views_of(toy_corpus()))
    with pytest.raises(RetentionFilterFailed):
        instantiate_tasks(g, graph_view(g), pools, seed=0)
    _, skips = generate_benchmark(toy_corpus() + [g], seed=0)
    assert {"graph_id": "nopre", "task": "*", "reason": "retention_filter"} in skips


@pytest.mark.parametrize("k_options", [0, 1, 9])
def test_an_option_count_no_prompt_can_letter_is_refused_before_any_item(monkeypatch, k_options):
    corpus = toy_corpus()
    pools = build_candidate_pools(views_of(corpus))
    built = []
    monkeypatch.setattr(generate, "BenchItem", lambda *args, **kwargs: built.append(kwargs))
    with pytest.raises(InvalidParams, match=fr"^RunConfig\.k_options: {k_options} is outside \[2, 8\]$"):
        instantiate_tasks(corpus[0], graph_view(corpus[0]), pools, k_options=k_options, seed=0)
    with pytest.raises(InvalidParams):
        generate_benchmark(corpus, k_options=k_options, seed=0)
    assert built == []


def test_gold_exactly_once_and_distinct_options():
    items, _ = generate_benchmark(synth_corpus(), seed=5)
    assert len(items) > 200
    for it in items:
        assert len(it.options) == 4
        assert len(set(it.options)) == 4
        assert it.options.count(it.gold_option()) == 1


def test_gold_index_spread():
    items, _ = generate_benchmark(synth_corpus(), seed=5)
    assert {it.gold_index for it in items} == {0, 1, 2, 3}


def test_generation_deterministic():
    corpus = synth_corpus(15)
    a, la = generate_benchmark(corpus, seed=9)
    b, lb = generate_benchmark(corpus, seed=9)
    assert canonical_json([x.to_dict() for x in a]) == canonical_json([x.to_dict() for x in b])
    assert la == lb
    c, _ = generate_benchmark(corpus, seed=10)
    assert canonical_json([x.to_dict() for x in a]) != canonical_json([x.to_dict() for x in c])


def test_distractors_observed_in_pools():
    corpus = synth_corpus(30)
    pools = build_candidate_pools(views_of(corpus))
    rendered_routes = {render_route(r) for r in pools.routes}
    items, _ = generate_benchmark(corpus, seed=4)
    for it in items:
        for idx, option in enumerate(it.options):
            if idx == it.gold_index:
                continue
            if it.task in ("A2_missing_step", "A3_next_activity"):
                assert option in pools.activity_labels
            elif it.task == "C1_tool_selection":
                assert option in pools.tool_labels
            elif it.task == "B1_condition_prediction":
                assert option in pools.condition_values[it.question.condition_key]
            elif it.task == "A1_route_retrieval":
                assert option in rendered_routes
            elif it.task == "D_process_ordering":
                assert sorted(option.split(" -> ")) == sorted(s.label for s in it.question.steps)


def test_pool_exhausted_skips_not_fatal():
    corpus = [compiled(chain_graph(["mill", "sinter"], record_id="only"))]
    items, skips = generate_benchmark(corpus, seed=2)
    assert any(s["reason"] == "pool_exhausted" for s in skips)
    assert all(s["graph_id"] == "only" for s in skips)
    for it in items:  # whatever still emitted must be well-formed
        assert len(set(it.options)) == len(it.options)


def test_caps_respected():
    corpus = synth_corpus(25)
    caps = GenCaps(a1=1, a2=2, a3=1, b1=2, b2=1, c1=1, d=1)
    items, _ = generate_benchmark(corpus, seed=6, caps=caps)
    per_graph: dict[tuple[str, str], int] = {}
    for it in items:
        per_graph[(it.graph_id, it.task)] = per_graph.get((it.graph_id, it.task), 0) + 1
    limit = {"A1_route_retrieval": 1, "A2_missing_step": 2, "A3_next_activity": 1,
             "B1_condition_prediction": 2, "B2_full_condition_set": 1,
             "C1_tool_selection": 1, "D_process_ordering": 1}
    for (gid, task), n in per_graph.items():
        assert n <= limit[task]


def test_b1_most_frequent_task_on_synthetic():
    items, _ = generate_benchmark(synth_corpus(60), seed=1)
    counts = Counter(it.task for it in items)
    assert counts.most_common(1)[0][0] == "B1_condition_prediction"


def test_b1_subpool_conditioning():
    temps = ["800 c", "900 c", "1000 c", "1100 c", "1200 c"]
    corpus = [
        compiled(chain_graph(["mixing", "sintering"], record_id=f"s{i}",
                             conditions={"sintering": {"temperature": t}},
                             tools={"sintering": ("tube furnace",)}))
        for i, t in enumerate(temps)
    ]
    # one outlier activity with its own exclusive value
    corpus.append(compiled(chain_graph(["quenching"], record_id="q0",
                                       conditions={"quenching": {"temperature": "10 c"}})))
    items, _ = generate_benchmark(corpus, seed=3, caps=GenCaps(b1=8))
    b1_sinter = [it for it in items
                 if it.task == "B1_condition_prediction" and it.question.activity == "sintering"]
    assert b1_sinter
    for it in b1_sinter:
        for idx, option in enumerate(it.options):
            if idx != it.gold_index:
                assert option in temps  # sub-pool rich enough: outlier value never leaks in


def test_a2_mask_payload_consistent():
    items, _ = generate_benchmark(synth_corpus(20), seed=8)
    graphs = {g.record_id: g for g in synth_corpus(20)}
    for it in items:
        if it.task != "A2_missing_step":
            continue
        q = it.question
        assert q.route_with_mask[q.masked_index] == "?"
        route = graph_view(graphs[it.graph_id]).route
        for i, label in enumerate(q.route_with_mask):
            if i != q.masked_index:
                assert label == route[i]
        assert it.gold_option() == route[q.masked_index]


def test_a3_prefix_is_true_prefix():
    corpus = synth_corpus(20)
    graphs = {g.record_id: g for g in corpus}
    items, _ = generate_benchmark(corpus, seed=8)
    for it in items:
        if it.task != "A3_next_activity":
            continue
        route = list(graph_view(graphs[it.graph_id]).route)
        prefix = it.question.prefix
        assert route[: len(prefix)] == prefix
        assert it.gold_option() == route[len(prefix)]


# --- D-task payload constraints -------------------------------------------------

def test_d_gold_satisfies_and_distractors_violate():
    corpus = synth_corpus(30)
    items, _ = generate_benchmark(corpus, seed=2)
    d_items = [it for it in items if it.task == "D_process_ordering"]
    assert d_items
    for it in d_items:
        constraints = payload_constraints(it.question.steps)
        assert constraints  # material flow is visible in the payload
        assert order_satisfies(it.gold_option().split(" -> "), constraints)
        for idx, option in enumerate(it.options):
            if idx != it.gold_index:
                assert not order_satisfies(option.split(" -> "), constraints)


# --- validate_item ---------------------------------------------------------------

def test_validate_all_emitted_items():
    corpus = synth_corpus(40)
    graphs = {g.record_id: g for g in corpus}
    items, _ = generate_benchmark(corpus, seed=5)
    reports = [validate_item(it, graphs[it.graph_id]) for it in items]
    assert all(r.ok for r in reports), [r.problems for r in reports if not r.ok][:3]


def test_validate_toy_corpus_items():
    corpus = toy_corpus()
    graphs = {g.record_id: g for g in corpus}
    items, _ = generate_benchmark(corpus, seed=11)
    assert items
    for it in items:
        assert validate_item(it, graphs[it.graph_id]).ok


def test_validate_flags_corrupted_gold():
    corpus = synth_corpus(10)
    graphs = {g.record_id: g for g in corpus}
    items, _ = generate_benchmark(corpus, seed=5)
    it = items[0]
    it.gold_index = (it.gold_index + 1) % len(it.options)
    report = validate_item(it, graphs[it.graph_id])
    assert not report.ok
    assert any(p.startswith("GoldMismatch") for p in report.problems)


def test_validate_flags_valid_order_distractor():
    # two independent first steps merging into a third: two valid orders exist
    g = ProcessGraph(
        record_id="merge", doi="10.7/m", year=2018,
        material_entities=(
            EntityNode(id="p0", label="salt a", kind="material"),
            EntityNode(id="p1", label="salt b", kind="material"),
            EntityNode(id="i0", label="phase a", kind="material"),
            EntityNode(id="i1", label="phase b", kind="material"),
            EntityNode(id="m", label="final compound", kind="material"),
        ),
        activities=(
            ActivityNode(id="a0", label="dissolving", source_position=0),
            ActivityNode(id="a1", label="grinding", source_position=1),
            ActivityNode(id="a2", label="sintering", source_position=2),
        ),
        usage_edges=(("p0", "a0"), ("p1", "a1"), ("i0", "a2"), ("i1", "a2")),
        generation_edges=(("a0", "i0"), ("a1", "i1"), ("a2", "m")),
    )
    compile_graph(g)
    steps = [
        {"label": "dissolving", "inputs": ["salt a"], "outputs": ["phase a"]},
        {"label": "grinding", "inputs": ["salt b"], "outputs": ["phase b"]},
        {"label": "sintering", "inputs": ["phase a", "phase b"], "outputs": ["final compound"]},
    ]
    item = BenchItem(
        item_id="merge:D_process_ordering:0",
        task="D_process_ordering",
        question={"product": "final compound", "precursors": ["salt a", "salt b"], "steps": steps},
        options=[
            "dissolving -> grinding -> sintering",   # gold
            "grinding -> dissolving -> sintering",   # also a valid order -> must be flagged
            "sintering -> dissolving -> grinding",
            "sintering -> grinding -> dissolving",
        ],
        gold_index=0,
        graph_id="merge",
    )
    report = validate_item(item, g)
    assert not report.ok
    assert any(p.startswith("DistractorViolationMissing") for p in report.problems)


def test_validate_wrong_graph():
    corpus = synth_corpus(5)
    items, _ = generate_benchmark(corpus, seed=5)
    report = validate_item(items[0], corpus[-1] if corpus[-1].record_id != items[0].graph_id else corpus[-2])
    assert not report.ok


# --- store ----------------------------------------------------------------------

def test_benchmark_store_round_trip(tmp_path):
    items, skips = generate_benchmark(synth_corpus(10), seed=13)
    path = tmp_path / "bench.ndjson"
    n = write_benchmark(path, items, seed=13, k_options=4, config_hash="abc",
                        skip_log=skips, skips_path=tmp_path / "skips.ndjson")
    assert n == len(items)
    header, back = read_benchmark(path)
    assert header["format"] == "matproc-bench"
    assert header["seed"] == 13
    assert header["k_options"] == 4
    assert header["config_hash"] == "abc"
    assert header["count"] == len(items)
    assert [x.to_dict() for x in back] == [x.to_dict() for x in items]
    assert all(type(x.question) is QUESTION_TYPES[x.task] for x in back)
    assert {x.task for x in back} == set(QUESTION_TYPES)
    again = tmp_path / "again.ndjson"
    write_benchmark(again, back, seed=13, k_options=4, config_hash="abc")
    assert again.read_bytes() == path.read_bytes()
    assert load_items(path)[0].item_id == items[0].item_id
