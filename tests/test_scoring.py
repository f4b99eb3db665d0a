"""Scoring: symbolic task statistics, neural similarity, min-max fusion."""

from __future__ import annotations

import math
import random

import pytest

from matproc import retrieval as rt
from matproc import scoring as sc
from matproc.errors import ArityMismatch, InvalidParams, MalformedDocument
from matproc.memory import build_memory, linearize_process
from matproc.provgraph import SynthParams, generate_synthetic_corpus
from matproc.taskgen import BenchItem, generate_benchmark

from helpers import chain_graph, compiled


def make_item(task, question, options, gold_index=0, item_id=None, graph_id="gx"):
    return BenchItem(
        item_id=item_id or f"{graph_id}:{task}:0",
        task=task,
        question=question,
        options=list(options),
        gold_index=gold_index,
        graph_id=graph_id,
        doi="10.1/x",
        year=2018,
        material_class="other",
    )


def precedent(graph_id, score=1.0):
    return rt.RetrievedPrecedent(
        graph_id=graph_id, s_text=score, s_struct=score, s_heur=score, s_ret=score
    )


def two_route_memory():
    graphs = [
        compiled(chain_graph(["mill", "sinter"], record_id="g1")),
        compiled(chain_graph(["mill", "anneal"], record_id="g2")),
    ]
    return build_memory(graphs), graphs


def three_label_memory():
    """Routes [mix, mill, sinter] and [mix, sinter]: a 5-entry step library."""
    graphs = [
        compiled(chain_graph(["mix", "mill", "sinter"], record_id="g1")),
        compiled(chain_graph(["mix", "sinter"], record_id="g2")),
    ]
    return build_memory(graphs), graphs


# --- A3: next-activity ----------------------------------------------------------------


def test_a3_distribution_term_toy_memory():
    # candidates inside the two-route toy memory take their exact continuation
    # mass; an out-of-vocabulary distractor takes the smoothing floor
    memory, _ = two_route_memory()
    item = make_item(
        "A3_next_activity",
        {"product": "stage 1", "precursors": ["lithium carbonate"], "prefix": ["mill"]},
        ["sinter", "anneal", "quench", "mix"],
    )
    config = sc.ScoringConfig(two_way=(1.0, 0.0))  # isolate the distribution term
    raw = sc.score_options_symbolic(item, [], memory, config).raw_sym
    assert raw[0] == pytest.approx(0.5)
    assert raw[1] == pytest.approx(0.5)
    assert raw[2] == pytest.approx(1 / 5)  # floor: 1 / (total 2 + vocab 3)
    assert raw[3] == pytest.approx(1 / 5)


def test_a3_default_blend_with_precedents():
    memory, _ = two_route_memory()
    item = make_item(
        "A3_next_activity",
        {"product": "stage 1", "precursors": ["lithium carbonate"], "prefix": ["mill"]},
        ["sinter", "anneal", "quench", "mix"],
    )
    precedents = [precedent("g1"), precedent("g2")]
    raw = sc.score_options_symbolic(item, precedents, memory).raw_sym
    # continuation counts after "mill" among precedents: sinter 1, anneal 1
    assert raw[0] == pytest.approx(0.5 * 0.5 + 0.5 * (2 / 5))
    assert raw[1] == pytest.approx(0.5 * 0.5 + 0.5 * (2 / 5))
    assert raw[2] == pytest.approx(0.5 * 0.2 + 0.5 * (1 / 5))
    assert raw[3] == pytest.approx(0.5 * 0.2 + 0.5 * (1 / 5))


# --- A1: route retrieval ---------------------------------------------------------------


def test_a1_hand_computed_routes():
    memory, _ = three_label_memory()
    item = make_item(
        "A1_route_retrieval",
        {"product": "stage 2", "precursors": ["lithium carbonate"]},
        ["mix -> mill -> sinter", "mix -> sinter", "sinter -> mix", "quench -> anneal"],
    )
    precedents = [precedent("g1"), precedent("g2")]
    raw = sc.score_options_symbolic(item, precedents, memory).raw_sym
    # vocab {mix, mill, sinter}; transitions (mix,mill)=1 (mill,sinter)=1 (mix,sinter)=1
    assert raw[0] == pytest.approx((math.sqrt(0.4 * 0.5) + 1.0) / 2)
    assert raw[1] == pytest.approx((0.4 + 1.0) / 2)
    assert raw[2] == pytest.approx((1 / 3 + 0.5) / 2)
    assert raw[3] == pytest.approx((1 / 3 + 0.0) / 2)
    assert sc.argmax_index(raw) == 0


def test_a1_uniform_transitions_ablation_flattens():
    memory, _ = three_label_memory()
    item = make_item(
        "A1_route_retrieval",
        {"product": "stage 2", "precursors": ["lithium carbonate"]},
        ["mix -> mill -> sinter", "mill -> mix -> sinter"],
    )
    config = sc.ScoringConfig(uniform_transitions=True)
    raw = sc.score_options_symbolic(item, [], memory, config).raw_sym
    # with no precedents and flat transitions both permutations score alike
    assert raw[0] == pytest.approx(raw[1])
    assert raw[0] == pytest.approx((1 / 3 + 0.0) / 2)


def test_a1_no_precedents_drops_agreement_term():
    memory, _ = three_label_memory()
    item = make_item(
        "A1_route_retrieval",
        {"product": "stage 2", "precursors": ["x"]},
        ["mix -> sinter", "sinter -> mix"],
    )
    raw = sc.score_options_symbolic(item, [], memory).raw_sym
    assert raw[0] == pytest.approx(0.4 / 2)
    assert raw[1] == pytest.approx((1 / 3) / 2)


# --- A2: masked step --------------------------------------------------------------------


def test_a2_hand_fixture_five_entry_library():
    memory, _ = three_label_memory()
    assert len(memory.step_library) == 5
    item = make_item(
        "A2_missing_step",
        {
            "product": "stage 2",
            "precursors": ["lithium carbonate"],
            "route_with_mask": ["mix", "?", "sinter"],
            "masked_index": 1,
        },
        ["mill", "sinter", "mix", "quench"],
    )
    raw = sc.score_options_symbolic(item, [], memory).raw_sym
    # left term: continuation mass after [mix] (mill .5 / sinter .5, floor .2)
    # right term: (count(cand -> sinter) + 1) / (total_in(sinter) 2 + vocab 3)
    # positional term: window 0.25 around norm 0.5 holds only mill@0.5
    assert raw[0] == pytest.approx(0.4 * 0.5 + 0.3 * 0.4 + 0.3 * 0.5)  # 0.47
    assert raw[1] == pytest.approx(0.4 * 0.5 + 0.3 * 0.2 + 0.3 * 0.25)  # 0.335
    assert raw[2] == pytest.approx(0.4 * 0.2 + 0.3 * 0.4 + 0.3 * 0.25)  # 0.275
    assert raw[3] == pytest.approx(0.4 * 0.2 + 0.3 * 0.2 + 0.3 * 0.25)  # 0.215
    assert sc.argmax_index(raw) == 0


def test_a2_mask_at_route_start_uses_unigram_left_context():
    memory, _ = three_label_memory()
    item = make_item(
        "A2_missing_step",
        {
            "product": "stage 2",
            "precursors": ["x"],
            "route_with_mask": ["?", "sinter"],
            "masked_index": 0,
        },
        ["mix", "mill", "sinter", "quench"],
    )
    raw = sc.score_options_symbolic(item, [], memory).raw_sym
    # empty left context backs off to the unigram successor marginal
    # (mill 1/3, sinter 2/3, floor 1/6); right term: (count(cand->sinter)+1)/5;
    # positional window [0, 0.25] holds the two mix@0 entries
    assert raw[0] == pytest.approx(0.4 * (1 / 6) + 0.3 * 0.4 + 0.3 * 0.6)  # mix
    assert raw[1] == pytest.approx(0.4 * (1 / 3) + 0.3 * 0.4 + 0.3 * 0.2)  # mill
    assert raw[2] == pytest.approx(0.4 * (2 / 3) + 0.3 * 0.2 + 0.3 * 0.2)  # sinter
    assert raw[3] == pytest.approx(0.4 * (1 / 6) + 0.3 * 0.2 + 0.3 * 0.2)  # quench


# --- D: ordering -------------------------------------------------------------------------


def test_d_bonus_dominates_violating_orders():
    memory, _ = three_label_memory()
    steps = [
        {"label": "sinter", "inputs": ["stage 1"], "outputs": ["stage 2"]},
        {"label": "mix", "inputs": ["lithium carbonate"], "outputs": ["stage 0"]},
        {"label": "mill", "inputs": ["stage 0"], "outputs": ["stage 1"]},
    ]
    item = make_item(
        "D_process_ordering",
        {"product": "stage 2", "precursors": ["lithium carbonate"], "steps": steps},
        [
            "mix -> mill -> sinter",  # satisfies the material-flow constraints
            "mill -> mix -> sinter",
            "sinter -> mill -> mix",
            "mix -> sinter -> mill",
        ],
    )
    raw = sc.score_options_symbolic(item, [], memory).raw_sym
    assert raw[0] > max(raw[1:])
    assert raw[0] > 1.0  # the bonus lifts the valid order above any base score
    assert max(raw[1:]) <= 1.0


def test_d_scores_are_route_scores_plus_bonus():
    memory, _ = three_label_memory()
    steps = [
        {"label": "mix", "inputs": ["lithium carbonate"], "outputs": ["stage 0"]},
        {"label": "sinter", "inputs": ["stage 0"], "outputs": ["stage 1"]},
    ]
    d_item = make_item(
        "D_process_ordering",
        {"product": "stage 1", "precursors": ["lithium carbonate"], "steps": steps},
        ["mix -> sinter", "sinter -> mix"],
    )
    a1_item = make_item(
        "A1_route_retrieval",
        {"product": "stage 1", "precursors": ["lithium carbonate"]},
        ["mix -> sinter", "sinter -> mix"],
    )
    d_raw = sc.score_options_symbolic(d_item, [], memory).raw_sym
    a1_raw = sc.score_options_symbolic(a1_item, [], memory).raw_sym
    assert d_raw[0] == pytest.approx(a1_raw[0] + 1.0)
    assert d_raw[1] == pytest.approx(a1_raw[1])


# --- B1 / B2 / C1: step-context matching ----------------------------------------------------


def condition_memory():
    graphs = [
        compiled(chain_graph(["sinter"], record_id="g1",
                             conditions={"sinter": {"temperature": "900 c"}})),
        compiled(chain_graph(["sinter"], record_id="g2",
                             conditions={"sinter": {"temperature": "900 c"}})),
        compiled(chain_graph(["sinter"], record_id="g3",
                             conditions={"sinter": {"temperature": "700 c"}})),
    ]
    return build_memory(graphs)


def b1_item():
    return make_item(
        "B1_condition_prediction",
        {
            "route": ["sinter"],
            "step_index": 0,
            "activity": "sinter",
            "step_inputs": ["lithium carbonate"],
            "step_input_forms": ["powder"],
            "condition_key": "temperature",
        },
        ["900 c", "700 c", "500 c", "300 c"],
    )


def test_b1_rank_weighted_value_frequency():
    memory = condition_memory()
    raw = sc.score_options_symbolic(b1_item(), [], memory).raw_sym
    # identical match scores tie-break by graph_id: g1, g2, g3 -> 1, 1/2, 1/3
    assert raw[0] == pytest.approx(1.0 + 1 / 2)
    assert raw[1] == pytest.approx(1 / 3)
    assert raw[2] == raw[3] == 0.0


def test_b1_precedent_boost_scales_matched_entries():
    memory = condition_memory()
    raw = sc.score_options_symbolic(b1_item(), [precedent("g3")], memory).raw_sym
    # g3 was retrieved at precedent rank 0, so its entry weight doubles
    assert raw[0] == pytest.approx(1.0 + 1 / 2)
    assert raw[1] == pytest.approx((1 / 3) * 2.0)


def test_b1_values_match_canonically():
    memory = condition_memory()
    item = b1_item()
    item.options = ["900 C", "700 C", "500 C", "300 C"]  # differently cased values
    raw = sc.score_options_symbolic(item, [], memory).raw_sym
    assert raw[0] == pytest.approx(1.5)


def test_b2_tuple_frequency_requires_complete_conditions():
    full = {"temperature": "900 c", "duration": "2 h", "atmosphere": "argon"}
    partial = {"temperature": "900 c", "duration": "2 h"}
    graphs = [
        compiled(chain_graph(["sinter"], record_id="g1", conditions={"sinter": full})),
        compiled(chain_graph(["sinter"], record_id="g2", conditions={"sinter": partial})),
    ]
    memory = build_memory(graphs)
    item = make_item(
        "B2_full_condition_set",
        {
            "route": ["sinter"],
            "step_index": 0,
            "activity": "sinter",
            "step_inputs": ["lithium carbonate"],
            "step_input_forms": ["powder"],
        },
        [
            "temperature=900 c; duration=2 h; atmosphere=argon",
            "temperature=700 c; duration=2 h; atmosphere=argon",
            "temperature=900 c; duration=4 h; atmosphere=air",
            "temperature=500 c; duration=1 h; atmosphere=vacuum",
        ],
    )
    raw = sc.score_options_symbolic(item, [], memory).raw_sym
    assert raw[0] == pytest.approx(1.0)  # g1's entry at match rank 0
    assert raw[1] == raw[2] == raw[3] == 0.0


def test_c1_tool_frequency():
    graphs = [
        compiled(chain_graph(["mill"], record_id="g1",
                             tools={"mill": ("ball mill", "glove box")})),
        compiled(chain_graph(["mill"], record_id="g2", tools={"mill": ("ball mill",)})),
    ]
    memory = build_memory(graphs)
    item = make_item(
        "C1_tool_selection",
        {
            "route": ["mill"],
            "step_index": 0,
            "activity": "mill",
            "step_inputs": ["lithium carbonate"],
            "step_input_forms": ["powder"],
        },
        ["ball mill", "glove box", "tube furnace", "spray dryer"],
    )
    raw = sc.score_options_symbolic(item, [], memory).raw_sym
    assert raw[0] == pytest.approx(1.0 + 1 / 2)
    assert raw[1] == pytest.approx(1.0)
    assert raw[2] == raw[3] == 0.0


def test_unknown_task_rejected():
    # no scorer, renderer or prompt meets such an item: it cannot be built
    with pytest.raises(MalformedDocument, match=r"task 'Z_bogus' is not one of A1_route_retrieval, "):
        make_item("Z_bogus", {"route": []}, ["a", "b"])


# --- neural lane ----------------------------------------------------------------------------


def test_neural_identical_linearization_scores_one():
    graphs = [compiled(chain_graph(["mix", "sinter"], record_id="g1"))]
    memory = rt.attach_embeddings(build_memory(graphs), graphs)
    item = make_item(
        "A1_route_retrieval",
        {"product": "stage 1", "precursors": ["lithium carbonate"]},
        ["mix -> sinter", "quench -> anneal -> dry"],
    )
    assert sc.option_completed_text(item, "mix -> sinter") == linearize_process(memory, "g1")
    raw = sc.score_options_neural(item, [precedent("g1")], memory).raw_neu
    assert raw[0] == pytest.approx(1.0, abs=1e-12)
    assert raw[1] < 1.0


def stored_text_vector(memory, graph_id):
    """A process's stored text row, or the built-in embedding of its
    linearized text when the memory stores none: the vector it is scored by."""
    stored = memory.vectors.get("text")
    if stored is None:
        return rt.BuiltinTextEmbedder().embed([linearize_process(memory, graph_id)])[0]
    return stored[[p.graph_id for p in memory.processes].index(graph_id)]


def test_neural_matches_brute_force_cosines():
    corpus = [compiled(g) for g in generate_synthetic_corpus(SynthParams(n_records=8), seed=3)]
    memory = rt.attach_embeddings(build_memory(corpus), corpus)
    items, _ = generate_benchmark(corpus, seed=5)
    embedder = rt.BuiltinTextEmbedder()
    for item in items[:25]:
        precedents = rt.retrieve(rt.query_from_item(item), memory, k=3)
        raw = sc.score_options_neural(item, precedents, memory).raw_neu
        for option, got in zip(item.options, raw):
            vec = embedder.embed([sc.option_completed_text(item, option)])[0]
            want = max(
                rt.cos_to_unit(rt.cosine(vec, stored_text_vector(memory, p.graph_id)))
                for p in precedents
            )
            assert got == pytest.approx(want, abs=1e-12)


def test_neural_is_exactly_the_per_pair_maximum():
    corpus = [compiled(g) for g in generate_synthetic_corpus(SynthParams(n_records=12), seed=4)]
    memory = rt.attach_embeddings(build_memory(corpus), corpus)
    items, _ = generate_benchmark(corpus, seed=5)
    embedder = rt.BuiltinTextEmbedder()
    for item in items[:40]:
        precedents = rt.retrieve(rt.query_from_item(item), memory, k=8)
        vectors = embedder.embed([sc.option_completed_text(item, o) for o in item.options])
        want = []
        for vec in vectors:
            best = 0.0
            for p in precedents:
                best = max(best, rt.cos_to_unit(rt.cosine(vec, stored_text_vector(memory, p.graph_id))))
            want.append(best)
        assert sc.score_options_neural(item, precedents, memory).raw_neu == want


def test_shared_item_inputs_score_like_fresh_ones():
    corpus = [compiled(g) for g in generate_synthetic_corpus(SynthParams(n_records=12), seed=4)]
    memory = rt.attach_embeddings(build_memory(corpus), corpus)
    items, _ = generate_benchmark(corpus, seed=5)
    first_per_task = {}
    for item in items:
        first_per_task.setdefault(item.task, item)
    assert len(first_per_task) == 7
    config = sc.ScoringConfig(two_way=[0.5, 0.5])  # lists are kept hashable as tuples
    assert hash(config) == hash(sc.ScoringConfig())
    for item in first_per_task.values():
        inputs = sc.ItemInputs(item, memory)
        for k in (1, 3, 8):  # one inputs object, several precedent lists
            precedents = rt.retrieve(rt.query_from_item(item), memory, k=k)
            for score in (sc.score_options_symbolic, sc.score_options_neural):
                shared = score(item, precedents, memory, config, inputs=inputs)
                assert shared == score(item, precedents, memory, config), (item.task, k)
    other = next(it for it in items if it is not item)
    with pytest.raises(InvalidParams):
        sc.score_options_symbolic(other, precedents, memory, inputs=inputs)
    with pytest.raises(InvalidParams):
        sc.score_options_neural(item, precedents, two_route_memory()[0], inputs=inputs)


def test_neural_range_and_no_precedents():
    memory, _ = two_route_memory()
    item = make_item(
        "A3_next_activity",
        {"product": "stage 1", "precursors": ["x"], "prefix": ["mill"]},
        ["sinter", "anneal"],
    )
    raw = sc.score_options_neural(item, [], memory).raw_neu
    assert raw == [0.0, 0.0]  # nothing retrieved, no similarity evidence


def test_option_completed_text_slots():
    b1 = make_item(
        "B1_condition_prediction",
        {"route": ["mix", "sinter"], "step_index": 1, "activity": "sinter",
         "step_inputs": [], "step_input_forms": [], "condition_key": "temperature"},
        ["900 c", "1000 c"],
    )
    assert sc.option_completed_text(b1, "900 c") == "route: mix -> sinter(temperature=900 c)"
    b2 = make_item(
        "B2_full_condition_set",
        {"route": ["mix"], "step_index": 0, "activity": "mix",
         "step_inputs": [], "step_input_forms": []},
        ["temperature=900 c; duration=2 h; atmosphere=argon", "temperature=80 c; duration=1 h; atmosphere=air"],
    )
    text = sc.option_completed_text(b2, b2.options[0])
    assert text == "route: mix(temperature=900 c; duration=2 h; atmosphere=argon)"
    c1 = make_item(
        "C1_tool_selection",
        {"route": ["mix"], "step_index": 0, "activity": "mix",
         "step_inputs": [], "step_input_forms": []},
        ["ball mill", "furnace"],
    )
    assert sc.option_completed_text(c1, "ball mill") == "route: mix | tools: ball mill"
    a2 = make_item(
        "A2_missing_step",
        {"product": "p", "precursors": ["x"], "route_with_mask": ["mix", "?"], "masked_index": 1},
        ["sinter", "anneal"],
    )
    assert sc.option_completed_text(a2, "sinter") == (
        "precursors: x | route: mix -> sinter | product: p"
    )


# --- fusion ----------------------------------------------------------------------------------


def test_minmax_arithmetic_sequence():
    assert sc.minmax_normalize([2, 4, 6]) == [0.0, 0.5, 1.0]


def test_minmax_constant_vector_is_half():
    assert sc.minmax_normalize([3.3, 3.3, 3.3, 3.3]) == [0.5, 0.5, 0.5, 0.5]


def test_fuse_lambda_boundaries():
    sym = sc.OptionScores(item_id="i", raw_sym=[2.0, 4.0, 6.0])
    neu = sc.OptionScores(item_id="i", raw_neu=[0.9, 0.1, 0.5])
    full = sc.fuse_scores(sym, neu, lam=1.0)
    assert full.fused == full.norm_sym == [0.0, 0.5, 1.0]
    none = sc.fuse_scores(sym, neu, lam=0.0)
    assert none.fused == none.norm_neu == [1.0, 0.0, 0.5]


def test_fuse_hand_fixture_lambda_07():
    sym = sc.OptionScores(item_id="i", raw_sym=[2.0, 4.0, 6.0])
    neu = sc.OptionScores(item_id="i", raw_neu=[1.0, 0.0, 3.0])
    fused = sc.fuse_scores(sym, neu, lam=0.7).fused
    assert fused[0] == pytest.approx(0.7 * 0.0 + 0.3 * (1 / 3))
    assert fused[1] == pytest.approx(0.7 * 0.5 + 0.3 * 0.0)
    assert fused[2] == pytest.approx(1.0)


def test_fuse_single_lane_shortcuts():
    sym = sc.OptionScores(item_id="i", raw_sym=[1.0, 2.0])
    neu = sc.OptionScores(item_id="i", raw_neu=[0.5, 0.25])
    assert sc.fuse_scores(sym, None, lam=1.0).fused == [0.0, 1.0]
    assert sc.fuse_scores(None, neu, lam=0.0).fused == [1.0, 0.0]
    with pytest.raises(InvalidParams):
        sc.fuse_scores(sym, None, lam=0.7)
    with pytest.raises(InvalidParams):
        sc.fuse_scores(None, neu, lam=0.2)
    with pytest.raises(InvalidParams):
        sc.fuse_scores(None, None)
    with pytest.raises(InvalidParams):
        sc.fuse_scores(sym, neu, lam=1.5)


def test_fuse_arity_and_item_mismatch():
    sym = sc.OptionScores(item_id="i", raw_sym=[1.0, 2.0])
    with pytest.raises(ArityMismatch):
        sc.fuse_scores(sym, sc.OptionScores(item_id="j", raw_neu=[1.0, 2.0]))
    with pytest.raises(ArityMismatch):
        sc.fuse_scores(sym, sc.OptionScores(item_id="i", raw_neu=[1.0, 2.0, 3.0]))


def test_argmax_invariance_under_affine_transform():
    rng = random.Random(4)
    for _ in range(50):
        raw = [rng.uniform(-5, 5) for _ in range(4)]
        if max(raw) == min(raw):
            continue
        scale, shift = rng.uniform(0.1, 3.0), rng.uniform(-2, 2)
        transformed = [scale * v + shift for v in raw]
        base = sc.minmax_normalize(raw)
        moved = sc.minmax_normalize(transformed)
        assert all(a == pytest.approx(b, abs=1e-12) for a, b in zip(base, moved))
        assert sc.argmax_index(base) == sc.argmax_index(moved)


def test_argmax_ties_take_lowest_index():
    assert sc.argmax_index([0.2, 0.9, 0.9, 0.1]) == 1
    assert sc.argmax_index([0.5, 0.5]) == 0


# --- end-to-end sweep ---------------------------------------------------------------------------


def test_scoring_pipeline_ranges_and_determinism():
    corpus = [compiled(g) for g in generate_synthetic_corpus(SynthParams(n_records=15), seed=6)]
    memory = rt.attach_embeddings(build_memory(corpus), corpus)
    items, _ = generate_benchmark(corpus, seed=5)

    def run(item):
        precedents = rt.retrieve(rt.query_from_item(item), memory)
        sym = sc.score_options_symbolic(item, precedents, memory)
        neu = sc.score_options_neural(item, precedents, memory)
        return sc.fuse_scores(sym, neu, lam=0.5)

    for item in items[:60]:
        first = run(item)
        second = run(item)
        assert first.to_dict() == second.to_dict()
        assert len(first.fused) == len(item.options)
        for lane in (first.norm_sym, first.norm_neu, first.fused):
            assert all(0.0 <= v <= 1.0 for v in lane)
        assert all(math.isfinite(v) for v in first.raw_sym)
