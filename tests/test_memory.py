"""Process memory: transition stats, prefix backoff, step matching."""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
import pickle
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matproc.errors import EmptyLibrary, EmptyTrainSet, MalformedDocument
from matproc.memory import (
    LabelSets,
    ProcessMemory,
    ProcessRow,
    ProcessSummary,
    StepEntry,
    StepQuery,
    build_memory,
    frozen_array,
    jaccard,
    linearize_process,
    load_memory,
    match_steps,
    next_distribution,
    save_memory,
    sorted_ranks,
)
from matproc.provgraph import SynthParams, generate_synthetic_corpus, graph_view
from matproc.retrieval import EMBED_DIM

from helpers import assert_same_vectors, chain_graph, compiled


def two_route_memory():
    graphs = [
        compiled(chain_graph(["mill", "sinter"], record_id="r1")),
        compiled(chain_graph(["mill", "anneal"], record_id="r2")),
    ]
    return build_memory(graphs, split_id="toy")


def synth_memory(n=30, seed=7):
    corpus = generate_synthetic_corpus(SynthParams(n_records=n), seed=seed)
    return build_memory(corpus, split_id="synth"), corpus


# --- build ---------------------------------------------------------------------

def test_build_toy_counts():
    memory = two_route_memory()
    assert memory.transition_table == {("mill", "sinter"): 1, ("mill", "anneal"): 1}
    assert memory.prefix_index[("mill",)] == {"sinter": 1, "anneal": 1}
    assert len(memory.processes) == 2
    assert memory.processes[0].route == ["mill", "sinter"]


def test_build_empty_train_set():
    with pytest.raises(EmptyTrainSet):
        build_memory([])


def test_train_only_guard():
    graphs = [compiled(chain_graph(["mill"], record_id="r1"))]
    with pytest.raises(MalformedDocument):
        build_memory(graphs, allowed_graph_ids={"other"})
    assert build_memory(graphs, allowed_graph_ids={"r1"}).by_graph_id.keys() == {"r1"}


def test_step_library_size_matches_route_lengths():
    memory, corpus = synth_memory()
    assert len(memory.step_library) == sum(len(graph_view(g).route) for g in corpus)


def oracle_tables(routes, max_prefix_len):
    """The transition table and prefix index as ``build_memory`` once built
    them, one loop each over the routes in order."""
    transition_table, prefix_index = {}, {}
    for route in routes:
        length = len(route)
        for a, b in zip(route, route[1:]):
            transition_table[(a, b)] = transition_table.get((a, b), 0) + 1
        for width in range(1, max_prefix_len + 1):
            for start in range(0, length - width):
                window = tuple(route[start : start + width])
                prefix_index.setdefault(window, Counter())[route[start + width]] += 1
    return transition_table, prefix_index


ROUTES = st.lists(st.lists(st.sampled_from(["mill", "sinter", "anneal", "dry"]), max_size=9),
                  max_size=10)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(routes=ROUTES, max_prefix_len=st.integers(1, 6), data=st.data())
def test_the_transition_table_and_prefix_index_are_views_of_the_routes(routes, max_prefix_len, data):
    processes = [ProcessSummary(f"g{i}", route, [], [], []) for i, route in enumerate(routes)]
    table, index = oracle_tables(routes, max_prefix_len)
    memory = ProcessMemory(max_prefix_len=max_prefix_len, processes=processes)
    assert memory.transition_table == table and memory.prefix_index == index
    assert list(memory.transition_table) == list(table) and list(memory.prefix_index) == list(index)
    permuted = ProcessMemory(max_prefix_len=max_prefix_len,
                             processes=data.draw(st.permutations(processes)))
    assert permuted.transition_table == table and permuted.prefix_index == index


def test_transition_count_conservation():
    memory, corpus = synth_memory()
    assert sum(memory.transition_table.values()) == sum(
        len(graph_view(g).route) - 1 for g in corpus
    )


def test_step_positions_valid():
    memory, corpus = synth_memory(20)
    lengths = {g.record_id: len(graph_view(g).route) for g in corpus}
    for entry in memory.step_library:
        assert 0 <= entry.position < lengths[entry.graph_id]
    norm = memory.step_index.norm_position
    assert ((0.0 <= norm) & (norm <= 1.0)).all()


# independent copies of the step-context formulas that build_memory, the
# scorers' step query and the A2 positional term each used to write out
def built_entry_context(route, pos):
    length = len(route)
    return StepQuery(activity=route[pos],
                     prev_activity=route[pos - 1] if pos > 0 else None,
                     next_activity=route[pos + 1] if pos < length - 1 else None,
                     norm_position=pos / (length - 1) if length > 1 else 0.0)


def scorer_step_query(route, i, input_forms):
    last = len(route) - 1
    return StepQuery(activity=route[i],
                     prev_activity=route[i - 1] if i > 0 else None,
                     next_activity=route[i + 1] if i < last else None,
                     norm_position=i / last if last > 0 else 0.0,
                     input_forms=list(input_forms))


def masked_norm_pos(route_with_mask, masked_index):
    span = len(route_with_mask) - 1
    return masked_index / span if span > 0 else 0.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(route=st.lists(st.sampled_from(["mill", "sinter", "anneal", "dry"]), min_size=1, max_size=8),
       input_forms=st.lists(st.sampled_from(["powder", "pellet"]), max_size=2))
def test_step_query_at_is_the_three_formulas_it_replaced(route, input_forms):
    for i in range(len(route)):
        at = StepQuery.at(route, i)
        assert at == built_entry_context(route, i)
        assert StepQuery.at(route, i, input_forms) == scorer_step_query(route, i, input_forms)
        assert at.norm_position == masked_norm_pos(route, i)
        assert type(at.norm_position) is float


# --- next_distribution ------------------------------------------------------------

def test_next_distribution_exact():
    dist = next_distribution(two_route_memory(), ("mill",))
    assert dist.probs == {"anneal": 0.5, "sinter": 0.5}
    assert dist.backoff == 0
    assert dist.total == 2


def test_next_distribution_suffix_backoff():
    memory = two_route_memory()
    dist = next_distribution(memory, ("grind", "mill"))
    assert dist.probs == {"anneal": 0.5, "sinter": 0.5}
    assert dist.backoff == 1


def test_next_distribution_unigram_fallback():
    memory = two_route_memory()
    dist = next_distribution(memory, ("quench",))
    assert dist.backoff == -1
    assert dist.probs == {"anneal": 0.5, "sinter": 0.5}  # successor marginal


def test_next_distribution_no_transitions():
    memory = build_memory([compiled(chain_graph(["mill"], record_id="solo"))])
    dist = next_distribution(memory, ("mill",))
    assert dist.backoff == -1
    assert dist.probs == {"mill": 1.0}


def test_next_distribution_sums_to_one():
    memory, corpus = synth_memory()
    vocab = sorted(memory.vocab)
    prefixes = [(v,) for v in vocab] + [tuple(graph_view(g).route[:3]) for g in corpus[:10]]
    for prefix in prefixes:
        dist = next_distribution(memory, prefix)
        assert math.isclose(sum(dist.probs.values()), 1.0, abs_tol=1e-9)
        assert all(p >= 0 for p in dist.probs.values())


def test_smoothing_floor_below_observed_mass():
    dist = next_distribution(two_route_memory(), ("mill",))
    floor = dist.smoothing_floor()
    assert floor == pytest.approx(1 / (2 + 3))  # 2 observations, 3 known labels
    assert dist.mass("sinter") == 0.5
    assert dist.mass("quench") == floor < 0.5


# --- match_steps -------------------------------------------------------------------

def routed_memory(routes, *library):
    """A memory of the processes ``graph_id -> route`` whose step library is
    ``library``: each entry's context is the one its process's route gives."""
    processes = [ProcessSummary(gid, list(route), [], [], []) for gid, route in routes.items()]
    return ProcessMemory(processes=processes, step_library=library)


def step(graph_id, position, *forms):
    return StepEntry(graph_id=graph_id, position=position, input_forms=list(forms))


def context(memory, e):
    """``e``'s place on its process's route."""
    return StepQuery.at(memory.by_graph_id[e.graph_id].route, e.position, e.input_forms)


def test_match_steps_self_match_first():
    memory, _ = synth_memory(10)
    target = memory.step_library[5]
    ranked = match_steps(memory, context(memory, target), top_m=3)
    top_score, top_entry = ranked[0]
    assert top_score == max(s for s, _ in ranked)
    top, want = context(memory, top_entry), context(memory, target)
    assert top.activity == want.activity and top.norm_position == want.norm_position
    assert top_score == pytest.approx(1.0 + 0.5 + 0.25 + 0.25)


def test_match_steps_activity_dominance():
    memory = routed_memory(
        {"g1": ["mill", "sinter", "anneal"], "g2": ["sinter"], "g3": ["press"], "g4": ["mix", "dry"]},
        step("g1", 1, "powder"), step("g2", 0), step("g3", 0, "pellet"), step("g4", 1, "solution"),
    )
    ranked = match_steps(memory, StepQuery(activity="sinter"), top_m=4)
    labels = [context(memory, e).activity for _, e in ranked]
    assert labels[:2] == ["sinter", "sinter"]
    assert set(labels[2:]) == {"press", "dry"}


def test_match_steps_hand_fixture():
    memory = routed_memory(
        {"g1": ["mill", "sinter", "anneal"],  # sinter at 0.5, after mill, before anneal
         "g2": ["press", "sinter"],  # sinter at 1.0, after press
         "g3": ["mill", "anneal", "dry"],  # anneal at 0.5, after mill, before dry
         "g4": ["mix", "press", "sinter", "cool", "dry", "grind"],  # sinter at 0.4
         "g5": ["mill", "sinter"]},  # mill at 0.0, before sinter
        step("g1", 1, "powder"), step("g2", 1, "pellet"), step("g3", 1, "powder"), step("g4", 2),
        step("g5", 0, "powder", "flake"),
    )
    query = StepQuery(
        activity="sinter",
        prev_activity="mill",
        next_activity="anneal",
        norm_position=0.5,
        input_forms=["powder"],
    )
    ranked = match_steps(memory, query, top_m=5)
    # hand-computed under weights (1, 0.5, 0.25, 0.25):
    expected = {
        "g1": 1.0 + 0.5 * 1.0 + 0.25 * 1.0 + 0.25 * 1.0,          # 2.0
        "g2": 1.0 + 0.5 * 0.0 + 0.25 * 0.5 + 0.25 * 0.0,          # 1.125
        "g3": 0.0 + 0.5 * (1 / 3) + 0.25 * 1.0 + 0.25 * 1.0,      # 0.667
        "g4": 1.0 + 0.5 * 0.0 + 0.25 * 0.9 + 0.25 * 0.0,          # 1.225
        "g5": 0.0 + 0.5 * 0.0 + 0.25 * 0.5 + 0.25 * (1 / 2),      # 0.25
    }
    for score, e in ranked:
        assert score == pytest.approx(expected[e.graph_id])
    assert [e.graph_id for _, e in ranked] == ["g1", "g4", "g2", "g3", "g5"]


def test_match_steps_tie_break():
    memory = routed_memory({"gb": ["mill", "sinter"], "ga": ["sinter", "mill", "sinter"]},
                           step("gb", 1), step("ga", 0), step("ga", 2))
    ranked = match_steps(memory, StepQuery(activity="sinter"), top_m=3)
    assert len({score for score, _ in ranked}) == 1
    assert [(e.graph_id, e.position) for _, e in ranked] == [("ga", 0), ("ga", 2), ("gb", 1)]


def reference_match_steps(memory, query, top_m, weights=(1.0, 0.5, 0.25, 0.25)):
    """The per-entry scoring loop match_steps replaced, kept as the oracle."""
    w1, w2, w3, w4 = weights
    scored = []
    for e in memory.step_library:
        at = context(memory, e)
        score = 0.0
        if query.activity is not None and at.activity == query.activity:
            score += w1
        score += w2 * jaccard(query.neighbour_labels(), {x for x in (at.prev_activity, at.next_activity) if x})
        if query.norm_position is not None:
            score += w3 * (1.0 - abs(query.norm_position - at.norm_position))
        score += w4 * jaccard(query.input_forms, e.input_forms)
        scored.append((score, e))
    scored.sort(key=lambda pair: (-pair[0], pair[1].graph_id, pair[1].position))
    return scored[:top_m]


def test_match_steps_equals_per_entry_reference():
    memory, _ = synth_memory(20)
    queries = [context(memory, e) for e in memory.step_library[::7]]
    queries += [
        StepQuery(),
        StepQuery(activity="never seen", input_forms=["powder", "never seen"]),
        StepQuery(prev_activity=context(memory, memory.step_library[0]).activity, norm_position=0.5),
    ]
    for query in queries:
        for top_m in (1, 8, len(memory.step_library) + 1):
            want = reference_match_steps(memory, query, top_m)
            got = match_steps(memory, query, top_m=top_m)
            assert [(s, e.graph_id, e.position) for s, e in got] == [
                (s, e.graph_id, e.position) for s, e in want
            ]


def test_a_memory_never_changes_and_a_variant_has_its_own_views():
    memory = two_route_memory()
    assert memory.vocab == {"mill", "sinter", "anneal"}
    assert memory.total_out("mill") == 2
    for name, value in [("processes", []), ("transition_table", {}), ("vectors", {}),
                        ("split_id", "other")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(memory, name, value)
    for build in (ProcessMemory, functools.partial(dataclasses.replace, memory)):
        with pytest.raises(TypeError):  # the tables are views of the routes, not fields
            build(transition_table={("mill", "sinter"): 5})
    extra = dataclasses.replace(memory.processes[0], graph_id="r3",
                                route=["mill", "quench", "mill", "sinter"])
    variant = dataclasses.replace(memory, processes=[*memory.processes, extra])
    assert "quench" in variant.vocab and "r3" in variant.by_graph_id
    assert variant.total_out("mill") == 4 and variant.total_in("quench") == 1
    assert variant.transition_table[("mill", "sinter")] == 2
    assert variant.prefix_index[("quench",)] == {"mill": 1}
    assert memory.vocab == {"mill", "sinter", "anneal"} and "r3" not in memory.by_graph_id
    assert memory.total_out("mill") == 2 and memory.total_in("anneal") == 1
    assert memory.transition_table == {("mill", "sinter"): 1, ("mill", "anneal"): 1}
    clone = copy.deepcopy(variant)
    assert clone.by_graph_id.keys() == variant.by_graph_id.keys()
    assert clone.vocab == variant.vocab and clone.total_out("mill") == 4
    assert clone.steps_of("r1") == variant.steps_of("r1")


@pytest.mark.parametrize("variant", ["built", "loaded"])
@pytest.mark.parametrize("name", ["processes", "step_library"])
def test_a_memory_process_and_step_list_cannot_be_appended_to(name, variant, tmp_path):
    memory, _ = synth_memory(8)
    if variant == "loaded":
        save_memory(tmp_path / "memory.ndjson", memory)
        memory = load_memory(tmp_path / "memory.ndjson")
    index, steps = memory.dense_index, memory.step_index  # views built before the attempt
    held = getattr(memory, name)
    assert type(held) is tuple
    with pytest.raises(AttributeError):
        held.append(held[0])
    assert len(memory.processes) == len(index.graph_ids)
    assert len(memory.step_library) == len(steps.position)
    assert type(getattr(dataclasses.replace(memory, **{name: list(held)}), name)) is tuple


def test_graph_ranks_are_the_sorted_order_of_the_distinct_ids():
    assert sorted_ranks(["b", "a", "b", "c"]).tolist() == [1, 0, 1, 2]
    assert sorted_ranks([]).dtype == np.int64
    memory, _ = synth_memory(10)
    ids = sorted({p.graph_id for p in memory.processes})
    assert memory.step_index.graph_rank.tolist() == [ids.index(e.graph_id) for e in memory.step_library]
    assert memory.dense_index.id_rank.tolist() == [ids.index(p.graph_id) for p in memory.processes]


def memory_variant(variant, tmp_path):
    """A small synth memory as built, loaded, deep-copied or unpickled."""
    memory, _ = synth_memory(6)
    if variant == "loaded":
        save_memory(tmp_path / "memory.ndjson", memory)
        memory = load_memory(tmp_path / "memory.ndjson")
    elif variant == "deep-copied":
        memory = copy.deepcopy(memory)
    elif variant == "unpickled":
        memory = pickle.loads(pickle.dumps(memory))
    return memory


VARIANTS = ["built", "loaded", "deep-copied", "unpickled"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_memory_s_vectors_cannot_be_assigned(variant, tmp_path):
    memory = memory_variant(variant, tmp_path)
    text = memory.vectors["text"]
    with pytest.raises(TypeError):
        memory.vectors["text"] = text[:1]
    with pytest.raises(TypeError):
        del memory.vectors["struct"]
    assert sorted(memory.vectors) == ["struct", "text"] and memory.vectors["text"] is text
    assert memory.dense_index.graph_ids == [p.graph_id for p in memory.processes]


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_memory_s_processes_and_step_entries_cannot_be_assigned(variant, tmp_path):
    memory = memory_variant(variant, tmp_path)
    index = memory.step_index  # built before the attempts
    first, entry = memory.processes[0], memory.step_library[0]
    row = ProcessRow(**first.to_dict(), embeddings={})
    for record, name, value in [(entry, "activity", "quench"), (entry, "position", 1),
                                (entry, "tools", []), (first, "route", ["quench"]),
                                (first, "graph_id", "other"), (row, "embeddings", {"text": []})]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del entry.conditions
    route = memory.by_graph_id[entry.graph_id].route
    assert memory.step_index is index and index.activity[0] == route[entry.position]
    assert "quench" not in index.activity and "activity" not in vars(entry)


def test_memories_compare_by_identity():
    memory, _ = synth_memory(6)
    for copied in (copy.deepcopy(memory), pickle.loads(pickle.dumps(memory))):
        assert memory == memory and memory != copied


def test_match_steps_empty_library():
    with pytest.raises(EmptyLibrary):
        match_steps(ProcessMemory(), StepQuery(activity="x"), top_m=1)


def test_jaccard_convention():
    assert jaccard([], []) == 1.0
    assert jaccard(["a"], []) == 0.0
    assert jaccard(["a", "b"], ["b", "c"]) == pytest.approx(1 / 3)


# --- linearization / persistence ----------------------------------------------------

def test_linearize_process_contains_context():
    graphs = [
        compiled(
            chain_graph(
                ["mixing", "sintering"],
                record_id="lin1",
                conditions={"sintering": {"temperature": "900 c", "duration": "2 h"}},
                tools={"sintering": ("tube furnace",)},
                precursors=("lithium carbonate",),
            )
        )
    ]
    memory = build_memory(graphs)
    text = linearize_process(memory, "lin1")
    assert "precursors: lithium carbonate" in text
    assert "mixing -> sintering(duration=2 h; temperature=900 c)" in text
    assert "tools: tube furnace" in text
    assert text == linearize_process(memory, "lin1")


def test_memory_round_trip(tmp_path):
    memory, _ = synth_memory(12)
    n = len(memory.processes)
    memory = dataclasses.replace(memory, vectors={
        "text": frozen_array(np.arange(2 * n).reshape(n, 2) / 7),
        "struct": frozen_array(np.arange(2 * n).reshape(n, 2) / -3)})
    path = tmp_path / "memory.ndjson"
    save_memory(path, memory, config_hash="h")
    back = load_memory(path)
    assert back.split_id == memory.split_id
    assert back.transition_table == memory.transition_table
    assert back.prefix_index == memory.prefix_index
    assert [p.to_dict() for p in back.processes] == [p.to_dict() for p in memory.processes]
    assert [e.to_dict() for e in back.step_library] == [e.to_dict() for e in memory.step_library]
    assert back.step_library == memory.step_library
    assert_same_vectors(back.vectors, memory.vectors)


def test_a_memory_file_that_stores_a_process_twice_is_refused_naming_it(tmp_path):
    memory, _ = synth_memory(8)
    first = memory.processes[0]
    twice = dataclasses.replace(
        memory, processes=[*memory.processes, first],
        step_library=[*memory.step_library, *memory.steps_of(first.graph_id)],
        vectors={kind: m[[*range(len(m)), 0]] for kind, m in memory.vectors.items()})
    path = tmp_path / "memory.ndjson"
    save_memory(path, twice)  # its transition rows are the ones its routes give
    with pytest.raises(MalformedDocument) as refused:
        load_memory(path)
    assert str(refused.value) == (f"{path}: process {first.graph_id!r} is stored more than once;"
                                  " rebuild with build-memory")


def test_memory_serialization_deterministic(tmp_path):
    corpus = generate_synthetic_corpus(SynthParams(n_records=12), seed=3)
    p1, p2 = tmp_path / "m1.ndjson", tmp_path / "m2.ndjson"
    save_memory(p1, build_memory(corpus, split_id="s"))
    save_memory(p2, build_memory(corpus, split_id="s"))
    assert p1.read_bytes() == p2.read_bytes()


def _load_with_peak(path):
    """The memory at ``path`` and the peak bytes traced while loading it."""
    tracemalloc.start()
    try:
        return load_memory(path), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stored_vectors_load_as_read_only_arrays_of_their_own_size(tmp_path):
    memory, _ = synth_memory(60)
    with_vectors, narrow = tmp_path / "with.ndjson", tmp_path / "narrow.ndjson"
    save_memory(with_vectors, memory)
    # the same memory with vectors one number wide: its load is the baseline
    save_memory(narrow, dataclasses.replace(
        memory, vectors={kind: m[:, :1] for kind, m in memory.vectors.items()}))
    loaded, peak = _load_with_peak(with_vectors)
    _, base_peak = _load_with_peak(narrow)
    assert set(loaded.vectors) == {"text", "struct"}
    for m in loaded.vectors.values():
        assert type(m) is np.ndarray and m.dtype == np.float64
        assert m.shape == (len(memory.processes), EMBED_DIM) and not m.flags.writeable
    # the float64 values themselves, not a list of Python floats (4x) or
    # a list of raw rows next to the records
    assert peak - base_peak <= 1.3 * sum(m.nbytes for m in loaded.vectors.values())


@pytest.mark.parametrize("n_sets", [0, 1, 40])
def test_label_sets_match_row_by_row_incidence(n_sets):
    rng = random.Random(n_sets)
    vocab = [f"label {i}" for i in range(12)]
    sets = [rng.sample(vocab, rng.randrange(0, 6)) for _ in range(n_sets)]
    sets += [["mill", "mill", "sinter"], []][: min(n_sets, 2)]  # duplicates and an empty set
    built = LabelSets(sets)
    uniq = [set(s) for s in sets]
    columns = {label: i for i, label in enumerate(sorted(set().union(*uniq)))}
    incidence = np.zeros((len(uniq), len(columns)), dtype=np.uint8)
    for row, labels in enumerate(uniq):
        incidence[row, [columns[label] for label in labels]] = 1
    assert built.columns == columns
    assert built.incidence.dtype == incidence.dtype
    assert np.array_equal(built.incidence, incidence)
    assert np.array_equal(built.sizes, [len(s) for s in uniq]) and built.sizes.dtype == np.int64
    for query in (vocab[:3], ["mill", "absent"], []):
        assert built.jaccard(query).tolist() == [jaccard(query, s) for s in sets]
