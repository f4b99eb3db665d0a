"""Process memory: transition stats, prefix backoff, step matching."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import random
import tracemalloc

import numpy as np
import pytest

from matproc.errors import EmptyLibrary, EmptyTrainSet, MalformedDocument
from matproc.memory import (
    LabelSets,
    ProcessMemory,
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
)
from matproc.provgraph import SynthParams, generate_synthetic_corpus, route_labels
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
    assert len(memory.step_library) == sum(len(route_labels(g)) for g in corpus)


def test_transition_count_conservation():
    memory, corpus = synth_memory()
    assert sum(memory.transition_table.values()) == sum(
        len(route_labels(g)) - 1 for g in corpus
    )


def test_step_positions_valid():
    memory, corpus = synth_memory(20)
    lengths = {g.record_id: len(route_labels(g)) for g in corpus}
    for entry in memory.step_library:
        assert 0 <= entry.position < lengths[entry.graph_id]
        assert 0.0 <= entry.norm_position <= 1.0


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
    prefixes = [(v,) for v in vocab] + [tuple(route_labels(g)[:3]) for g in corpus[:10]]
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

def entry(graph_id, activity, position=0, norm=0.0, prev=None, nxt=None, forms=(), **kw):
    return StepEntry(
        graph_id=graph_id,
        activity=activity,
        position=position,
        norm_position=norm,
        prev_activity=prev,
        next_activity=nxt,
        input_forms=list(forms),
        **kw,
    )


def test_match_steps_self_match_first():
    memory, _ = synth_memory(10)
    target = memory.step_library[5]
    query = StepQuery(
        activity=target.activity,
        prev_activity=target.prev_activity,
        next_activity=target.next_activity,
        norm_position=target.norm_position,
        input_forms=target.input_forms,
    )
    ranked = match_steps(memory, query, top_m=3)
    top_score, top_entry = ranked[0]
    assert top_score == max(s for s, _ in ranked)
    assert (
        top_entry.activity == target.activity
        and top_entry.norm_position == target.norm_position
    )
    assert top_score == pytest.approx(1.0 + 0.5 + 0.25 + 0.25)


def test_match_steps_activity_dominance():
    memory = ProcessMemory(step_library=[
        entry("g1", "sinter", prev="mill", nxt="anneal", forms=("powder",)),
        entry("g2", "sinter"),
        entry("g3", "press", norm=0.5, forms=("pellet",)),
        entry("g4", "dry", prev="mix", forms=("solution",)),
    ])
    ranked = match_steps(memory, StepQuery(activity="sinter"), top_m=4)
    labels = [e.activity for _, e in ranked]
    assert labels[:2] == ["sinter", "sinter"]
    assert set(labels[2:]) == {"press", "dry"}


def test_match_steps_hand_fixture():
    memory = ProcessMemory(step_library=[
        entry("g1", "sinter", norm=0.5, prev="mill", nxt="anneal", forms=("powder",)),
        entry("g2", "sinter", norm=1.0, prev="press", forms=("pellet",)),
        entry("g3", "anneal", norm=0.5, prev="mill", forms=("powder",)),
        entry("g4", "sinter", norm=0.4, forms=()),
        entry("g5", "mill", norm=0.0, nxt="sinter", forms=("powder", "flake")),
    ])
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
        "g3": 0.0 + 0.5 * (1 / 2) + 0.25 * 1.0 + 0.25 * 1.0,      # 0.75
        "g4": 1.0 + 0.5 * 0.0 + 0.25 * 0.9 + 0.25 * 0.0,          # 1.225
        "g5": 0.0 + 0.5 * 0.0 + 0.25 * 0.5 + 0.25 * (1 / 2),      # 0.25
    }
    for score, e in ranked:
        assert score == pytest.approx(expected[e.graph_id])
    assert [e.graph_id for _, e in ranked] == ["g1", "g4", "g2", "g3", "g5"]


def test_match_steps_tie_break():
    memory = ProcessMemory(step_library=[
        entry("gb", "sinter", position=1),
        entry("ga", "sinter", position=0),
        entry("ga", "sinter", position=2),
    ])
    ranked = match_steps(memory, StepQuery(activity="sinter"), top_m=3)
    assert [(e.graph_id, e.position) for _, e in ranked] == [("ga", 0), ("ga", 2), ("gb", 1)]


def reference_match_steps(memory, query, top_m, weights=(1.0, 0.5, 0.25, 0.25)):
    """The per-entry scoring loop match_steps replaced, kept as the oracle."""
    w1, w2, w3, w4 = weights
    scored = []
    for e in memory.step_library:
        score = 0.0
        if query.activity is not None and e.activity == query.activity:
            score += w1
        score += w2 * jaccard(query.neighbour_labels(), {x for x in (e.prev_activity, e.next_activity) if x})
        if query.norm_position is not None:
            score += w3 * (1.0 - abs(query.norm_position - e.norm_position))
        score += w4 * jaccard(query.input_forms, e.input_forms)
        scored.append((score, e))
    scored.sort(key=lambda pair: (-pair[0], pair[1].graph_id, pair[1].position))
    return scored[:top_m]


def test_match_steps_equals_per_entry_reference():
    memory, _ = synth_memory(20)
    queries = [
        StepQuery(
            activity=e.activity,
            prev_activity=e.prev_activity,
            next_activity=e.next_activity,
            norm_position=e.norm_position,
            input_forms=list(e.input_forms),
        )
        for e in memory.step_library[::7]
    ]
    queries += [
        StepQuery(),
        StepQuery(activity="never seen", input_forms=["powder", "never seen"]),
        StepQuery(prev_activity=memory.step_library[0].activity, norm_position=0.5),
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
    extra = dataclasses.replace(memory.processes[0], graph_id="r3", route=["quench"])
    variant = dataclasses.replace(memory, processes=[*memory.processes, extra],
                                  transition_table={("mill", "sinter"): 5})
    assert "quench" in variant.vocab and "r3" in variant.by_graph_id
    assert variant.total_out("mill") == 5 and variant.total_in("anneal") == 0
    assert memory.vocab == {"mill", "sinter", "anneal"} and "r3" not in memory.by_graph_id
    assert memory.total_out("mill") == 2 and memory.total_in("anneal") == 1
    clone = copy.deepcopy(variant)
    assert clone.by_graph_id.keys() == variant.by_graph_id.keys()
    assert clone.vocab == variant.vocab and clone.total_out("mill") == 5
    assert clone.steps_of("r1") == variant.steps_of("r1")


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
    assert_same_vectors(back.vectors, memory.vectors)


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
