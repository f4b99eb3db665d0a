"""What a reader derives is what the writer derived.

The graph store holds no material role and no activity order: the reader
derives them with ``compile_graph``, as ``compile`` did, whatever order the
node and edge lists are in. A question set holds no step question's
``activity`` and no masked question's ``masked_index``: each is read off
the route it already holds. A process memory holds no step's route context
and no prefix index: the step index reads each step's context off its route,
whatever order the rows were in, and the prefix index is a view of the routes.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_same_memory, chain_graph
from matproc.jsonio import read_ndjson, write_ndjson
from matproc.memory import StepQuery, build_memory, load_memory, save_memory, sorted_ranks
from matproc.provgraph import (ProcessGraph, SynthParams, compile_graph, generate_synthetic_corpus,
                               graph_view, parse_record, to_prov_document)
from matproc.provgraph.store import read_graph_store, write_graph_store
from matproc.taskgen import MASK_TOKEN, generate_benchmark
from matproc.taskgen.model import MaskedQuestion, StepQuestion
from matproc.taskgen.store import read_benchmark, write_benchmark

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2**32 - 1)


def _compiled(n: int, seed: int) -> list[ProcessGraph]:
    """A synthetic corpus as ``compile`` makes it: printed as documents and
    parsed back."""
    corpus = generate_synthetic_corpus(SynthParams(n_records=n), seed=seed)
    return [compile_graph(parse_record(to_prov_document(g))) for g in corpus]


def _round_trip(graphs: list[ProcessGraph]) -> tuple[list[dict], list[ProcessGraph]]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graphs.ndjson"
        write_graph_store(path, graphs)
        return read_ndjson(path)[1], read_graph_store(path)[1]


@PROPERTY
@given(n=st.integers(1, 12), seed=SEEDS)
def test_compiled_graphs_read_back_equal_with_roles_and_order_derived(n, seed):
    graphs = _compiled(n, seed)
    rows, back = _round_trip(graphs)
    assert back == graphs
    for row, g in zip(rows, back):
        assert "ordered_activity_ids" not in row
        assert not any("role" in e for e in row["material_entities"] + row["tool_entities"])
        assert sorted(g.ordered_activity_ids) == sorted(a.id for a in g.activities)
        assert all(e.role is not None for e in g.entities())


@PROPERTY
@given(n=st.integers(1, 8), seed=SEEDS, shuffle_seed=SEEDS)
def test_permuted_node_and_edge_lists_read_back_the_same_roles_and_order(n, seed, shuffle_seed):
    graphs = _compiled(n, seed)
    rng = random.Random(shuffle_seed)
    permuted = []
    for g in graphs:
        p = ProcessGraph.from_dict(g.to_dict())  # ids and source positions kept
        for name in ("material_entities", "tool_entities", "activities", "usage_edges",
                     "generation_edges"):
            rng.shuffle(getattr(p, name))
        permuted.append(p)
    _, back = _round_trip(permuted)
    for g, b in zip(graphs, back):
        assert b.ordered_activity_ids == g.ordered_activity_ids
        assert {e.id: e.role for e in b.entities()} == {e.id: e.role for e in g.entities()}
        assert graph_view(b).route == graph_view(g).route


@PROPERTY
@given(n=st.integers(2, 12), seed=SEEDS, bench_seed=SEEDS)
def test_a_generated_bench_reads_back_equal_with_its_derived_fields(n, seed, bench_seed):
    graphs = _compiled(n, seed)
    items, _ = generate_benchmark(graphs, seed=bench_seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench.ndjson"
        write_benchmark(path, items, seed=bench_seed, k_options=4)
        rows, back = read_ndjson(path)[1], read_benchmark(path)[1]
    assert back == items
    views = {g.record_id: graph_view(g) for g in graphs}
    for row, it in zip(rows, back):
        q, view = it.question, views[it.graph_id]
        route = list(view.route)
        assert "activity" not in row["question"] and "masked_index" not in row["question"]
        if isinstance(q, StepQuestion):  # the generator's target step
            assert q.activity == view.steps[q.step_index].label
        if isinstance(q, MaskedQuestion):  # the one position the generator masked
            i = q.masked_index
            assert q.route_with_mask[i] == MASK_TOKEN
            assert [*q.route_with_mask[:i], it.gold_option(), *q.route_with_mask[i + 1:]] == route


def test_a_route_holding_the_mask_token_gets_no_masked_question():
    corpus = [compile_graph(chain_graph(labels, record_id=f"g{i}"))
              for i, labels in enumerate([["mix", MASK_TOKEN, "sinter"], ["mix", "mill", "sinter"],
                                          ["mill", "press", "anneal"]])]
    items, skips = generate_benchmark(corpus, k_options=2, seed=1)
    masked = [it.graph_id for it in items if it.task == "A2_missing_step"]
    assert "g0" not in masked and "g1" in masked
    assert {"graph_id": "g0", "task": "A2_missing_step", "reason": "mask_token_in_route"} in skips


def _saved_and_loaded(memory, shuffle_seed):
    """``memory``'s saved rows, and the memory loaded from them as saved and
    with the rows shuffled."""
    with tempfile.TemporaryDirectory() as tmp:
        path, shuffled = Path(tmp) / "memory.ndjson", Path(tmp) / "shuffled.ndjson"
        save_memory(path, memory)
        header, rows = read_ndjson(path)
        random.Random(shuffle_seed).shuffle(rows)
        write_ndjson(shuffled, header, rows)
        return rows, load_memory(path), load_memory(shuffled)


def _label_sets(sets):
    """Each row of a :class:`matproc.memory.LabelSets` as the set it holds."""
    labels = sorted(sets.columns, key=sets.columns.get)
    return [{labels[j] for j in np.flatnonzero(row)} for row in sets.incidence]


@PROPERTY
@given(n=st.integers(1, 12), seed=SEEDS, shuffle_seed=SEEDS)
def test_a_memory_s_step_index_is_each_entry_read_off_its_route(n, seed, shuffle_seed):
    graphs = _compiled(n, seed)
    routes = {g.record_id: list(graph_view(g).route) for g in graphs}
    memory = build_memory(graphs, split_id="s")
    _, back, moved = _saved_and_loaded(memory, shuffle_seed)
    for m in (memory, back, moved):
        index, library = m.step_index, m.step_library
        at = [StepQuery.at(routes[e.graph_id], e.position) for e in library]
        assert index.activity.tolist() == [q.activity for q in at]
        assert index.norm_position.tolist() == [q.norm_position for q in at]
        assert _label_sets(index.neighbours) == [q.neighbour_labels() for q in at]
        assert _label_sets(index.input_forms) == [set(e.input_forms) for e in library]
        assert index.position.tolist() == [e.position for e in library]
        assert index.graph_rank.tolist() == sorted_ranks([e.graph_id for e in library]).tolist()


@PROPERTY
@given(n=st.integers(1, 12), seed=SEEDS, max_prefix_len=st.integers(1, 6), shuffle_seed=SEEDS)
def test_a_memory_reads_back_equal_whatever_the_order_of_its_rows(n, seed, max_prefix_len,
                                                                  shuffle_seed):
    memory = build_memory(_compiled(n, seed), split_id="s", max_prefix_len=max_prefix_len)
    rows, back, moved = _saved_and_loaded(memory, shuffle_seed)
    assert {row["kind"] for row in rows} <= {"process", "step", "transition"}
    assert not any(key in row for row in rows for key in
                   ("activity", "norm_position", "prev_activity", "next_activity"))
    assert_same_memory(back, memory)
    assert sorted(moved.processes, key=lambda p: p.graph_id) == sorted(
        memory.processes, key=lambda p: p.graph_id)
    assert sorted(moved.step_library, key=lambda e: (e.graph_id, e.position)) == sorted(
        memory.step_library, key=lambda e: (e.graph_id, e.position))
    assert moved.transition_table == memory.transition_table
    assert moved.prefix_index == memory.prefix_index and moved.vocab == memory.vocab
    at, moved_at = ({p.graph_id: i for i, p in enumerate(m.processes)} for m in (memory, moved))
    for graph_id, i in at.items():
        assert moved.steps_of(graph_id) == memory.steps_of(graph_id)
        for kind, vectors in memory.vectors.items():
            assert np.array_equal(moved.vectors[kind][moved_at[graph_id]], vectors[i])
