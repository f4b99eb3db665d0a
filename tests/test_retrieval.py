"""Retrieval: embedders, the frozen structure encoder, heuristic and fusion."""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import itertools
import pickle
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matproc import retrieval as rt
from matproc.canon import canon_label, derive_seed
from matproc.errors import (
    DataError,
    EmbeddingDimensionMismatch,
    EmptyMemory,
    InvalidParams,
)
from matproc.memory import (
    ProcessSummary,
    build_memory,
    linearize_process,
    load_memory,
    save_memory,
)
from matproc.provgraph import (
    ActivityNode,
    EntityNode,
    ProcessGraph,
    SynthParams,
    generate_synthetic_corpus,
    validate_graph,
)
from matproc.runner import _FUSION_ROWS
from matproc.taskgen import generate_benchmark

from helpers import chain_graph, compiled, orthogonal_to, quickstart_dir
from structure_oracle import attend, embed_structure_oracle


def small_corpus(n=20, seed=7):
    return [compiled(g) for g in generate_synthetic_corpus(SynthParams(n_records=n), seed=seed)]


# --- built-in text embedder ---------------------------------------------------------


def test_builtin_embedder_unit_norm_sweep():
    corpus = small_corpus()
    memory = build_memory(corpus)
    texts = [linearize_process(memory, g.record_id) for g in corpus]
    texts += ["lithium carbonate", "ball milling at 300 rpm", "x" * 400]
    vectors = rt.BuiltinTextEmbedder().embed(texts)
    norms = np.linalg.norm(vectors, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-9)


def test_builtin_embedder_deterministic():
    texts = ["precursors: a, b | route: mill -> sinter", "route: anneal"]
    first = rt.BuiltinTextEmbedder().embed(texts)
    second = rt.BuiltinTextEmbedder().embed(texts)
    assert np.array_equal(first, second)


def test_builtin_embedder_identical_texts_cosine_one():
    vecs = rt.BuiltinTextEmbedder().embed(["sinter at 900 c", "sinter at 900 c"])
    assert rt.cosine(vecs[0], vecs[1]) == pytest.approx(1.0, abs=1e-12)


def test_builtin_embedder_short_text_is_zero_vector():
    # nothing reaches the smallest n-gram size, and the zero vector must survive
    vecs = rt.BuiltinTextEmbedder().embed(["ab", ""])
    assert np.all(vecs == 0.0)
    assert rt.cosine(vecs[0], vecs[1]) == 0.0


def test_builtin_embedder_single_trigram_bucket():
    # "abc" carries exactly one n-gram, so the embedding is a one-hot at the
    # bucket the documented hashing contract assigns to it
    vec = rt.BuiltinTextEmbedder().embed(["abc"])[0]
    bucket = int.from_bytes(hashlib.blake2b(b"abc", digest_size=4).digest(), "big") % rt.EMBED_DIM
    nonzero = np.nonzero(vec)[0]
    assert list(nonzero) == [bucket]
    assert vec[bucket] == pytest.approx(1.0)


def test_builtin_embedder_distinguishes_texts():
    vecs = rt.BuiltinTextEmbedder().embed(["mill then sinter", "sinter then mill"])
    assert rt.cosine(vecs[0], vecs[1]) < 1.0 - 1e-6


# --- structure embedding -------------------------------------------------------------


def embed_one(g: ProcessGraph) -> np.ndarray:
    """The structure vector of ``g`` embedded alone, with a fresh encoder."""
    return rt.embed_structure([g])[0]


def test_embed_structure_single_node_matches_plain_projection():
    # with one node the neighbourhood is the node itself, so attention must
    # collapse and the result is just two projected/squashed rounds, normalized
    g = ProcessGraph(record_id="solo")
    g.material_entities.append(EntityNode(id="m0", label="lithium", kind="material"))
    got = embed_one(g)

    h = rt.BuiltinTextEmbedder().embed([canon_label("lithium")])[0]
    for round_index in range(2):
        rng = np.random.default_rng(derive_seed(13, "round", round_index))
        w = rng.normal(0.0, 1.0 / np.sqrt(rt.EMBED_DIM), size=(rt.EMBED_DIM, rt.EMBED_DIM))
        h = np.tanh(w @ h)
    h = h / np.linalg.norm(h)
    assert np.allclose(got, h, atol=1e-12)


def _relabelled_copy(g: ProcessGraph) -> ProcessGraph:
    """Same labelled structure under fresh node ids and permuted list orders."""
    rename = {n.id: f"z_{n.id}" for n in [*g.entities(), *g.activities]}
    out = ProcessGraph(record_id="iso-copy")
    out.material_entities = [
        EntityNode(id=rename[e.id], label=e.label, kind=e.kind, attributes=dict(e.attributes))
        for e in reversed(g.material_entities)
    ]
    out.tool_entities = [
        EntityNode(id=rename[e.id], label=e.label, kind=e.kind, attributes=dict(e.attributes))
        for e in reversed(g.tool_entities)
    ]
    out.activities = [type(a)(id=rename[a.id], label=a.label, conditions=dict(a.conditions),
                              source_position=a.source_position)
                      for a in reversed(g.activities)]
    out.usage_edges = [(rename[s], rename[d]) for (s, d) in reversed(g.usage_edges)]
    out.generation_edges = [(rename[s], rename[d]) for (s, d) in reversed(g.generation_edges)]
    return out


def test_embed_structure_isomorphism_invariant():
    g = chain_graph(
        ["ball milling", "sintering", "annealing"],
        tools={"sintering": ("tube furnace",)},
        precursors=("lithium carbonate", "cobalt oxide"),
    )
    twin = _relabelled_copy(g)
    assert np.allclose(embed_one(g), embed_one(twin), atol=1e-9)


def test_embed_structure_deterministic_and_unit_norm():
    for g in small_corpus(n=6):
        first = embed_one(g)
        second = embed_one(g)
        assert np.array_equal(first, second)
        assert np.linalg.norm(first) == pytest.approx(1.0, abs=1e-9)


def test_embed_structure_empty_graph_is_zero():
    assert np.all(embed_one(ProcessGraph(record_id="void")) == 0.0)


def test_embed_structure_structure_sensitive():
    # same node labels, different wiring -> different embedding
    a = chain_graph(["mixing", "sintering"], precursors=("x", "y"))
    b = chain_graph(["sintering", "mixing"], precursors=("x", "y"))
    assert not np.allclose(embed_one(a), embed_one(b))


# --- batched embedding -------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def quickstart():
    """The README quickstart's graphs and its test items (see
    :func:`helpers.quickstart_dir`)."""
    from matproc.provgraph.store import load_graphs
    from matproc.splits import read_assignment
    from matproc.taskgen.store import load_items

    root = quickstart_dir()
    items = load_items(root / "bench.ndjson")
    return load_graphs(root / "graphs.ndjson"), read_assignment(root / "split.ndjson").items_in(items, "test")


def node_count(g: ProcessGraph) -> int:
    return len(g.entities()) + len(g.activities)


def assert_batch_equals_reference(graphs, encoder=None):
    """Each row of the batch is the graph's row alone and the oracle's, to the bit."""
    got = rt.embed_structure(graphs, encoder)
    assert got.shape == (len(graphs), rt.EMBED_DIM) and got.dtype == np.float64
    for row, g in zip(got, graphs):
        assert np.array_equal(row, embed_one(g)), g.record_id
        assert np.array_equal(row, embed_structure_oracle(g)), g.record_id


def test_embed_structures_equals_embed_structure_on_every_quickstart_graph():
    graphs, _ = quickstart()
    assert len(graphs) == 200
    assert_batch_equals_reference(graphs)


def test_embed_structures_equals_embed_structure_on_every_quickstart_test_query():
    _, items = quickstart()
    assert len(items) == 1090
    graphs = [rt.query_from_item(item).context_graph for item in items]
    assert any(node_count(g) < 3 for g in graphs)  # one- and two-node graphs join the chunks
    assert_batch_equals_reference(graphs)


def graph_of(labels, record_id):
    """Material nodes with ``labels`` and no edge."""
    g = ProcessGraph(record_id=record_id)
    for i, label in enumerate(labels):
        g.material_entities.append(EntityNode(id=f"m{i}", label=label, kind="material"))
    return g


def test_embed_structures_equals_embed_structure_on_small_and_degenerate_graphs():
    _, items = quickstart()
    two_node_a1 = next(q.context_graph for q in map(rt.query_from_item, items)
                       if q.context_graph.record_id.endswith(":A1_route_retrieval:0")
                       and node_count(q.context_graph) == 2)
    few_labels = graph_of(["lithium", "lithium", "cobalt"], "two-labels")
    few_labels.activities.append(ActivityNode(id="a0", label="cobalt", source_position=0))
    few_labels.usage_edges += [("m0", "a0"), ("m1", "a0")]
    few_labels.generation_edges.append(("a0", "m2"))
    odd = [
        graph_of(["lithium"], "one"),
        two_node_a1,
        graph_of(["x", "x", "x"], "one-label"),
        few_labels,
        ProcessGraph(record_id="void"),
    ]
    assert_batch_equals_reference(odd)
    assert_batch_equals_reference([*small_corpus(n=4), *odd, *small_corpus(n=3, seed=2)])
    for g in odd:  # each on its own, so the label table is padded or skipped
        assert_batch_equals_reference([g])
    assert np.all(rt.embed_structure([ProcessGraph(record_id="void")]) == 0.0)
    assert rt.embed_structure([]).shape == (0, rt.EMBED_DIM)


def recorded_chunks(monkeypatch) -> list[list[int]]:
    """The output rows of each chunk the encoder embeds, in order."""
    chunks = []
    embed_chunk = rt._embed_chunk

    def recorded(chunk, *args):
        chunks.append([row for row, _, _ in chunk])
        return embed_chunk(chunk, *args)

    monkeypatch.setattr(rt, "_embed_chunk", recorded)
    return chunks


def test_embed_structures_equals_embed_structure_across_chunk_boundaries(monkeypatch):
    chains = [chain_graph(["mill", "sinter", "anneal"][: 1 + i % 3], record_id=f"g{i}",
                          precursors=("lithium carbonate", "cobalt oxide")[: 1 + i % 2])
              for i in range(12)]
    big = max(small_corpus(n=5), key=node_count)  # more nodes than a chunk holds
    two = graph_of(["lithium", "cobalt"], "two")
    # the one-node graph ahead of the big one makes a chunk of one row
    graphs = [graph_of(["lithium"], "one"), big, *chains[:6], two,
              ProcessGraph(record_id="void"), *chains[6:]]
    monkeypatch.setattr(rt, "_CHUNK_ROWS", 12)
    chunks = recorded_chunks(monkeypatch)
    assert node_count(big) > 12
    rt.embed_structure(graphs)
    chunks = chunks[:]  # the batch's; the reference embeds each graph alone too
    assert_batch_equals_reference(graphs)
    assert len(chunks) > 3 and sum(len(rows) > 1 for rows in chunks) >= 2
    assert [0] in chunks and [1] in chunks  # the one-node graph alone, padded; the big one alone
    assert any(len(rows) > 1 for rows in chunks if graphs.index(two) in rows)
    assert sorted(row for rows in chunks for row in rows) == [
        row for row, g in enumerate(graphs) if node_count(g) > 0]


def test_embed_structures_equals_embed_structure_at_the_default_chunk_bound(monkeypatch):
    bound = rt._CHUNK_ROWS  # as shipped, not patched
    ops = ["mill", "sinter", "anneal", "press", "calcine"]
    big = chain_graph([ops[i % 5] for i in range(bound // 2 + 1)], record_id="big",
                      tools={"press": ["die"], "mill": ["ball mill"]},
                      precursors=("lithium carbonate", "cobalt oxide"))
    tiny = [graph_of(["lithium"], "one"), graph_of(["lithium", "cobalt"], "two")]
    graphs = [*small_corpus(n=10), tiny[0], big, tiny[1], *small_corpus(n=8, seed=2),
              ProcessGraph(record_id="void")]
    chunks = recorded_chunks(monkeypatch)
    assert node_count(big) > bound
    assert sum(node_count(g) for g in graphs) > 2 * bound
    rt.embed_structure(graphs)
    chunks = chunks[:]  # the batch's; the reference embeds each graph alone too
    assert_batch_equals_reference(graphs)
    assert [rows for rows in chunks if graphs.index(big) in rows] == [[graphs.index(big)]]
    assert len(chunks) >= 3 and sum(len(rows) > 1 for rows in chunks) >= 2
    for g in tiny:  # each shares a chunk with larger graphs
        assert [len(rows) > 1 for rows in chunks if graphs.index(g) in rows] == [True]
    assert sorted(row for rows in chunks for row in rows) == [
        row for row, g in enumerate(graphs) if node_count(g) > 0]


def embed_text_by_loop(text: str) -> np.ndarray:
    """The builtin embedding of one text, one n-gram at a time: the reference."""
    counts = np.zeros(rt.EMBED_DIM)
    for n in rt.NGRAM_SIZES:
        for i in range(len(text) - n + 1):
            digest = hashlib.blake2b(text[i : i + n].encode("utf-8"), digest_size=4).digest()
            counts[int.from_bytes(digest, "big") % rt.EMBED_DIM] += 1
    norm = np.linalg.norm(counts[None, :], axis=1, keepdims=True)[0]
    return counts / norm if norm[0] > 0 else counts


def test_builtin_embedder_embeds_a_batch_as_its_texts_one_by_one():
    _, items = quickstart()
    texts = [rt.query_from_item(item).text for item in items[:200]]
    texts += ["", "a", "ab", "abc", "abc", "ab", "", "lithium carbonate", "µm-scale Ø 3 mm",
              "x" * 400]
    batch = rt.BuiltinTextEmbedder().embed(texts)
    assert batch.shape == (len(texts), rt.EMBED_DIM)
    for row, text in zip(batch, texts):
        assert np.array_equal(row, rt.BuiltinTextEmbedder().embed([text])[0]), text
        assert np.array_equal(row, embed_text_by_loop(text)), text
    assert rt.BuiltinTextEmbedder().embed([]).shape == (0, rt.EMBED_DIM)


@functools.lru_cache(maxsize=None)
def quickstart_structures():
    """The quickstart's graphs, then the context graphs of its test queries,
    each with its oracle vector: the reference rows."""
    graphs, items = quickstart()
    graphs = [*graphs, *(rt.query_from_item(item).context_graph for item in items)]
    return graphs, [embed_structure_oracle(g) for g in graphs]


@pytest.mark.parametrize("chunk_rows", [3, 24, 200])
def test_one_encoder_shared_by_every_block_equals_embed_structure(monkeypatch, chunk_rows):
    graphs, want = quickstart_structures()
    assert len(graphs) == 200 + 1090
    monkeypatch.setattr(rt, "_CHUNK_ROWS", chunk_rows)
    encoder = rt.StructureEncoder()
    for start in range(0, len(graphs), 8):  # blocks of 8, graphs then queries
        got = rt.embed_structure(graphs[start : start + 8], encoder)
        for row, reference in zip(got, want[start : start + 8]):
            assert np.array_equal(row, reference)
    # every distinct label of every graph has one row, in one buffer
    labels = {canon_label(n.label) for g in graphs for n in [*g.entities(), *g.activities]}
    assert encoder.rows.keys() == labels
    assert sorted(encoder.rows.values()) == list(range(len(labels)))
    assert len(encoder.table) >= len(labels)


def random_neighbourhoods(rng, n, widest):
    """A closed neighbourhood for each of ``n`` nodes: the node and up to
    ``widest - 1`` others, ascending."""
    return [sorted({i, *rng.choice(n, size=rng.integers(0, min(n, widest)), replace=False).tolist()})
            for i in range(n)]


def test_batched_attention_equals_the_per_node_reference():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5, 24, 61):
        for widest in (1, 3, 12):
            z = rng.normal(0.0, 1.0, size=(n, rt.EMBED_DIM))
            neighbours = random_neighbourhoods(rng, n, widest)
            assert np.array_equal(rt._attend_all(z, neighbours), attend(z, neighbours)), (n, widest)


NODE_LABELS = ["lithium", "Lithium ", "cobalt oxide", "mill", "sinter", "x", "Ø 3 mm", ""]


@st.composite
def small_graphs(draw):
    """A graph of 0 to 7 nodes with random labels, some shared, and random
    usage and generation links."""
    g = ProcessGraph(record_id="random")
    for i in range(draw(st.integers(0, 4))):
        g.material_entities.append(EntityNode(id=f"m{i}", label=draw(st.sampled_from(NODE_LABELS)),
                                              kind="material"))
    for i in range(draw(st.integers(0, 3))):
        g.activities.append(ActivityNode(id=f"a{i}", label=draw(st.sampled_from(NODE_LABELS)),
                                         source_position=i))
    if g.material_entities and g.activities:
        links = st.tuples(st.sampled_from(g.material_entities), st.sampled_from(g.activities), st.booleans())
        for m, a, used in draw(st.lists(links, max_size=6)):
            if used:
                g.usage_edges.append((m.id, a.id))
            else:
                g.generation_edges.append((a.id, m.id))
    return g


@settings(max_examples=80, deadline=None, derandomize=True)
@given(graphs=st.lists(small_graphs(), max_size=10), warm=st.lists(small_graphs(), max_size=3),
       chunk_rows=st.integers(1, 12) | st.just(rt._CHUNK_ROWS))
def test_every_graph_gets_its_row_alone_in_any_batch_and_chunking(graphs, warm, chunk_rows):
    encoder = rt.StructureEncoder()
    with mock.patch.object(rt, "_CHUNK_ROWS", chunk_rows):  # small bounds make one-row chunks
        rt.embed_structure(warm, encoder)  # a table that already holds some labels
        assert_batch_equals_reference(graphs, encoder)


TEXTS = st.lists(
    # non-Latin scripts, and a code point above 2**16
    st.sampled_from(["", "a", "ab", "abc", "Ø", "µm", "x" * 40, "lithium carbonate",
                     "酸化鉄の焼成", "\U0001F525 sinter \U0001F525"])
    | st.text(max_size=3)
    | st.text(alphabet="ab -", max_size=30)
    | st.text(max_size=60),
    max_size=12,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(texts=TEXTS, duplicates=st.integers(0, 4), bound=st.sampled_from([1, 6, 50, rt._BATCH_GRAMS]))
def test_builtin_embedder_gives_each_text_its_row_alone(texts, duplicates, bound):
    texts = [*texts, *texts[:duplicates]]
    with mock.patch.object(rt, "_BATCH_GRAMS", bound):  # small bounds split the call
        batch = rt.BuiltinTextEmbedder().embed(texts)
    assert batch.shape == (len(texts), rt.EMBED_DIM)
    for row, text in zip(batch, texts):
        assert np.array_equal(row, rt.BuiltinTextEmbedder().embed([text])[0]), text
        assert np.array_equal(row, embed_text_by_loop(text)), text


def test_builtin_embedder_holds_one_batch_of_n_grams_at_a_time():
    graphs, _ = quickstart()
    memory = build_memory(graphs)
    texts = [linearize_process(memory, g.record_id) for g in graphs]
    embedder = rt.BuiltinTextEmbedder()
    embedder.embed(texts)  # fills the n-gram bucket cache, which outlives a call
    tracemalloc.start()
    try:
        out = embedder.embed(texts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(texts) == 200
    # about 1.6x here; all of the call's n-grams at once as strings take about 26x
    assert peak < 2 * out.nbytes


def test_a_batch_of_queries_is_embedded_together_by_its_first_retrieval(monkeypatch):
    corpus = small_corpus(n=25, seed=9)
    memory = build_memory(corpus)
    items = generate_benchmark(corpus, seed=5)[0][:30]
    calls = {"text": 0, "structure": 0}
    batching = []
    embed, encode = rt.BuiltinTextEmbedder.embed, rt.embed_structure

    def counted_embed(self, texts):
        calls["text"] += not batching  # a structure batch embeds its labels too
        return embed(self, texts)

    def counted_structures(graphs, encoder=None):
        calls["structure"] += 1
        batching.append(True)
        try:
            return encode(graphs, encoder)
        finally:
            batching.pop()

    monkeypatch.setattr(rt.BuiltinTextEmbedder, "embed", counted_embed)
    monkeypatch.setattr(rt, "embed_structure", counted_structures)
    block = rt.queries_from_items(items)
    order = [*range(3, len(block)), 3, *range(3)]  # the first retrieval is row 3's
    got = {row: rt.retrieve(block[row], memory) for row in order}
    assert calls == {"text": 1, "structure": 1}  # one of each for the whole block
    monkeypatch.undo()
    text_rows, struct_rows = block[0].block.vectors
    for row, (item, query) in enumerate(zip(items, block)):
        alone = rt.query_from_item(item)
        assert query.row == row
        assert np.array_equal(text_rows[row], rt.BuiltinTextEmbedder().embed([alone.text])[0])
        assert np.array_equal(struct_rows[row], embed_one(alone.context_graph))
        assert got[row] == rt.retrieve(alone, memory)  # == on every float


def test_threads_retrieving_from_one_batch_embed_it_once(monkeypatch):
    corpus = small_corpus(n=25, seed=9)
    memory = build_memory(corpus)
    items = generate_benchmark(corpus, seed=5)[0][:24]
    want = [rt.retrieve(rt.query_from_item(item), memory) for item in items]
    embedded = []
    encode = rt.embed_structure

    def counted(graphs, encoder=None):
        embedded.append(len(graphs))
        return encode(graphs, encoder)

    monkeypatch.setattr(rt, "embed_structure", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            batch = rt.queries_from_items(items)
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda q: rt.retrieve(q, memory), batch, timeout=120))
            assert got == want
    finally:
        sys.setswitchinterval(interval)
    # each batch once, by whichever thread came first; the others find nothing left
    assert [n for n in embedded if n] == [len(items)] * 5


# --- heuristic view ---------------------------------------------------------------


def summary(route, precursors, gid="q"):
    return ProcessSummary(graph_id=gid, route=list(route), precursors=list(precursors),
                          products=[], tools=[])


def test_heuristic_self_similarity():
    s = summary(["mill", "sinter"], ["lithium carbonate"])
    assert rt.score_heuristic(s, s) == 1.0


def test_heuristic_hand_value_partial_overlap():
    q = summary(["mill", "sinter"], ["a"])
    p = summary(["mill", "anneal"], ["b"])
    assert rt.score_heuristic(q, p) == pytest.approx((1 / 3 + 1.0 + 0.0) / 3)


def test_heuristic_hand_value_disjoint_lengths():
    q = summary(["x"], ["a"])
    p = summary(["p1", "p2", "p3", "p4"], ["b"])
    assert rt.score_heuristic(q, p) == pytest.approx((0.0 + 0.25 + 0.0) / 3)


def test_heuristic_empty_routes_count_as_agreement():
    assert rt.score_heuristic(summary([], []), summary([], [])) == 1.0


def test_heuristic_range_sweep():
    corpus = small_corpus()
    memory = build_memory(corpus)
    for q in memory.processes:
        for p in memory.processes:
            value = rt.score_heuristic(q, p)
            assert 0.0 <= value <= 1.0
            assert value == pytest.approx(rt.score_heuristic(p, q))  # symmetric


# --- weights -----------------------------------------------------------------------


def test_default_weights_and_top_k():
    w = rt.RetrievalWeights()
    assert (w.alpha, w.beta, w.gamma) == (0.4, 0.3, 0.3)
    assert rt.DEFAULT_TOP_K == 8


def test_weights_must_sum_to_one():
    with pytest.raises(InvalidParams):
        rt.RetrievalWeights(alpha=0.5, beta=0.5, gamma=0.5)


def test_weights_must_be_non_negative():
    with pytest.raises(InvalidParams):
        rt.RetrievalWeights(alpha=1.2, beta=-0.2, gamma=0.0)


def test_weights_for_view_subsets():
    assert rt.RetrievalWeights.for_views(["text"]) == rt.RetrievalWeights(1.0, 0.0, 0.0)
    pair = rt.RetrievalWeights.for_views(["text", "structure"])
    assert pair.alpha == pytest.approx(4 / 7)
    assert pair.beta == pytest.approx(3 / 7)
    assert pair.gamma == 0.0
    assert rt.RetrievalWeights.for_views(["text", "structure", "heuristic"]) == rt.RetrievalWeights()
    with pytest.raises(InvalidParams):
        rt.RetrievalWeights.for_views(["text", "vibes"])
    with pytest.raises(InvalidParams):
        rt.RetrievalWeights.for_views([])


# --- fusion ------------------------------------------------------------------------


def three_process_memory():
    graphs = [
        compiled(chain_graph(["mill"], record_id="pa", precursors=("x",))),
        compiled(chain_graph(["mill", "anneal"], record_id="pb", precursors=("x",))),
        compiled(chain_graph(["sinter"], record_id="pc", precursors=("y",))),
    ]
    query = rt.RetrievalQuery(
        summary=summary(["mill"], ["x"]),
        text="precursors: x | route: mill",
        context_graph=compiled(chain_graph(["mill"], record_id="q", precursors=("x",))),
    )
    # the stored rows are built around the query's own vectors, so every
    # cosine is 1 or 0: pb's text row and pc's struct row are the query's
    # vectors, every other row is orthogonal to them
    text, struct = rt.BuiltinTextEmbedder().embed([query.text])[0], embed_one(query.context_graph)
    memory = dataclasses.replace(build_memory(graphs), vectors={
        "text": np.array([orthogonal_to(text), text, orthogonal_to(text)]),
        "struct": np.array([orthogonal_to(struct), orthogonal_to(struct), struct])})
    return memory, query


def test_retrieve_hand_computed_fusion():
    memory, query = three_process_memory()
    results = rt.retrieve(query, memory, k=3)
    assert [r.graph_id for r in results] == ["pb", "pa", "pc"]
    by_id = {r.graph_id: r for r in results}
    assert by_id["pa"].s_ret == pytest.approx(0.65, abs=1e-9)
    assert by_id["pb"].s_ret == pytest.approx(0.75, abs=1e-9)
    assert by_id["pc"].s_ret == pytest.approx(0.60, abs=1e-9)
    assert by_id["pb"].s_text == pytest.approx(1.0)
    assert by_id["pb"].s_struct == pytest.approx(0.5)
    assert by_id["pb"].s_heur == pytest.approx(2 / 3)


def test_retrieve_degenerate_weights_match_single_views():
    memory, query = three_process_memory()
    full = {r.graph_id: r for r in rt.retrieve(query, memory, k=3)}

    for weights, view in [
        (rt.RetrievalWeights(1.0, 0.0, 0.0), "s_text"),
        (rt.RetrievalWeights(0.0, 1.0, 0.0), "s_struct"),
        (rt.RetrievalWeights(0.0, 0.0, 1.0), "s_heur"),
    ]:
        got = [r.graph_id for r in rt.retrieve(query, memory, weights=weights, k=3)]
        want = sorted(full, key=lambda gid: (-getattr(full[gid], view), gid))
        assert got == want, view


def test_retrieve_fusion_invariant_and_ranges():
    corpus = small_corpus()
    memory = build_memory(corpus)
    anchor = corpus[0]
    query = rt.RetrievalQuery(
        summary=memory.by_graph_id[anchor.record_id],
        text=linearize_process(memory, anchor.record_id),
        context_graph=anchor,
    )
    weights = rt.RetrievalWeights()
    results = rt.retrieve(query, memory, weights=weights, k=len(corpus))
    assert len(results) == len(corpus)
    for r in results:
        for value in (r.s_text, r.s_struct, r.s_heur, r.s_ret):
            assert 0.0 <= value <= 1.0
        fused = weights.alpha * r.s_text + weights.beta * r.s_struct + weights.gamma * r.s_heur
        assert r.s_ret == pytest.approx(fused, abs=1e-9)
    scores = [r.s_ret for r in results]
    assert scores == sorted(scores, reverse=True)


def test_retrieve_self_match_heuristic_only():
    corpus = [compiled(chain_graph([f"op{i}", "sinter"], record_id=f"g{i}",
                                   precursors=(f"pre{i}",))) for i in range(4)]
    memory = build_memory(corpus)
    query = rt.RetrievalQuery(summary=memory.by_graph_id["g2"])  # no text, no context graph
    results = rt.retrieve(query, memory, weights=rt.RetrievalWeights(0.0, 0.0, 1.0), k=2)
    assert results[0].graph_id == "g2"
    assert results[0].s_ret == pytest.approx(1.0, abs=1e-12)
    everyone = rt.retrieve(query, memory, k=len(corpus))
    assert [r.s_struct for r in everyone] == [0.5] * len(corpus)
    empty = dataclasses.replace(query, context_graph=ProcessGraph(""))
    assert everyone == rt.retrieve(empty, memory, k=len(corpus))  # == on every float


def test_retrieve_self_match_default_weights_builtin_embedders():
    corpus = small_corpus(n=10)
    memory = build_memory(corpus)
    for anchor in corpus[:3]:
        query = rt.RetrievalQuery(
            summary=memory.by_graph_id[anchor.record_id],
            text=linearize_process(memory, anchor.record_id),
            context_graph=anchor,
        )
        results = rt.retrieve(query, memory)
        assert results[0].graph_id == anchor.record_id
        assert results[0].s_ret == pytest.approx(1.0, abs=1e-9)


def test_retrieve_returns_min_k_and_memory_size():
    corpus = small_corpus(n=12)
    memory = build_memory(corpus)
    query = rt.RetrievalQuery(
        summary=memory.by_graph_id[corpus[0].record_id],
        text=linearize_process(memory, corpus[0].record_id),
        context_graph=corpus[0],
    )
    assert len(rt.retrieve(query, memory)) == 8  # default k over 12 candidates
    small = build_memory(corpus[:3])
    assert len(rt.retrieve(query, small)) == 3


def test_retrieve_ties_break_by_graph_id():
    graphs = [
        compiled(chain_graph(["mill", "sinter"], record_id="gb")),
        compiled(chain_graph(["mill", "sinter"], record_id="ga")),
    ]
    memory = build_memory(graphs)
    query = rt.RetrievalQuery(
        summary=summary(["mill", "sinter"], ["lithium carbonate"]),
        text=linearize_process(memory, "ga"),
        context_graph=graphs[0],
    )
    results = rt.retrieve(query, memory, k=2)
    assert [r.graph_id for r in results] == ["ga", "gb"]
    assert results[0].s_ret == results[1].s_ret


def test_retrieve_empty_memory_raises():
    memory = dataclasses.replace(build_memory(small_corpus(n=2)), processes=[])
    with pytest.raises(EmptyMemory):
        rt.retrieve(rt.RetrievalQuery(summary=summary([], [])), memory)


def test_retrieve_invalid_k():
    memory = build_memory(small_corpus(n=2))
    with pytest.raises(InvalidParams):
        rt.retrieve(rt.RetrievalQuery(summary=summary([], [])), memory, k=0)


def test_retrieve_deterministic():
    corpus = small_corpus(n=9)
    memory = build_memory(corpus)
    query = rt.RetrievalQuery(
        summary=memory.by_graph_id[corpus[3].record_id],
        text=linearize_process(memory, corpus[3].record_id),
        context_graph=corpus[3],
    )
    first = [r.to_dict() for r in rt.retrieve(query, memory)]
    second = [r.to_dict() for r in rt.retrieve(query, memory)]
    assert first == second


def test_build_memory_stores_the_vectors_attach_embeddings_gives():
    corpus = small_corpus(n=6)
    memory = build_memory(corpus)
    assert set(memory.vectors) == {"text", "struct"}
    again = rt.attach_embeddings(memory, corpus)
    for kind, matrix in memory.vectors.items():
        assert not matrix.flags.writeable
        assert np.array_equal(matrix, again.vectors[kind])


@pytest.mark.parametrize("kind", ["text", "struct"])
def test_a_memory_without_a_vector_kind_fails_at_index_build(kind):
    memory = build_memory(small_corpus(n=3))
    memory = dataclasses.replace(memory, vectors={k: m for k, m in memory.vectors.items() if k != kind})
    with pytest.raises(DataError, match=f"stores no {kind} vectors"):
        memory.dense_index


# --- dense index against the per-pair reference ------------------------------------------


def reference_retrieve(query, memory, weights, k):
    """The per-process scoring loop the dense index replaced, kept as the
    oracle. A query without a context graph has a zero structure vector,
    whose cosine with every row is 0."""
    query_text = rt.BuiltinTextEmbedder().embed([query.text])[0]
    if query.context_graph is None:
        query_struct = np.zeros(rt.EMBED_DIM)
    else:
        query_struct = embed_one(query.context_graph)
    results = []
    for row, p in enumerate(memory.processes):
        s_text = rt.cos_to_unit(rt.cosine(query_text, memory.vectors["text"][row]))
        s_struct = rt.cos_to_unit(rt.cosine(query_struct, memory.vectors["struct"][row]))
        s_heur = rt.score_heuristic(query.summary, p)
        s_ret = weights.alpha * s_text + weights.beta * s_struct + weights.gamma * s_heur
        results.append(rt.RetrievedPrecedent(p.graph_id, s_text, s_struct, s_heur, s_ret))
    results.sort(key=lambda r: (-r.s_ret, r.graph_id))
    return results[:k]


VIEWS = ("text", "structure", "heuristic")
ALL_WEIGHTS = [
    rt.RetrievalWeights.for_views(list(views))
    for size in (1, 2, 3)
    for views in itertools.combinations(VIEWS, size)
] + [rt.RetrievalWeights(*preset) for _, preset in _FUSION_ROWS]


def equivalence_corpus():
    corpus = small_corpus(n=25, seed=9)
    # exact twins under other ids tie on every view, so the graph_id
    # tie-break decides their order
    twins = []
    for g in corpus[:3]:
        twin = copy.deepcopy(g)
        twin.record_id = f"{g.record_id}-twin"
        twins.append(twin)
    return corpus + twins


def equivalence_queries(corpus):
    """Two items of every task, plus one query without a context graph (its
    structure view is neutral)."""
    items, _ = generate_benchmark(corpus, seed=5)
    per_task = {}
    for item in items:
        per_task.setdefault(item.task, []).append(item)
    queries = [rt.query_from_item(it) for task in sorted(per_task) for it in per_task[task][:2]]
    queries.append(rt.RetrievalQuery(summary=summary(["mill"], ["x"]), text="route: mill"))
    return queries


@pytest.mark.parametrize("variant", ["full", "loaded"])
def test_dense_retrieve_equals_per_pair_reference(variant, tmp_path):
    corpus = equivalence_corpus()
    memory = build_memory(corpus)
    if variant == "loaded":  # its vectors are read-only matrices over the file's numbers
        save_memory(tmp_path / "memory.ndjson", memory)
        memory = load_memory(tmp_path / "memory.ndjson")
    oracle_memory = copy.deepcopy(memory)
    n = len(memory.processes)
    for query in equivalence_queries(corpus):
        for weights in ALL_WEIGHTS:
            want = [r.to_dict() for r in reference_retrieve(query, oracle_memory, weights, n)]
            for k in (1, 8, n + 3):
                got = [r.to_dict() for r in rt.retrieve(query, memory, weights, k=k)]
                assert got == want[:k], (variant, weights, k)  # == on every float


def test_reused_query_scores_each_view_once_per_index(monkeypatch):
    corpus = equivalence_corpus()
    memory = build_memory(corpus)
    smaller = build_memory(corpus[:12])
    item = generate_benchmark(corpus, seed=5)[0][0]
    query = rt.queries_from_items([item])[0]
    fresh = rt.query_from_item(item)
    scored = []
    unit_cosines = rt.unit_cosines
    monkeypatch.setattr(rt, "unit_cosines", lambda *args: scored.append(1) or unit_cosines(*args))
    for weights in ALL_WEIGHTS:
        for k in (1, 8):
            rt.retrieve(query, memory, weights, k=k)
    assert len(scored) == 2  # the text and the structure view, once each
    # on another memory's index the views are scored again
    assert ([r.to_dict() for r in rt.retrieve(query, smaller)]
            == [r.to_dict() for r in rt.retrieve(fresh, smaller)])
    assert len(scored) == 6


def test_a_block_query_retrieved_against_two_memories_in_turn_matches_a_fresh_query():
    corpus = equivalence_corpus()
    memories = [build_memory(corpus), build_memory(corpus[:12]), build_memory(corpus[5:])]
    items = generate_benchmark(corpus, seed=5)[0][:10]
    block = rt.queries_from_items(items)
    for memory in [*memories, memories[0], *memories]:
        for weights in (rt.RetrievalWeights(), ALL_WEIGHTS[1]):
            for item, query in zip(items, block):
                want = rt.retrieve(rt.query_from_item(item), memory, weights, k=5)
                assert rt.retrieve(query, memory, weights, k=5) == want  # == on every float


@pytest.mark.parametrize("in_block", [False, True], ids=["alone", "block"])
def test_no_field_of_a_built_query_can_be_written(in_block):
    corpus = small_corpus(n=9)
    memory = build_memory(corpus)
    item = generate_benchmark(corpus, seed=5)[0][0]
    query = rt.queries_from_items([item])[0] if in_block else rt.query_from_item(item)
    before = rt.retrieve(query, memory)
    for f in dataclasses.fields(rt.RetrievalQuery):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(query, f.name, None)
    assert (query.block is None) is not in_block  # retrieval filled in nothing
    assert rt.retrieve(query, memory) == before


def test_attach_embeddings_returns_a_new_memory_with_its_own_index():
    corpus = small_corpus(n=8)
    memory = build_memory(corpus)
    vectors = dict(memory.vectors)
    first = memory.dense_index
    assert memory.dense_index is first
    embedded = rt.attach_embeddings(memory, corpus)
    assert memory.dense_index is first and memory.vectors == vectors  # the same matrices
    second = embedded.dense_index
    assert second is not first
    for kind, matrix in (("text", second.text), ("struct", second.struct)):
        assert np.shares_memory(matrix, embedded.vectors[kind])


@pytest.mark.parametrize("copier", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                         ids=["deepcopy", "pickle"])
def test_a_copied_memory_retrieves_as_the_original(copier):
    corpus = small_corpus(n=9)
    memory = build_memory(corpus)
    query = rt.RetrievalQuery(
        summary=memory.by_graph_id[corpus[3].record_id],
        text=linearize_process(memory, corpus[3].record_id),
        context_graph=corpus[3],
    )
    want = [r.to_dict() for r in rt.retrieve(query, memory)]  # builds the index
    copied = copier(memory)
    assert [r.to_dict() for r in rt.retrieve(copy.deepcopy(query), copied)] == want


def _built_and_loaded(tmp_path):
    """A built memory, and the same memory
    saved and loaded."""
    corpus = small_corpus(n=12)
    built = build_memory(corpus)
    save_memory(tmp_path / "memory.ndjson", built)
    return built, load_memory(tmp_path / "memory.ndjson")


def test_the_dense_index_scores_the_stored_vectors_in_place(tmp_path):
    built, loaded = _built_and_loaded(tmp_path)
    for memory in (built, loaded):
        index = memory.dense_index
        for kind, matrix in (("text", index.text), ("struct", index.struct)):
            assert not matrix.flags.writeable
            assert np.shares_memory(matrix, memory.vectors[kind])
            assert matrix.shape == memory.vectors[kind].shape


@pytest.mark.parametrize("kind", ["text", "struct"])
@pytest.mark.parametrize("rows", [-1, 1])
def test_stored_vectors_without_one_row_per_process_fail_at_index_build(tmp_path, kind, rows):
    _, loaded = _built_and_loaded(tmp_path)
    stored = loaded.vectors[kind]
    matrix = stored[:rows] if rows < 0 else np.vstack([stored, stored[:rows]])
    loaded = dataclasses.replace(loaded, vectors={**loaded.vectors, kind: matrix})
    with pytest.raises(DataError, match=f"stored {kind} vectors of shape"):
        loaded.dense_index


def test_a_loaded_memory_of_another_dimension_fails_at_index_build(tmp_path):
    memory = dataclasses.replace(build_memory(small_corpus(n=3)), vectors={
        "text": np.full((3, 2), 0.5), "struct": np.full((3, 2), 1.0)})
    save_memory(tmp_path / "memory.ndjson", memory)
    loaded = load_memory(tmp_path / "memory.ndjson")
    with pytest.raises(EmbeddingDimensionMismatch, match="has 2 dimensions"):
        loaded.dense_index


def test_frozen_projection_is_cached_and_read_only():
    w = rt._frozen_projection(0)
    assert rt._frozen_projection(0) is w
    assert rt._frozen_projection(1) is not w
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0, 0] = 1.0


@pytest.mark.parametrize("kind", ["text", "struct"])
def test_index_rejects_stored_vectors_of_another_dimension(kind):
    memory, query = three_process_memory()
    memory = dataclasses.replace(memory, vectors={**memory.vectors, kind: np.full((3, 768), 0.1)})
    with pytest.raises(EmbeddingDimensionMismatch, match=f"{kind} vector has 768") as info:
        rt.retrieve(query, memory, k=3)
    assert isinstance(info.value, DataError)


# --- memory round-trip --------------------------------------------------------------


def test_attach_embeddings_round_trip(tmp_path):
    corpus = small_corpus(n=6)
    memory = build_memory(corpus)
    assert set(memory.vectors) == {"text", "struct"}
    for matrix in memory.vectors.values():
        assert matrix.shape == (len(memory.processes), rt.EMBED_DIM)
        assert np.allclose(np.linalg.norm(matrix, axis=1), 1.0, rtol=0.0, atol=1e-9)

    path = tmp_path / "memory.ndjson"
    save_memory(path, memory)
    reloaded = load_memory(path)
    query = rt.RetrievalQuery(
        summary=memory.by_graph_id[corpus[1].record_id],
        text=linearize_process(memory, corpus[1].record_id),
        context_graph=corpus[1],
    )
    before = [r.to_dict() for r in rt.retrieve(query, memory)]
    after = [r.to_dict() for r in rt.retrieve(query, reloaded)]
    assert before == after


def test_attach_embeddings_names_a_process_without_a_graph():
    corpus = small_corpus(n=6)
    memory = build_memory(corpus)
    vectors = dict(memory.vectors)
    with pytest.raises(DataError, match=repr(corpus[2].record_id)):
        rt.attach_embeddings(memory, corpus[:2] + corpus[3:])
    assert memory.vectors == vectors  # the same matrices


# --- query construction --------------------------------------------------------------


def bench_by_task():
    corpus = small_corpus(n=60, seed=11)
    items, _ = generate_benchmark(corpus, seed=5)
    graphs = {g.record_id: g for g in corpus}
    by_task = {}
    for item in items:
        by_task.setdefault(item.task, item)
    assert len(by_task) == 7
    return by_task, graphs


def test_query_from_item_visible_context():
    by_task, _ = bench_by_task()

    a1 = rt.query_from_item(by_task["A1_route_retrieval"])
    assert a1.summary.route == []
    assert a1.summary.products and a1.summary.precursors

    a2_item = by_task["A2_missing_step"]
    a2 = rt.query_from_item(a2_item)
    assert "?" not in a2.summary.route
    assert len(a2.summary.route) == len(a2_item.question.route_with_mask) - 1

    a3_item = by_task["A3_next_activity"]
    a3 = rt.query_from_item(a3_item)
    assert a3.summary.route == list(a3_item.question.prefix)

    b1_item = by_task["B1_condition_prediction"]
    b1 = rt.query_from_item(b1_item)
    assert b1.summary.route == list(b1_item.question.route)

    d_item = by_task["D_process_ordering"]
    d = rt.query_from_item(d_item)
    assert d.summary.route == sorted(s.label for s in d_item.question.steps)

    for q in (a1, a2, a3, b1, d):
        assert q.summary.graph_id.startswith("query:")
        assert q.text  # non-empty linearization


def test_query_context_graphs_are_well_formed():
    corpus = small_corpus(n=30, seed=3)
    items, _ = generate_benchmark(corpus, seed=5)
    for item in items[:120]:
        query = rt.query_from_item(item)
        validate_graph(query.context_graph)
        assert query.context_graph.record_id == f"query:{item.item_id}"


def test_query_context_graph_d_task_mirrors_payload():
    by_task, _ = bench_by_task()
    item = by_task["D_process_ordering"]
    g = rt.query_from_item(item).context_graph
    assert [a.label for a in g.activities] == [s.label for s in item.question.steps]
    by_id = {e.id: e for e in g.entities()}
    for pos, step in enumerate(item.question.steps):
        act = g.activities[pos]
        used = [e for e, a in g.usage_edges if a == act.id]
        generated = [e for a, e in g.generation_edges if a == act.id]
        assert sorted(by_id[e].label for e in used) == sorted(set(step.inputs))
        assert sorted(by_id[e].label for e in generated) == sorted(set(step.outputs))


def test_query_retrieval_end_to_end_over_items():
    corpus = small_corpus(n=25, seed=9)
    memory = build_memory(corpus)
    items, _ = generate_benchmark(corpus, seed=5)
    for item in items[:40]:
        results = rt.retrieve(rt.query_from_item(item), memory)
        assert len(results) == 8
        assert all(0.0 <= r.s_ret <= 1.0 for r in results)
