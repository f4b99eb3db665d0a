"""Retrieval: embedders, the frozen structure encoder, heuristic and fusion."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import pickle
import time

import numpy as np
import pytest

from matproc import retrieval as rt
from matproc.canon import canon_label, derive_seed
from matproc.errors import (
    DataError,
    EmbedderUnavailable,
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
    EntityNode,
    ProcessGraph,
    SynthParams,
    generate_synthetic_corpus,
    validate_graph,
)
from matproc.runner import _FUSION_ROWS
from matproc.taskgen import generate_benchmark

from helpers import LoopbackEndpoint, Reply, chain_graph, closed_port_url, compiled


def small_corpus(n=20, seed=7):
    return [compiled(g) for g in generate_synthetic_corpus(SynthParams(n_records=n), seed=seed)]


def one_hot(bucket: int) -> list[float]:
    vec = np.zeros(rt.EMBED_DIM)
    vec[bucket] = 1.0
    return [float(x) for x in vec]


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


# --- endpoint text embedder ---------------------------------------------------------


def test_endpoint_embedder_normalizes_and_posts():
    with LoopbackEndpoint({"vectors": [[3.0, 4.0], [0.0, 2.0]]}) as server:
        out = rt.EndpointTextEmbedder(server.url, token="tok").embed(["a", "b"])
    [(path, headers, body)] = server.received
    assert path == "/v1"
    assert body == {"texts": ["a", "b"]}
    assert headers["Authorization"] == "Bearer tok"
    assert headers["Content-Type"] == "application/json"
    assert np.allclose(out, [[0.6, 0.8], [0.0, 1.0]])


def test_endpoint_embedder_sends_no_authorization_without_token():
    with LoopbackEndpoint({"vectors": [[1.0]]}) as server:
        rt.EndpointTextEmbedder(server.url).embed(["a"])
    assert "Authorization" not in server.received[0][1]


def test_endpoint_embedder_connection_error():
    with pytest.raises(EmbedderUnavailable):
        rt.EndpointTextEmbedder(closed_port_url()).embed(["a"])


@pytest.mark.parametrize(
    "url", ['data:,{"vectors": [[1.0]]}', "file:///dev/null", "embed.local/v1"]
)
def test_endpoint_embedder_refuses_urls_that_are_not_http(url):
    with pytest.raises(EmbedderUnavailable):
        rt.EndpointTextEmbedder(url).embed(["a"])


def test_endpoint_embedder_bad_payload():
    with LoopbackEndpoint({"wrong_key": []}) as server:
        with pytest.raises(EmbedderUnavailable):
            rt.EndpointTextEmbedder(server.url).embed(["a"])


def test_endpoint_embedder_wrong_row_count():
    with LoopbackEndpoint({"vectors": [[1.0, 0.0]]}) as server:
        with pytest.raises(EmbedderUnavailable):
            rt.EndpointTextEmbedder(server.url).embed(["a", "b"])


@pytest.mark.parametrize(
    "reply",
    [
        Reply({"vectors": [[1.0], [1.0, 2.0]]}),  # ragged
        Reply({"vectors": [[1.0, "2"], [1.0, 2.0]]}),
        Reply({"vectors": [[True, 2.0], [1.0, 2.0]]}),
        Reply({"vectors": [[], []]}),
        Reply({"vectors": [1.0, 2.0]}),
        Reply({"vectors": "[[1.0], [2.0]]"}),
        Reply({"vectors": [[10**400], [1.0]]}),
        Reply(b'{"vectors": [[NaN], [1.0]]}'),
        Reply(b'{"vectors": [[1e400], [1.0]]}'),
        Reply([[1.0], [2.0]]),  # not an object
        Reply(b"not json"),
        Reply(b'{"vectors": [[1.0], [2.0]]'),  # truncated
        Reply(b'\xff{"vectors": [[1.0], [2.0]]}'),  # not UTF-8
        Reply({"vectors": [[1.0], [2.0]]}, status=500),
    ],
    ids=[
        "ragged", "string", "bool", "empty-rows", "flat", "string-vectors", "huge-int",
        "nan", "overflow", "list-body", "not-json", "truncated", "bad-utf8", "http-500",
    ],
)
def test_endpoint_embedder_rejects_malformed_replies_in_one_attempt(reply):
    with LoopbackEndpoint(reply) as server:
        with pytest.raises(EmbedderUnavailable):
            rt.EndpointTextEmbedder(server.url).embed(["a", "b"])
    assert len(server.received) == 1


def test_endpoint_embedder_gives_up_at_its_timeout():
    with LoopbackEndpoint(Reply({"vectors": [[1.0]]}, delay=5.0)) as server:
        started = time.perf_counter()
        with pytest.raises(EmbedderUnavailable):
            rt.EndpointTextEmbedder(server.url, timeout=0.2).embed(["a"])
        assert time.perf_counter() - started < 4.0


def test_get_text_embedder_env_selection(monkeypatch):
    monkeypatch.delenv(rt.EMBED_URL_VAR, raising=False)
    assert isinstance(rt.get_text_embedder(), rt.BuiltinTextEmbedder)
    monkeypatch.setenv(rt.EMBED_URL_VAR, "http://embed.local/v1")
    monkeypatch.setenv(rt.EMBED_TOKEN_VAR, "sekrit")
    embedder = rt.get_text_embedder()
    assert isinstance(embedder, rt.EndpointTextEmbedder)
    assert embedder.url == "http://embed.local/v1"
    assert embedder.token == "sekrit"


# --- structure embedding -------------------------------------------------------------


def test_embed_structure_single_node_matches_plain_projection():
    # with one node the neighbourhood is the node itself, so attention must
    # collapse and the result is just two projected/squashed rounds, normalized
    g = ProcessGraph(record_id="solo")
    g.material_entities.append(EntityNode(id="m0", label="lithium", kind="material"))
    got = rt.embed_structure(g, seed=13)

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
    assert np.allclose(rt.embed_structure(g), rt.embed_structure(twin), atol=1e-9)


def test_embed_structure_deterministic_and_unit_norm():
    for g in small_corpus(n=6):
        first = rt.embed_structure(g)
        second = rt.embed_structure(g)
        assert np.array_equal(first, second)
        assert np.linalg.norm(first) == pytest.approx(1.0, abs=1e-9)


def test_embed_structure_seed_changes_vector():
    g = chain_graph(["ball milling", "sintering"])
    assert not np.allclose(rt.embed_structure(g, seed=13), rt.embed_structure(g, seed=14))


def test_embed_structure_empty_graph_is_zero():
    assert np.all(rt.embed_structure(ProcessGraph(record_id="void")) == 0.0)


def test_embed_structure_structure_sensitive():
    # same node labels, different wiring -> different embedding
    a = chain_graph(["mixing", "sintering"], precursors=("x", "y"))
    b = chain_graph(["sintering", "mixing"], precursors=("x", "y"))
    assert not np.allclose(rt.embed_structure(a), rt.embed_structure(b))


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
    # orthogonal hand-chosen view vectors make every cosine either 0 or 1
    memory = dataclasses.replace(build_memory(graphs), vectors={
        "text": np.array([one_hot(0), one_hot(1), one_hot(2)]),
        "struct": np.array([one_hot(3), one_hot(4), one_hot(5)])})
    query = rt.RetrievalQuery(
        summary=summary(["mill"], ["x"]),
        text_vec=np.asarray(one_hot(1)),
        struct_vec=np.asarray(one_hot(5)),
    )
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
    memory = rt.attach_embeddings(build_memory(corpus), corpus)
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
    query = rt.RetrievalQuery(summary=memory.by_graph_id["g2"])
    results = rt.retrieve(query, memory, weights=rt.RetrievalWeights(0.0, 0.0, 1.0), k=2)
    assert results[0].graph_id == "g2"
    assert results[0].s_ret == pytest.approx(1.0, abs=1e-12)


def test_retrieve_self_match_default_weights_builtin_embedders():
    corpus = small_corpus(n=10)
    memory = rt.attach_embeddings(build_memory(corpus), corpus)
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
    memory = rt.attach_embeddings(build_memory(corpus), corpus)
    query = rt.RetrievalQuery(
        summary=memory.by_graph_id[corpus[0].record_id],
        text=linearize_process(memory, corpus[0].record_id),
        context_graph=corpus[0],
    )
    assert len(rt.retrieve(query, memory)) == 8  # default k over 12 candidates
    small = rt.attach_embeddings(build_memory(corpus[:3]), corpus[:3])
    assert len(rt.retrieve(query, small)) == 3


def test_retrieve_ties_break_by_graph_id():
    graphs = [
        compiled(chain_graph(["mill", "sinter"], record_id="gb")),
        compiled(chain_graph(["mill", "sinter"], record_id="ga")),
    ]
    memory = rt.attach_embeddings(build_memory(graphs), graphs)
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
    memory = rt.attach_embeddings(build_memory(corpus), corpus)
    query = rt.RetrievalQuery(
        summary=memory.by_graph_id[corpus[3].record_id],
        text=linearize_process(memory, corpus[3].record_id),
        context_graph=corpus[3],
    )
    first = [r.to_dict() for r in rt.retrieve(query, memory)]
    second = [r.to_dict() for r in rt.retrieve(query, memory)]
    assert first == second


def test_retrieve_derives_missing_text_vectors_without_storing_them():
    graphs = [compiled(chain_graph(["mill"], record_id="ga")),
              compiled(chain_graph(["sinter"], record_id="gb"))]
    memory = build_memory(graphs)  # no attach_embeddings on purpose
    query = rt.RetrievalQuery(summary=summary(["mill"], ["lithium carbonate"]),
                              text=linearize_process(memory, "ga"))
    results = rt.retrieve(query, memory, k=2)
    assert results[0].graph_id == "ga"
    index = memory.dense_index
    for gid in ("ga", "gb"):
        derived = rt.BuiltinTextEmbedder().embed([linearize_process(memory, gid)])[0]
        assert np.array_equal(rt.text_vector(memory, gid), derived)
        assert np.array_equal(index.text[index.rows[gid]], derived)
    assert memory.vectors == {}  # retrieval never writes to the memory


# --- dense index against the per-pair reference ------------------------------------------


def reference_retrieve(query, memory, weights, k):
    """The per-process scoring loop the dense index replaced, kept as the oracle."""
    if query.text_vec is None:
        query.text_vec = rt.BuiltinTextEmbedder().embed([query.text])[0]
    if query.struct_vec is None and query.context_graph is not None:
        query.struct_vec = rt.embed_structure(query.context_graph)
    results = []
    for p in memory.processes:
        s_text = rt.cos_to_unit(rt.cosine(query.text_vec, rt.text_vector(memory, p.graph_id)))
        stored = memory.vectors.get("struct")
        if stored is not None and query.struct_vec is not None:
            row = [q.graph_id for q in memory.processes].index(p.graph_id)
            s_struct = rt.cos_to_unit(rt.cosine(query.struct_vec, stored[row]))
        else:
            s_struct = 0.5
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


def memory_variant(corpus, variant):
    memory = build_memory(corpus)
    if variant == "no_vectors":
        return memory
    memory = rt.attach_embeddings(memory, corpus)
    if variant == "text_only":
        memory = dataclasses.replace(memory, vectors={"text": memory.vectors["text"]})
    return memory


def equivalence_queries(corpus):
    """Two items of every task, plus one query without a context graph (its
    structure view is neutral), with their vectors computed once."""
    items, _ = generate_benchmark(corpus, seed=5)
    per_task = {}
    for item in items:
        per_task.setdefault(item.task, []).append(item)
    queries = [rt.query_from_item(it) for task in sorted(per_task) for it in per_task[task][:2]]
    queries.append(rt.RetrievalQuery(summary=summary(["mill"], ["x"]), text="route: mill"))
    for q in queries:
        q.text_vec = rt.BuiltinTextEmbedder().embed([q.text])[0]
        if q.context_graph is not None:
            q.struct_vec = rt.embed_structure(q.context_graph)
    return queries


@pytest.mark.parametrize("variant", ["full", "text_only", "no_vectors"])
def test_dense_retrieve_equals_per_pair_reference(variant):
    corpus = equivalence_corpus()
    memory = memory_variant(corpus, variant)
    oracle_memory = copy.deepcopy(memory)
    n = len(memory.processes)
    for query in equivalence_queries(corpus):
        for weights in ALL_WEIGHTS:
            want = [r.to_dict() for r in reference_retrieve(query, oracle_memory, weights, n)]
            for k in (1, 8, n + 3):
                got = [r.to_dict() for r in rt.retrieve(query, memory, weights, k=k)]
                assert got == want[:k], (variant, weights, k)  # == on every float
    if variant == "no_vectors":  # neither side stored the vectors it derived
        assert memory.vectors == oracle_memory.vectors == {}


def test_reused_query_scores_each_view_once_per_index(monkeypatch):
    corpus = equivalence_corpus()
    memory = memory_variant(corpus, "full")
    smaller = memory_variant(corpus[:12], "full")
    query = equivalence_queries(corpus)[0]
    fresh = copy.deepcopy(query)
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


def test_attach_embeddings_returns_a_new_memory_with_its_own_index():
    corpus = small_corpus(n=8)
    memory = build_memory(corpus)
    first = memory.dense_index
    assert memory.dense_index is first
    embedded = rt.attach_embeddings(memory, corpus)
    assert memory.dense_index is first and memory.vectors == {}
    second = embedded.dense_index
    assert second is not first
    for kind, matrix in (("text", second.text), ("struct", second.struct)):
        assert np.shares_memory(matrix, embedded.vectors[kind])


@pytest.mark.parametrize("copier", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                         ids=["deepcopy", "pickle"])
def test_a_copied_memory_retrieves_as_the_original(copier):
    corpus = small_corpus(n=9)
    memory = rt.attach_embeddings(build_memory(corpus), corpus)
    query = rt.RetrievalQuery(
        summary=memory.by_graph_id[corpus[3].record_id],
        text=linearize_process(memory, corpus[3].record_id),
        context_graph=corpus[3],
    )
    want = [r.to_dict() for r in rt.retrieve(query, memory)]  # builds the index
    copied = copier(memory)
    assert [r.to_dict() for r in rt.retrieve(copy.deepcopy(query), copied)] == want


def _built_and_loaded(tmp_path):
    """A memory with vectors from attach_embeddings, and the same memory
    saved and loaded."""
    corpus = small_corpus(n=12)
    built = rt.attach_embeddings(build_memory(corpus), corpus)
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
    w = rt._frozen_projection(13, 0)
    assert rt._frozen_projection(13, 0) is w
    assert rt._frozen_projection(13, 1) is not w
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
    memory = rt.attach_embeddings(build_memory(corpus), corpus)
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
    with pytest.raises(DataError, match=repr(corpus[2].record_id)):
        rt.attach_embeddings(memory, corpus[:2] + corpus[3:])
    assert memory.vectors == {}


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
    by_id = g.entity_by_id()
    for pos, step in enumerate(item.question.steps):
        act = g.activities[pos]
        assert sorted(by_id[e].label for e in g.used_by(act.id)) == sorted(set(step.inputs))
        assert sorted(by_id[e].label for e in g.generated_by(act.id)) == sorted(set(step.outputs))


def test_query_retrieval_end_to_end_over_items():
    corpus = small_corpus(n=25, seed=9)
    memory = rt.attach_embeddings(build_memory(corpus), corpus)
    items, _ = generate_benchmark(corpus, seed=5)
    for item in items[:40]:
        results = rt.retrieve(rt.query_from_item(item), memory)
        assert len(results) == 8
        assert all(0.0 <= r.s_ret <= 1.0 for r in results)
