"""Analogous-process retrieval over three fused views.

s_ret(q, p) = alpha * s_text + beta * s_struct + gamma * s_heur, with
cosine views affinely mapped from [-1, 1] onto [0, 1] so the weights act
on commensurate ranges. The text view embeds linearized process
descriptions (built-in hashed character n-grams, or an external endpoint
when configured); the structure view propagates label features through a
frozen, seed-derived attention encoder over the provenance graph; the
heuristic view averages activity overlap, route-length agreement and
precursor correspondence. Retrieval scores every stored process in one
pass over a per-memory dense index whose values equal the per-pair
formulas to the last bit.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .canon import canon_label, derive_seed
from .endpoint import post_json
from .errors import (DataError, EmbedderUnavailable, EmbeddingDimensionMismatch, EmptyMemory,
                     InvalidParams)
from .jsonio import Record
from .memory import (
    LabelSets,
    ProcessMemory,
    ProcessSummary,
    frozen_array,
    jaccard,
    linearize_parts,
    linearize_process,
)
from .provgraph import ProcessGraph
from .taskgen import MASK_TOKEN, BenchItem
from .taskgen.model import RouteQuestion, StepQuestion

EMBED_DIM = 512
NGRAM_SIZES = (3, 4, 5)
DEFAULT_STRUCT_SEED = 13
DEFAULT_TOP_K = 8

EMBED_URL_VAR = "MATPROC_EMBED_URL"
EMBED_TOKEN_VAR = "MATPROC_EMBED_TOKEN"


# --- weights ---------------------------------------------------------------------

@dataclass(frozen=True)
class RetrievalWeights(Record):
    alpha: float = 0.4  # text
    beta: float = 0.3  # structure
    gamma: float = 0.3  # heuristic

    def __post_init__(self):
        for w in (self.alpha, self.beta, self.gamma):
            if w < 0:
                raise InvalidParams("retrieval weights must be non-negative")
        if abs(self.alpha + self.beta + self.gamma - 1.0) > 1e-9:
            raise InvalidParams("retrieval weights must sum to 1")

    @classmethod
    def for_views(cls, views) -> "RetrievalWeights":
        """Default weights restricted to a view subset and renormalized."""
        default = cls()
        base = {"text": default.alpha, "structure": default.beta, "heuristic": default.gamma}
        unknown = set(views) - set(base)
        if unknown:
            raise InvalidParams(f"unknown retrieval views: {sorted(unknown)}")
        if not views:
            raise InvalidParams("at least one retrieval view required")
        kept = {name: (base[name] if name in views else 0.0) for name in base}
        total = sum(kept.values())
        return cls(
            alpha=kept["text"] / total,
            beta=kept["structure"] / total,
            gamma=kept["heuristic"] / total,
        )


@dataclass
class RetrievedPrecedent(Record):
    graph_id: str
    s_text: float
    s_struct: float
    s_heur: float
    s_ret: float


# --- text embedding ----------------------------------------------------------------

@functools.lru_cache(maxsize=1 << 16)
def _gram_bucket(gram: str, dim: int) -> int:
    return int.from_bytes(hashlib.blake2b(gram.encode("utf-8"), digest_size=4).digest(), "big") % dim


class BuiltinTextEmbedder:
    """Hashed character n-gram frequencies; deterministic, no network."""

    dim = EMBED_DIM

    def embed(self, texts: list[str]) -> np.ndarray:
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        for row, text in enumerate(texts):
            buckets = [
                _gram_bucket(text[i : i + n], self.dim)
                for n in NGRAM_SIZES
                for i in range(max(0, len(text) - n + 1))
            ]
            out[row] = np.bincount(buckets, minlength=self.dim)
        return _normalize_rows(out)


class EndpointTextEmbedder:
    """POST {"texts": [...]} -> {"vectors": [[...], ...]}."""

    def __init__(self, url: str, token: str | None = None, timeout: float = 30.0):
        self.url = url
        self.token = token
        self.timeout = timeout

    def embed(self, texts: list[str]) -> np.ndarray:
        vectors = post_json(
            self.url, {"texts": texts}, self.token, self.timeout, 1, EmbedderUnavailable,
            lambda body: _endpoint_vectors(body, len(texts)),
        )
        return _normalize_rows(vectors)


def _endpoint_vectors(body: dict, n_texts: int) -> np.ndarray:
    """The body's ``vectors`` as an (n_texts, d) array of finite floats, d > 0."""
    rows = body.get("vectors")
    if not (
        isinstance(rows, list)
        and len(rows) == n_texts
        and all(isinstance(row, list) and row and len(row) == len(rows[0]) for row in rows)
        and all(type(x) in (int, float) for row in rows for x in row)
    ):
        raise ValueError(f"'vectors' must be {n_texts} numeric rows of one non-zero length")
    try:
        array = np.array(rows, dtype=np.float64).reshape(n_texts, -1)
    except OverflowError as exc:  # an int beyond the float range
        raise ValueError(f"'vectors': {exc}") from exc
    if not np.isfinite(array).all():
        raise ValueError("'vectors' holds a non-finite value")
    return array


def get_text_embedder(url: str | None = None, token: str | None = None):
    """Endpoint embedder when configured, built-in otherwise."""
    url = url if url is not None else os.environ.get(EMBED_URL_VAR, "")
    token = token if token is not None else os.environ.get(EMBED_TOKEN_VAR) or None
    return EndpointTextEmbedder(url, token) if url else BuiltinTextEmbedder()


def _normalize_rows(array: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(array, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return array / safe


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    # clip so downstream [0,1] mappings cannot drift out of range on fp noise
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def cos_to_unit(c: float) -> float:
    return (c + 1.0) / 2.0


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(row)`` for every row, to the last bit."""
    # vecdot runs the same BLAS dot per row that np.dot and the 1-D norm
    # run, so it matches the per-pair calls exactly; ``@`` (gemv) sums in
    # another order and can move the last bit
    return np.sqrt(np.vecdot(matrix, matrix))


def unit_cosines(vecs: np.ndarray, matrix: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """``cos_to_unit(cosine(v, row))`` for each row of ``matrix`` (with
    ``norms`` its row norms): one value per row for a 1-D ``vecs``, one row
    of values per vector for a 2-D ``vecs``. Every value is the float the
    per-pair call returns."""
    vecs = np.ascontiguousarray(vecs, dtype=np.float64)
    dots = np.vecdot(vecs[..., None, :], matrix)
    vec_norms = _row_norms(vecs)[..., None]
    cos = np.zeros(dots.shape)
    np.divide(dots, vec_norms * norms, out=cos, where=(vec_norms != 0.0) & (norms != 0.0))
    return (np.clip(cos, -1.0, 1.0) + 1.0) / 2.0


# --- structure embedding -------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _frozen_projection(seed: int, round_index: int) -> np.ndarray:
    rng = np.random.default_rng(derive_seed(seed, "round", round_index))
    w = rng.normal(0.0, 1.0 / np.sqrt(EMBED_DIM), size=(EMBED_DIM, EMBED_DIM))
    w.setflags(write=False)  # shared by every caller
    return w


def embed_structure(g: ProcessGraph, seed: int = DEFAULT_STRUCT_SEED) -> np.ndarray:
    """Two rounds of attention-weighted aggregation with frozen weights.

    Node features are built-in text embeddings of node labels; edges are
    the undirected union of usage and generation links; each round
    projects, attends over the closed neighbourhood, and squashes. The
    result depends only on the labelled structure, never on node order.
    """
    nodes = [*g.entities(), *g.activities]
    if not nodes:
        return np.zeros(EMBED_DIM, dtype=np.float64)
    index = {node.id: i for i, node in enumerate(nodes)}
    feats = BuiltinTextEmbedder().embed([canon_label(n.label) for n in nodes])

    neighbours: list[set[int]] = [{i} for i in range(len(nodes))]
    for src, dst in [*g.usage_edges, *g.generation_edges]:
        if src in index and dst in index:
            neighbours[index[src]].add(index[dst])
            neighbours[index[dst]].add(index[src])

    h = feats
    for round_index in range(2):
        w = _frozen_projection(seed, round_index)
        z = h @ w.T
        nxt = np.empty_like(z)
        for i, nbrs in enumerate(neighbours):
            idx = sorted(nbrs)
            scores = z[idx] @ z[i] / np.sqrt(EMBED_DIM)
            scores -= scores.max()
            att = np.exp(scores)
            att /= att.sum()
            nxt[i] = np.tanh(att @ z[idx])
        h = nxt

    pooled = h.mean(axis=0)
    norm = np.linalg.norm(pooled)
    return pooled / norm if norm > 0 else pooled


# --- heuristic view ---------------------------------------------------------------

def score_heuristic(q: ProcessSummary, p: ProcessSummary) -> float:
    """Mean of activity Jaccard, length agreement, precursor Jaccard."""
    activity = jaccard(q.route, p.route)
    lq, lp = q.route_length, p.route_length
    length = 1.0 if lq == lp == 0 else min(lq, lp) / max(lq, lp)
    precursor = jaccard(q.precursors, p.precursors)
    return (activity + length + precursor) / 3.0


# --- queries ----------------------------------------------------------------------

@dataclass
class RetrievalQuery:
    """One query process. :func:`retrieve` fills the vector fields and
    ``view_scores`` on first use, so a query answered under several weight
    settings scores each view once; treat a query as read-only after that."""

    summary: ProcessSummary
    text: str = ""
    context_graph: ProcessGraph | None = None
    text_vec: np.ndarray | None = None
    struct_vec: np.ndarray | None = None
    # view name -> (the DenseIndex it was scored on, the score of every process)
    view_scores: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def query_from_item(item: BenchItem) -> RetrievalQuery:
    """Build the query process context from the visible payload only."""
    q = item.question
    precursors, product = (list(q.precursors), q.product) if isinstance(q, RouteQuestion) else ([], "")
    if item.task == "A1_route_retrieval":
        visible: list[str] = []
    elif item.task == "A2_missing_step":
        visible = [x for x in q.route_with_mask if x != MASK_TOKEN]
    elif item.task == "A3_next_activity":
        visible = list(q.prefix)
    elif item.task == "D_process_ordering":
        visible = sorted(s.label for s in q.steps)
    else:  # B1 / B2 / C1 carry the full route
        visible = list(q.route)

    summary = ProcessSummary(
        graph_id=f"query:{item.item_id}",
        route=visible,
        precursors=precursors,
        products=[product] if product else [],
        tools=[],
    )
    text = linearize_parts(
        precursors=precursors,
        route_text=" -> ".join(visible),
        products=summary.products,
    )
    context_graph = _context_graph(item, visible, precursors, product)
    return RetrievalQuery(summary=summary, text=text, context_graph=context_graph)


def _context_graph(item: BenchItem, visible: list[str], precursors: list[str], product: str) -> ProcessGraph:
    """Minimal provenance graph over the visible payload; ``visible`` is the
    query's visible route, which an ordering item's steps replace."""
    from .provgraph import ActivityNode, EntityNode  # local: avoid wide import surface

    q = item.question
    g = ProcessGraph(record_id=f"query:{item.item_id}")
    eid = 0

    def add_material(label: str) -> str:
        nonlocal eid
        node_id = f"qe{eid}"
        eid += 1
        g.material_entities.append(EntityNode(id=node_id, label=label, kind="material"))
        return node_id

    if item.task == "D_process_ordering":
        by_label: dict[str, str] = {}
        for pos, step in enumerate(q.steps):
            act_id = f"qa{pos}"
            g.activities.append(ActivityNode(id=act_id, label=step.label, source_position=pos))
            for label in step.inputs:
                if label not in by_label:
                    by_label[label] = add_material(label)
                edge = (by_label[label], act_id)
                if edge not in g.usage_edges:
                    g.usage_edges.append(edge)
            for label in step.outputs:
                if label not in by_label:
                    by_label[label] = add_material(label)
                edge = (act_id, by_label[label])
                if edge not in g.generation_edges:
                    g.generation_edges.append(edge)
        return g

    named: dict[str, str] = {}

    def material(label: str) -> str:
        if label not in named:
            named[label] = add_material(label)
        return named[label]

    previous: str | None = None
    for pos, label in enumerate(visible):
        act_id = f"qa{pos}"
        g.activities.append(ActivityNode(id=act_id, label=label, source_position=pos))
        if pos == 0:
            for pre in precursors:
                g.usage_edges.append((material(pre), act_id))
        if previous is not None:
            link = add_material("intermediate")  # fresh node per hand-off
            g.generation_edges.append((previous, link))
            g.usage_edges.append((link, act_id))
        previous = act_id
    if previous is not None and product:
        g.generation_edges.append((previous, material(product)))
    elif previous is None:
        for pre in precursors:
            material(pre)
        if product:
            material(product)
    if isinstance(q, StepQuestion):  # its route is ``visible``, so step_index names an activity
        target = g.activities[q.step_index].id
        for label in q.step_inputs:
            node_id = material(label)
            if (node_id, target) not in g.usage_edges:
                g.usage_edges.append((node_id, target))
    return g


# --- memory-side embeddings -----------------------------------------------------------

def attach_embeddings(
    memory: ProcessMemory,
    graphs: list[ProcessGraph],
    struct_seed: int = DEFAULT_STRUCT_SEED,
    text_embedder=None,
) -> ProcessMemory:
    """A copy of ``memory`` that stores the text and struct vectors of every
    process in ``vectors``: one read-only matrix per kind, row i for process
    i, which the dense index scores as it is. ``memory`` is left as it is.
    Raises :class:`DataError` when a process has no graph in ``graphs``."""
    graphs_by_id = {g.record_id: g for g in graphs}
    ids = [p.graph_id for p in memory.processes]
    missing = [gid for gid in ids if gid not in graphs_by_id]
    if missing:
        raise DataError(f"no graph given for memory process {missing[0]!r}"
                        f" ({len(missing)} of {len(ids)} processes lack one)")
    embedder = text_embedder or BuiltinTextEmbedder()
    text = frozen_array(embedder.embed([linearize_process(memory, gid) for gid in ids]))
    struct = np.empty((len(ids), EMBED_DIM), dtype=np.float64)
    for row, gid in enumerate(ids):
        struct[row] = embed_structure(graphs_by_id[gid], seed=struct_seed)
    struct.setflags(write=False)
    return replace(memory, vectors={"text": text, "struct": struct})


def text_vector(memory: ProcessMemory, graph_id: str) -> np.ndarray:
    """Stored text vector for one process; the built-in embedding of its
    linearized text when none is stored. Never writes to the memory."""
    stored = memory.vectors.get("text")
    if stored is None:
        return BuiltinTextEmbedder().embed([linearize_process(memory, graph_id)])[0]
    return stored[[p.graph_id for p in memory.processes].index(graph_id)]


# --- dense index -----------------------------------------------------------------------


@dataclass(frozen=True)
class DenseIndex:
    """Every stored process as one row of dense arrays, in memory order: an
    exact flat index (no approximation) that scores a query against all
    processes in one pass."""

    graph_ids: list[str]
    rows: dict[str, int]  # graph_id -> row
    id_rank: np.ndarray  # rank of each graph_id in sorted order, for tie-breaks
    text: np.ndarray  # (N, EMBED_DIM)
    text_norm: np.ndarray
    struct: np.ndarray  # (N, EMBED_DIM), all zero when the memory stores none
    struct_norm: np.ndarray
    routes: LabelSets
    precursors: LabelSets
    route_length: np.ndarray

    def heuristic(self, q: ProcessSummary) -> np.ndarray:
        """:func:`score_heuristic` of ``q`` against every process."""
        activity = self.routes.jaccard(q.route)
        lo = np.minimum(q.route_length, self.route_length)
        hi = np.maximum(q.route_length, self.route_length)
        length = np.ones(len(hi))  # two empty routes agree
        np.divide(lo, hi, out=length, where=hi > 0)
        precursor = self.precursors.jaccard(q.precursors)
        return (activity + length + precursor) / 3.0


def _vectors(memory: ProcessMemory, kind: str) -> np.ndarray | None:
    """The memory's stored ``kind`` matrix as float64 (not copied when it
    is float64 already), checked to hold one ``EMBED_DIM``-wide row per
    process; None when the kind is not stored."""
    if kind not in memory.vectors:
        return None
    matrix = np.asarray(memory.vectors[kind], dtype=np.float64)
    if matrix.ndim != 2 or len(matrix) != len(memory.processes):
        raise DataError(f"stored {kind} vectors of shape {matrix.shape} for"
                        f" {len(memory.processes)} memory processes: one row per process expected")
    if matrix.shape[1] != EMBED_DIM:
        raise EmbeddingDimensionMismatch(
            f"each stored {kind} vector has {matrix.shape[1]} dimensions,"
            f" the query side embeds in {EMBED_DIM}"
        )
    return matrix


def build_dense_index(memory: ProcessMemory) -> DenseIndex:
    """The memory's dense index; read it as ``memory.dense_index``, which
    builds it once.

    Without stored text vectors each process gets the row
    :func:`text_vector` derives for it, and without stored struct vectors a
    zero row. Building raises
    :class:`EmbeddingDimensionMismatch` for stored vectors whose width is
    not ``EMBED_DIM``, and :class:`DataError` for a stored matrix without
    one row per process.
    """
    ids = [p.graph_id for p in memory.processes]
    text = _vectors(memory, "text")
    if text is None:
        text = BuiltinTextEmbedder().embed([linearize_process(memory, gid) for gid in ids])
    struct = _vectors(memory, "struct")
    if struct is None:
        struct = np.zeros((len(ids), EMBED_DIM), dtype=np.float64)
    rank = {gid: i for i, gid in enumerate(sorted(set(ids)))}
    return DenseIndex(
        graph_ids=ids,
        rows={gid: row for row, gid in enumerate(ids)},
        id_rank=np.array([rank[gid] for gid in ids], dtype=np.int64),
        text=text,
        text_norm=_row_norms(text),
        struct=struct,
        struct_norm=_row_norms(struct),
        routes=LabelSets(p.route for p in memory.processes),
        precursors=LabelSets(p.precursors for p in memory.processes),
        route_length=np.array([p.route_length for p in memory.processes], dtype=np.int64),
    )


# --- fusion -----------------------------------------------------------------------

def retrieve(
    query: RetrievalQuery,
    memory: ProcessMemory,
    weights: RetrievalWeights = RetrievalWeights(),
    k: int = DEFAULT_TOP_K,
) -> list[RetrievedPrecedent]:
    """Exhaustive scan, descending s_ret, ties by ascending graph_id.

    Every process is scored in one pass over the memory's :class:`DenseIndex`;
    each score is the float the per-process formula gives. Every view is
    scored once per query and index, whatever its weight, so a query
    retrieved again under other weights or another ``k`` only re-fuses.
    """
    if not memory.processes:
        raise EmptyMemory("retrieval requested against an empty memory")
    if k < 1:
        raise InvalidParams("k must be >= 1")
    index = memory.dense_index

    def view(name, score):
        hit = query.view_scores.get(name)
        if hit is None or hit[0] is not index:
            hit = query.view_scores[name] = (index, score())
        return hit[1]

    def text_view():
        if query.text_vec is None:
            query.text_vec = BuiltinTextEmbedder().embed([query.text])[0]
        return unit_cosines(query.text_vec, index.text, index.text_norm)

    def struct_view():
        if query.struct_vec is None and query.context_graph is not None:
            query.struct_vec = embed_structure(query.context_graph)
        if query.struct_vec is None:
            # neutral 0.5 when the query has no structure view; a process
            # without one is a zero row, whose cosine maps to 0.5 as well
            return np.full(len(index.graph_ids), 0.5)
        return unit_cosines(query.struct_vec, index.struct, index.struct_norm)

    s_text = view("text", text_view)
    s_struct = view("structure", struct_view)
    s_heur = view("heuristic", lambda: index.heuristic(query.summary))
    s_ret = weights.alpha * s_text + weights.beta * s_struct + weights.gamma * s_heur
    top = np.lexsort((index.id_rank, -s_ret))[:k]
    return [
        RetrievedPrecedent(
            graph_id=index.graph_ids[i],
            s_text=float(s_text[i]),
            s_struct=float(s_struct[i]),
            s_heur=float(s_heur[i]),
            s_ret=float(s_ret[i]),
        )
        for i in top
    ]
