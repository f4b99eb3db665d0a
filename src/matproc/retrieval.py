"""Analogous-process retrieval over three fused views.

s_ret(q, p) = alpha * s_text + beta * s_struct + gamma * s_heur, with
cosine views affinely mapped from [-1, 1] onto [0, 1] so the weights act
on commensurate ranges. Memory and query embed in one space: the text
view embeds linearized process descriptions as built-in hashed character
n-grams; the structure view propagates label features through a frozen
attention encoder of one seed (``STRUCT_SEED``) over the provenance graph,
one batched path for graphs of every size (short products padded); the
heuristic view averages activity overlap, route-length agreement and
precursor correspondence. Retrieval scores every stored process in one
pass over a per-memory dense index whose values equal the per-pair
formulas to the last bit. Every query is scored on one path, as a row of
a query block: a query built alone is a block of one, and a query
without a context graph enters it as the empty graph, whose zero
structure vector scores 0.5 on every process.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .canon import canon_label, derive_seed
from .errors import DataError, EmbeddingDimensionMismatch, EmptyMemory, InvalidParams
from .jsonio import Record, check_ranges, knob
from .memory import (
    LabelSets,
    ProcessMemory,
    ProcessSummary,
    frozen_array,
    jaccard,
    linearize_parts,
    linearize_process,
    sorted_ranks,
)
from .provgraph import ActivityNode, EntityNode, ProcessGraph
from .taskgen import MASK_TOKEN, BenchItem
from .taskgen.model import RouteQuestion, StepQuestion

EMBED_DIM = 512
NGRAM_SIZES = (3, 4, 5)
STRUCT_SEED = 13  # the structure encoder's one seed, on the build and the query side
DEFAULT_TOP_K = 8


# --- weights ---------------------------------------------------------------------

@dataclass(frozen=True)
class RetrievalWeights(Record):
    alpha: float = knob(0.4, "[0, inf)")  # text
    beta: float = knob(0.3, "[0, inf)")  # structure
    gamma: float = knob(0.3, "[0, inf)")  # heuristic

    def __post_init__(self):
        check_ranges(self)
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


# n-grams per batch of the builtin embedder, which bounds the memory a call
# holds at once however many texts it embeds
_BATCH_GRAMS = 1 << 14


class BuiltinTextEmbedder:
    """Hashed character n-gram frequencies; deterministic, no network."""

    dim = EMBED_DIM

    def embed(self, texts: list[str]) -> np.ndarray:
        """One unit row per text (a zero row for a text shorter than every
        n-gram). The texts go in batches of at most ``_BATCH_GRAMS``
        n-grams (a longer text alone), counted by (row, bucket) cell;
        counts are integers, so every row is the row of its text embedded
        alone."""
        out = np.empty((len(texts), self.dim), dtype=np.float64)
        sizes = [sum(max(0, len(text) - n + 1) for n in NGRAM_SIZES) for text in texts]
        for start, stop in _batches(sizes, _BATCH_GRAMS):
            self._embed_into(texts[start:stop], out[start:stop])
        return out

    def _embed_into(self, texts: list[str], out: np.ndarray) -> None:
        """Write the rows of ``texts`` into ``out``. Each n-gram gets an
        integer id, the rank of its (n-1)-gram's id and its last code
        point, so the distinct n-grams of a size come from one sort and
        only they are sliced out and hashed."""
        joined = "".join(texts)
        codes = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), "<u4").astype(np.int64)
        lengths = np.fromiter(map(len, texts), np.int64, len(texts))
        rows = np.repeat(np.arange(len(texts)), lengths)  # the text of each character
        stops = np.repeat(np.cumsum(lengths), lengths)  # where that text ends
        out[:] = 0.0
        flat = out.reshape(-1)  # a view: ``out`` is a run of rows of a C-ordered array
        start, ids = np.arange(len(codes)), codes  # a 1-gram's id is its code point
        for n in range(2, max(NGRAM_SIZES) + 1):
            inside = start + n <= stops[start]  # the n-gram ends in its text
            start = start[inside]
            # ids and code points stay below 2**42 and 2**21, so keys fit in 63 bits
            keys = ids[inside] << 21 | codes[start + n - 1]
            _, first, ids = np.unique(keys, return_index=True, return_inverse=True)
            if n in NGRAM_SIZES:
                grams = (joined[i : i + n] for i in start[first].tolist())
                bucket = np.fromiter((_gram_bucket(gram, self.dim) for gram in grams), np.int64, len(first))
                flat += np.bincount(rows[start] * self.dim + bucket[ids], minlength=out.size)
        _normalize_rows(out)


def _batches(sizes: list[int], bound: int):
    """``(start, stop)`` runs of consecutive items whose sizes sum to at most
    ``bound``, an item larger than ``bound`` alone."""
    start = total = 0
    for i, size in enumerate(sizes):
        if total + size > bound and i > start:
            yield start, i
            start, total = i, 0
        total += size
    if start < len(sizes):
        yield start, len(sizes)


def _normalize_rows(array: np.ndarray) -> np.ndarray:
    """``array`` with each non-zero row scaled to unit norm, in place."""
    norms = np.linalg.norm(array, axis=1, keepdims=True)
    array /= np.where(norms == 0.0, 1.0, norms)
    return array


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

@functools.lru_cache(maxsize=2)
def _frozen_projection(round_index: int) -> np.ndarray:
    rng = np.random.default_rng(derive_seed(STRUCT_SEED, "round", round_index))
    w = rng.normal(0.0, 1.0 / np.sqrt(EMBED_DIM), size=(EMBED_DIM, EMBED_DIM))
    w.setflags(write=False)  # shared by every caller
    return w


def _neighbourhoods(g: ProcessGraph) -> tuple[list, list[list[int]]]:
    """The graph's nodes (entities, then activities) and each node's closed
    neighbourhood as ascending node indexes, over the undirected union of
    usage and generation links."""
    nodes = [*g.entities(), *g.activities]
    index = {node.id: i for i, node in enumerate(nodes)}
    neighbours: list[set[int]] = [{i} for i in range(len(nodes))]
    for src, dst in [*g.usage_edges, *g.generation_edges]:
        if src in index and dst in index:
            neighbours[index[src]].add(index[dst])
            neighbours[index[dst]].add(index[src])
    return nodes, [sorted(nbrs) for nbrs in neighbours]


# node rows per round-1 product; a chunk holds at most this many rows
# unless one graph alone has more
_CHUNK_ROWS = 96
# a product of fewer rows takes another BLAS path, whose row bits differ
_MIN_STACKED_ROWS = 3
# rows a label table first holds; pages of rows not yet written cost no memory
_TABLE_ROWS = 256


class StructureEncoder:
    """The table of projected round-0 rows of :func:`embed_structure`, one
    per distinct canonical label it has met: a run builds one and embeds all
    its graphs with it, so each label is embedded and projected once per
    run. Its lock lets threads share it."""

    def __init__(self):
        self.rows: dict[str, int] = {}  # canonical label -> its row in ``table``
        self.table = np.empty((0, EMBED_DIM), dtype=np.float64)  # rows past len(rows) unused
        self.lock = threading.Lock()

    def _add_labels(self, labels: list[str]) -> None:
        """Embed and project, as one batch, each of ``labels`` the table lacks."""
        new = [label for label in dict.fromkeys(labels) if label not in self.rows]
        if not new:
            return
        batch = [*new, *[""] * (_MIN_STACKED_ROWS - len(new))]  # "" embeds to a zero row
        used = len(self.rows)
        if used + len(batch) > len(self.table):  # grow the one buffer geometrically
            grown = np.empty((max(used + len(batch), 2 * len(self.table), _TABLE_ROWS), EMBED_DIM))
            grown[:used] = self.table[:used]
            self.table = grown
        # the product lands in the table; padding rows land past the labels'
        np.matmul(BuiltinTextEmbedder().embed(batch), _frozen_projection(0).T,
                  out=self.table[used : used + len(batch)])
        self.rows.update((label, used + i) for i, label in enumerate(new))


def embed_structure(graphs: list[ProcessGraph], encoder: StructureEncoder | None = None) -> np.ndarray:
    """The structure vector of each graph, one row per graph, embedded with
    ``encoder``'s label table (a fresh one when None).

    Two rounds of attention-weighted aggregation with frozen weights: node
    features are built-in text embeddings of canonical node labels; each
    round projects, attends over each node's closed neighbourhood in the
    undirected union of usage and generation links, and squashes; the node
    rows are mean-pooled to a unit vector (a zero row for a graph without
    nodes). Node ids never enter the arithmetic. The sums run in the order
    the graph lists its nodes, so listing the same structure in another
    order moves the vector by rounding only (at most 8.3e-17 per
    coordinate over the ``synth --n 200 --seed 11`` graphs).

    Graphs go in chunks of at most ``_CHUNK_ROWS`` node rows (or of one
    graph that alone has more): round 1 projects a chunk's rows in one
    product, and each round attends over them at once (:func:`_attend_all`).
    Fewer, larger chunks cost fewer numpy calls: at 96 rows rather than 24,
    the 500 graphs of ``synth --n 500 --seed 12`` took 0.14 s against
    0.22 s (2 CPUs, one BLAS thread), at the same 66 MB ``build-memory`` peak.

    Each graph gets the row it gets alone, whatever else the call or the
    table holds (``==``): BLAS computes each row of a product the same way
    whatever the number of rows, from ``_MIN_STACKED_ROWS`` rows up, so a
    product of fewer rows (a batch of few new labels, a chunk of one- and
    two-node graphs) is padded with zero rows.
    """
    encoder = encoder or StructureEncoder()
    out = np.zeros((len(graphs), EMBED_DIM), dtype=np.float64)
    embedded = []  # (row, labels, neighbours) of each graph with a node
    for row, g in enumerate(graphs):
        nodes, neighbours = _neighbourhoods(g)
        if nodes:
            embedded.append((row, [canon_label(n.label) for n in nodes], neighbours))
    with encoder.lock:
        encoder._add_labels([label for _, labels, _ in embedded for label in labels])
        chunk: list[tuple[int, list[int], list[list[int]]]] = []  # (row, table rows, neighbours)
        size = 0
        for row, labels, neighbours in embedded:
            if chunk and size + len(labels) > _CHUNK_ROWS:
                _embed_chunk(chunk, encoder, out)
                chunk, size = [], 0
            chunk.append((row, [encoder.rows[label] for label in labels], neighbours))
            size += len(labels)
        if chunk:
            _embed_chunk(chunk, encoder, out)
    return out


def _embed_chunk(chunk, encoder: StructureEncoder, out: np.ndarray) -> None:
    """Write the embedding of each ``(row, table rows, neighbours)`` graph of
    ``chunk`` into ``out[row]``."""
    spans = np.cumsum([0, *(len(ids) for _, ids, _ in chunk)])
    neighbours = [[start + j for j in idx]
                  for (_, _, graph_neighbours), start in zip(chunk, spans)
                  for idx in graph_neighbours]
    hidden = _attend_all(encoder.table[[i for _, ids, _ in chunk for i in ids]], neighbours)
    rows = len(hidden)
    if rows < _MIN_STACKED_ROWS:
        hidden = np.concatenate([hidden, np.zeros((_MIN_STACKED_ROWS - rows, EMBED_DIM))])
    z = (hidden @ _frozen_projection(1).T)[:rows]
    del hidden  # one chunk-sized array fewer while round 1 attends
    h = _attend_all(z, neighbours)
    for (row, _, _), start, stop in zip(chunk, spans, spans[1:]):  # mean-pool to a unit row
        pooled = h[start:stop].mean(axis=0)
        norm = np.linalg.norm(pooled)
        out[row] = pooled / norm if norm > 0 else pooled


def _attend_all(z: np.ndarray, neighbours: list[list[int]]) -> np.ndarray:
    """One round's attention over each node's closed neighbourhood,
    squashed. The nodes of each neighbourhood size attend at once, in
    stacked products whose every slice is the gemv (or dot) that one node
    attending alone runs, on operands of the same shape and strides; so each
    node's row is the one it gets alone (``==``)."""
    out = np.empty_like(z)
    by_size: dict[int, list[int]] = {}
    for i, idx in enumerate(neighbours):
        by_size.setdefault(len(idx), []).append(i)
    scale = np.sqrt(EMBED_DIM)
    for nodes in by_size.values():
        near = z[np.array([neighbours[i] for i in nodes])]  # (nodes, size, EMBED_DIM)
        scores = np.matmul(near, z[nodes][:, :, None])[:, :, 0] / scale
        scores -= scores.max(axis=1, keepdims=True)
        att = np.exp(scores)
        att /= att.sum(axis=1, keepdims=True)
        out[nodes] = np.tanh(np.matmul(att[:, None, :], near)[:, 0, :])
    return out


# --- heuristic view ---------------------------------------------------------------

def score_heuristic(q: ProcessSummary, p: ProcessSummary) -> float:
    """Mean of activity Jaccard, length agreement, precursor Jaccard."""
    activity = jaccard(q.route, p.route)
    lq, lp = q.route_length, p.route_length
    length = 1.0 if lq == lp == 0 else min(lq, lp) / max(lq, lp)
    precursor = jaccard(q.precursors, p.precursors)
    return (activity + length + precursor) / 3.0


# --- queries ----------------------------------------------------------------------

@dataclass(frozen=True)
class RetrievalQuery:
    """One query process, a value: nothing writes to it once built. As row
    ``row`` of a :class:`QueryBlock`, it takes its vectors and view scores
    from the block, and cannot be deep-copied or pickled, as the block's
    lock cannot. Built alone (:func:`query_from_item`, or by hand), every
    :func:`retrieve` scores it as the one row of a block of its own, so it
    is embedded afresh on each call; without a context graph it enters that
    block as the empty graph, whose zero structure vector scores 0.5 on
    every process."""

    summary: ProcessSummary
    text: str = ""
    context_graph: ProcessGraph | None = None
    block: QueryBlock | None = field(default=None, repr=False, compare=False)
    row: int = field(default=0, repr=False, compare=False)


def query_from_item(item: BenchItem) -> RetrievalQuery:
    """Build the query process context from the visible payload only."""
    q = item.question
    precursors, product = (tuple(q.precursors), q.product) if isinstance(q, RouteQuestion) else ((), "")
    if item.task == "A1_route_retrieval":
        visible: tuple[str, ...] = ()
    elif item.task == "A2_missing_step":
        visible = tuple(x for x in q.route_with_mask if x != MASK_TOKEN)
    elif item.task == "A3_next_activity":
        visible = tuple(q.prefix)
    elif item.task == "D_process_ordering":
        visible = tuple(sorted(s.label for s in q.steps))
    else:  # B1 / B2 / C1 carry the full route
        visible = tuple(q.route)

    summary = ProcessSummary(
        graph_id=f"query:{item.item_id}",
        route=visible,
        precursors=precursors,
        products=(product,) if product else (),
        tools=(),
    )
    text = linearize_parts(
        precursors=precursors,
        route_text=" -> ".join(visible),
        products=summary.products,
    )
    context_graph = _context_graph(item, visible, precursors, product)
    return RetrievalQuery(summary=summary, text=text, context_graph=context_graph)


def queries_from_items(items: list[BenchItem], option_texts: list[list[str]] | None = None,
                       encoder: StructureEncoder | None = None) -> list[RetrievalQuery]:
    """:func:`query_from_item` of each item, as the rows of one :class:`QueryBlock`
    that embeds, with the queries' texts, ``option_texts`` (one list per item,
    when given) and whose context graphs ``encoder`` embeds (a fresh one when
    None)."""
    alone = [query_from_item(item) for item in items]
    block = QueryBlock([q.text for q in alone], [q.context_graph for q in alone],
                       option_texts, encoder)
    return [replace(q, block=block, row=row) for row, q in enumerate(alone)]


class QueryBlock:
    """The work the queries of one block share (:func:`queries_from_items`;
    :func:`retrieve` scores a query built alone as a block of one).
    The first retrieval of any of them embeds the block's texts in one call,
    each query's text and then each of its option texts, and its context
    graphs with the block's encoder; each vector is the one its text or graph
    alone gets. Each query's view scores are kept for the last index it was
    scored on. It holds texts and graphs, not queries, and a lock, so threads
    retrieving its queries embed it once."""

    def __init__(self, texts: list[str], graphs: list[ProcessGraph],
                 option_texts: list[list[str]] | None, encoder: StructureEncoder | None):
        self.texts = [*texts, *itertools.chain.from_iterable(option_texts or ())]
        bounds = list(itertools.accumulate(map(len, option_texts or ()), initial=len(texts)))
        # row -> the span of its option texts in ``texts``; None without them
        self.options = list(zip(bounds, bounds[1:])) if option_texts is not None else None
        self.graphs = graphs
        self.encoder = encoder
        self.vectors: tuple[np.ndarray, np.ndarray] | None = None  # text rows, struct rows
        self.scores: dict[int, tuple] = {}  # row -> (index, its three view scores)
        self.lock = threading.Lock()

    def _embedded(self) -> tuple[np.ndarray, np.ndarray]:
        """The block's vectors, embedded by the first call; call it holding the lock."""
        if self.vectors is None:
            self.vectors = BuiltinTextEmbedder().embed(self.texts), embed_structure(self.graphs, self.encoder)
        return self.vectors

    def views(self, query: RetrievalQuery, index: DenseIndex) -> tuple:
        """The text, structure and heuristic score of every process of
        ``index`` for ``query``, this block's row ``query.row``."""
        with self.lock:
            hit = self.scores.get(query.row)
            if hit is None or hit[0] is not index:
                text, struct = self._embedded()
                views = (unit_cosines(text[query.row], index.text, index.text_norm),
                         unit_cosines(struct[query.row], index.struct, index.struct_norm),
                         index.heuristic(query.summary))
                hit = self.scores[query.row] = (index, views)
            return hit[1]

    def option_vectors(self, row: int) -> np.ndarray | None:
        """The text vectors of row ``row``'s option texts; None when the block
        was built without them."""
        if self.options is None:
            return None
        start, stop = self.options[row]
        with self.lock:
            return self._embedded()[0][start:stop]


def _context_graph(item: BenchItem, visible: tuple[str, ...], precursors: tuple[str, ...],
                   product: str) -> ProcessGraph:
    """Minimal provenance graph over the visible payload; ``visible`` is the
    query's visible route, which an ordering item's steps replace."""
    q = item.question
    materials: list[EntityNode] = []
    activities: list[ActivityNode] = []
    # each edge once, in the order it is first met
    usage: dict[tuple[str, str], None] = {}
    generation: dict[tuple[str, str], None] = {}
    named: dict[str, str] = {}

    def add_material(label: str) -> str:
        node_id = f"qe{len(materials)}"
        materials.append(EntityNode(id=node_id, label=label, kind="material"))
        return node_id

    def material(label: str) -> str:
        if label not in named:
            named[label] = add_material(label)
        return named[label]

    if item.task == "D_process_ordering":
        for pos, step in enumerate(q.steps):
            act_id = f"qa{pos}"
            activities.append(ActivityNode(id=act_id, label=step.label, source_position=pos))
            usage |= dict.fromkeys((material(label), act_id) for label in step.inputs)
            generation |= dict.fromkeys((act_id, material(label)) for label in step.outputs)
    else:
        previous: str | None = None
        for pos, label in enumerate(visible):
            act_id = f"qa{pos}"
            activities.append(ActivityNode(id=act_id, label=label, source_position=pos))
            if pos == 0:
                usage |= dict.fromkeys((material(pre), act_id) for pre in precursors)
            if previous is not None:
                link = add_material("intermediate")  # fresh node per hand-off
                generation[previous, link] = None
                usage[link, act_id] = None
            previous = act_id
        if previous is not None and product:
            generation[previous, material(product)] = None
        elif previous is None:
            for pre in precursors:
                material(pre)
            if product:
                material(product)
        if isinstance(q, StepQuestion):  # its route is ``visible``, so step_index names an activity
            target = activities[q.step_index].id
            usage |= dict.fromkeys((material(label), target) for label in q.step_inputs)
    return ProcessGraph(record_id=f"query:{item.item_id}", material_entities=tuple(materials),
                        activities=tuple(activities), usage_edges=tuple(usage),
                        generation_edges=tuple(generation))


# --- memory-side embeddings -----------------------------------------------------------

def attach_embeddings(memory: ProcessMemory, graphs: list[ProcessGraph]) -> ProcessMemory:
    """A copy of ``memory`` that stores the text and struct vectors of every
    process in ``vectors``: one read-only matrix per kind, row i for process
    i, which the dense index scores as it is. The vectors are the ones the
    query side embeds in: builtin n-gram text vectors and the structure
    encoder's. ``memory`` is left as it is. Raises :class:`DataError` when a
    process has no graph in ``graphs``."""
    graphs_by_id = {g.record_id: g for g in graphs}
    ids = [p.graph_id for p in memory.processes]
    missing = [gid for gid in ids if gid not in graphs_by_id]
    if missing:
        raise DataError(f"no graph given for memory process {missing[0]!r}"
                        f" ({len(missing)} of {len(ids)} processes lack one)")
    text = frozen_array(BuiltinTextEmbedder().embed([linearize_process(memory, gid) for gid in ids]))
    struct = embed_structure([graphs_by_id[gid] for gid in ids])
    struct.setflags(write=False)
    return replace(memory, vectors={"text": text, "struct": struct})


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
    struct: np.ndarray  # (N, EMBED_DIM)
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


def _vectors(memory: ProcessMemory, kind: str) -> np.ndarray:
    """The memory's stored ``kind`` matrix as float64 (not copied when it
    is float64 already), checked to hold one ``EMBED_DIM``-wide row per
    process."""
    if kind not in memory.vectors:
        raise DataError(f"the memory stores no {kind} vectors; rebuild it with build-memory")
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

    Building raises :class:`DataError` for a kind the memory does not
    store and for a stored matrix without one row per process, and
    :class:`EmbeddingDimensionMismatch` for stored vectors whose width is
    not ``EMBED_DIM``.
    """
    ids = [p.graph_id for p in memory.processes]
    text, struct = _vectors(memory, "text"), _vectors(memory, "struct")
    return DenseIndex(
        graph_ids=ids,
        rows={gid: row for row, gid in enumerate(ids)},
        id_rank=sorted_ranks(ids),
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

    Every process is scored in one pass over the memory's :class:`DenseIndex`
    by :meth:`QueryBlock.views`; each score is the float the per-process
    formula gives. Every view is scored, whatever its weight: once per index
    for a query of a block, on every call for a query built alone, which is
    scored as the one row of a block of its own. Writes nothing into the
    query or the memory.
    """
    if not memory.processes:
        raise EmptyMemory("retrieval requested against an empty memory")
    from .runner import PolicyConfig  # runner imports this module
    check_ranges(PolicyConfig, top_k=k)
    index = memory.dense_index
    if query.block is None:
        graph = ProcessGraph("") if query.context_graph is None else query.context_graph
        query = replace(query, block=QueryBlock([query.text], [graph], None, None), row=0)
    s_text, s_struct, s_heur = query.block.views(query, index)
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
