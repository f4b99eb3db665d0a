"""Train-partition process memory: summaries, transition statistics,
prefix-continuation index, and a step library for context matching.

The prefix index stores every contiguous activity window up to
``max_prefix_len`` labels mapped to its immediate successor, which makes
the longest-stored-suffix backoff in :func:`next_distribution` effective
on routes the memory has never seen from the start.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from .canon import canon_label
from .errors import EmptyLibrary, EmptyTrainSet, MalformedDocument
from .jsonio import (Record, artifact_header, check_fields, read_artifact, record_fields,
                     write_ndjson)
from .provgraph import (
    ProcessGraph,
    precursor_labels,
    product_labels,
    route_labels,
    step_material_inputs,
    step_material_outputs,
    step_tool_labels,
)

if TYPE_CHECKING:
    from .retrieval import DenseIndex

MEMORY_FORMAT = "matproc-memory"
DEFAULT_MAX_PREFIX_LEN = 4
DEFAULT_MATCH_WEIGHTS = (1.0, 0.5, 0.25, 0.25)


def jaccard(a, b) -> float:
    """Set overlap; two empty sets count as a perfect match."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


class LabelSets:
    """A list of label sets as a 0/1 incidence matrix, for :func:`jaccard`
    of one query set against every member at once.

    Intersections and unions are integer counts, so each value is the same
    float ``jaccard`` returns for that pair.
    """

    def __init__(self, sets: Iterable[Iterable[str]]):
        sets = [set(s) for s in sets]
        self.columns = {label: i for i, label in enumerate(sorted(set().union(*sets)))}
        self.sizes = np.array([len(s) for s in sets], dtype=np.int64)
        self.incidence = np.zeros((len(sets), len(self.columns)), dtype=np.uint8)
        rows = np.repeat(np.arange(len(sets)), self.sizes)
        cols = np.fromiter(
            (self.columns[label] for labels in sets for label in labels), np.intp, len(rows)
        )
        self.incidence[rows, cols] = 1

    def jaccard(self, query: Iterable[str]) -> np.ndarray:
        labels = set(query)
        cols = [self.columns[label] for label in labels if label in self.columns]
        inter = self.incidence[:, cols].sum(axis=1, dtype=np.int64)
        union = len(labels) + self.sizes - inter
        out = np.ones(len(self.sizes))  # two empty sets count as a perfect match
        np.divide(inter, union, out=out, where=union > 0)
        return out


@dataclass
class ProcessSummary(Record):
    graph_id: str
    route: list[str]
    precursors: list[str]
    products: list[str]
    tools: list[str]

    @property
    def route_length(self) -> int:
        return len(self.route)


@dataclass
class StepEntry(Record):
    graph_id: str
    activity: str
    position: int
    norm_position: float
    prev_activity: str | None = None
    next_activity: str | None = None
    tools: list[str] = field(default_factory=list)
    conditions: dict[str, str] = field(default_factory=dict)
    input_labels: list[str] = field(default_factory=list)
    input_forms: list[str] = field(default_factory=list)
    output_labels: list[str] = field(default_factory=list)
    output_forms: list[str] = field(default_factory=list)


@dataclass
class StepQuery:
    """The visible context of a target step, shaped like a StepEntry."""

    activity: str | None = None
    prev_activity: str | None = None
    next_activity: str | None = None
    norm_position: float | None = None
    input_forms: list[str] = field(default_factory=list)

    def neighbour_labels(self) -> set[str]:
        return {x for x in (self.prev_activity, self.next_activity) if x}


@dataclass
class NextDistribution:
    probs: dict[str, float]
    backoff: int  # 0 exact, n suffix hops, -1 unigram fallback
    total: int  # observations behind the matched context
    vocab_size: int

    def smoothing_floor(self) -> float:
        return 1.0 / (self.total + self.vocab_size) if self.vocab_size else 0.0

    def mass(self, label: str) -> float:
        return self.probs.get(label, self.smoothing_floor())


@dataclass(frozen=True)
class StepIndex:
    """The step library as arrays, in library order, for :func:`match_steps`."""

    activity: np.ndarray
    norm_position: np.ndarray
    graph_rank: np.ndarray  # rank of the entry's graph_id in sorted order
    position: np.ndarray
    neighbours: LabelSets
    input_forms: LabelSets

    @classmethod
    def build(cls, library: list[StepEntry]) -> "StepIndex":
        gids = [e.graph_id for e in library]
        rank = {gid: i for i, gid in enumerate(sorted(set(gids)))}
        return cls(
            activity=np.array([e.activity for e in library], dtype=object),
            norm_position=np.array([e.norm_position for e in library], dtype=np.float64),
            graph_rank=np.array([rank[gid] for gid in gids], dtype=np.int64),
            position=np.array([e.position for e in library], dtype=np.int64),
            neighbours=LabelSets(
                [x for x in (e.prev_activity, e.next_activity) if x] for e in library
            ),
            input_forms=LabelSets(e.input_forms for e in library),
        )


@dataclass(frozen=True, eq=False)
class ProcessMemory:
    """The train partition's processes and their statistics. A memory never
    changes once built: each view below is computed on first use and kept
    for the memory's life, and a variant is a new memory
    (``dataclasses.replace``). ``==`` is identity."""

    split_id: str = ""
    max_prefix_len: int = DEFAULT_MAX_PREFIX_LEN
    processes: list[ProcessSummary] = field(default_factory=list)
    step_library: list[StepEntry] = field(default_factory=list)
    transition_table: dict[tuple[str, str], int] = field(default_factory=dict)
    prefix_index: dict[tuple[str, ...], Counter] = field(default_factory=dict)
    # kind ("text", "struct") -> read-only float64 (len(processes), d) matrix,
    # row i for processes[i]; a built or loaded memory stores both kinds
    vectors: dict[str, np.ndarray] = field(default_factory=dict)

    @cached_property
    def by_graph_id(self) -> dict[str, ProcessSummary]:
        return {p.graph_id: p for p in self.processes}

    @cached_property
    def vocab(self) -> frozenset[str]:
        return frozenset(label for p in self.processes for label in p.route)

    @cached_property
    def _transition_totals(self) -> tuple[Counter, Counter]:
        """Transition counts summed per source label and per target label."""
        out, into = Counter(), Counter()
        for (a, b), c in self.transition_table.items():
            out[a] += c
            into[b] += c
        return out, into

    def total_out(self, label: str) -> int:
        return self._transition_totals[0].get(label, 0)

    def total_in(self, label: str) -> int:
        return self._transition_totals[1].get(label, 0)

    @cached_property
    def _steps_by_graph(self) -> dict[str, tuple[StepEntry, ...]]:
        grouped: dict[str, list[StepEntry]] = {}
        for e in self.step_library:
            grouped.setdefault(e.graph_id, []).append(e)
        return {gid: tuple(sorted(es, key=lambda e: e.position)) for gid, es in grouped.items()}

    def steps_of(self, graph_id: str) -> tuple[StepEntry, ...]:
        """One process's step-library entries, by position."""
        return self._steps_by_graph.get(graph_id, ())

    @cached_property
    def step_index(self) -> StepIndex:
        return StepIndex.build(self.step_library)

    @cached_property
    def dense_index(self) -> DenseIndex:
        """See :func:`matproc.retrieval.build_dense_index`."""
        from .retrieval import build_dense_index  # retrieval imports this module

        return build_dense_index(self)


def build_memory(
    train_graphs: list[ProcessGraph],
    split_id: str = "",
    max_prefix_len: int = DEFAULT_MAX_PREFIX_LEN,
    allowed_graph_ids: set[str] | None = None,
) -> ProcessMemory:
    """Fold the training graphs into an immutable memory that stores the
    text and struct vectors of every process (see
    :func:`matproc.retrieval.attach_embeddings`).

    ``allowed_graph_ids`` is the train-only provenance guard: when given,
    any graph outside it is a hard error, not a silent inclusion.
    """
    if not train_graphs:
        raise EmptyTrainSet("process memory needs at least one training graph")
    if allowed_graph_ids is not None:
        strangers = [g.record_id for g in train_graphs if g.record_id not in allowed_graph_ids]
        if strangers:
            raise MalformedDocument(f"graphs outside the train partition: {strangers[:3]}")
    processes, step_library, transition_table, prefix_index = [], [], {}, {}
    for g in train_graphs:
        route = route_labels(g)
        processes.append(
            ProcessSummary(
                graph_id=g.record_id,
                route=route,
                precursors=precursor_labels(g),
                products=product_labels(g),
                tools=sorted({canon_label(t.label) for t in g.tool_entities}),
            )
        )
        length = len(route)
        for pos, act in enumerate(g.ordered_activities()):
            in_labels, in_forms = step_material_inputs(g, act.id)
            out_labels, out_forms = step_material_outputs(g, act.id)
            step_library.append(
                StepEntry(
                    graph_id=g.record_id,
                    activity=route[pos],
                    position=pos,
                    norm_position=pos / (length - 1) if length > 1 else 0.0,
                    prev_activity=route[pos - 1] if pos > 0 else None,
                    next_activity=route[pos + 1] if pos < length - 1 else None,
                    tools=step_tool_labels(g, act.id),
                    conditions=dict(act.conditions),
                    input_labels=in_labels,
                    input_forms=in_forms,
                    output_labels=out_labels,
                    output_forms=out_forms,
                )
            )
        for a, b in zip(route, route[1:]):
            transition_table[(a, b)] = transition_table.get((a, b), 0) + 1
        for width in range(1, max_prefix_len + 1):
            for start in range(0, length - width):
                window = tuple(route[start : start + width])
                prefix_index.setdefault(window, Counter())[route[start + width]] += 1
    from .retrieval import attach_embeddings  # retrieval imports this module

    memory = ProcessMemory(split_id=split_id, max_prefix_len=max_prefix_len, processes=processes,
                           step_library=step_library, transition_table=transition_table,
                           prefix_index=prefix_index)
    return attach_embeddings(memory, train_graphs)


def next_distribution(memory: ProcessMemory, prefix) -> NextDistribution:
    """Continuation distribution with longest-stored-suffix backoff.

    Exact window hit -> backoff 0; each dropped leading label adds 1; a
    total miss falls back to the unigram successor marginal (backoff -1);
    a memory with no transitions at all yields uniform over known labels.
    """
    vocab = memory.vocab
    query = tuple(canon_label(x) for x in prefix)[-memory.max_prefix_len :]
    for hop in range(len(query)):
        window = query[hop:]
        counts = memory.prefix_index.get(window)
        if counts:
            total = sum(counts.values())
            return NextDistribution(
                probs={label: c / total for label, c in sorted(counts.items())},
                backoff=hop,
                total=total,
                vocab_size=len(vocab),
            )
    unigram = memory._transition_totals[1]
    if unigram:
        total = sum(unigram.values())
        return NextDistribution(
            probs={label: c / total for label, c in sorted(unigram.items())},
            backoff=-1,
            total=total,
            vocab_size=len(vocab),
        )
    labels = sorted(vocab)
    return NextDistribution(
        probs={label: 1.0 / len(labels) for label in labels} if labels else {},
        backoff=-1,
        total=0,
        vocab_size=len(labels),
    )


def match_steps(
    memory: ProcessMemory,
    query: StepQuery,
    top_m: int = 8,
    weights: tuple[float, float, float, float] = DEFAULT_MATCH_WEIGHTS,
) -> list[tuple[float, StepEntry]]:
    """Rank step-library entries by additive context compatibility.

    score = w1*[same activity] + w2*J(neighbours) + w3*(1-|d norm position|)
          + w4*J(input forms); ties broken by (graph_id, position).
    """
    if not memory.step_library:
        raise EmptyLibrary("step matching requested against an empty library")
    w1, w2, w3, w4 = weights
    index = memory.step_index
    # the terms are added in the order of the formula, so every score is the
    # float a per-entry sum would give
    score = np.zeros(len(memory.step_library))
    if query.activity is not None:
        score += w1 * (index.activity == query.activity)
    score += w2 * index.neighbours.jaccard(query.neighbour_labels())
    if query.norm_position is not None:
        score += w3 * (1.0 - np.abs(query.norm_position - index.norm_position))
    score += w4 * index.input_forms.jaccard(query.input_forms)
    top = np.lexsort((index.position, index.graph_rank, -score))[:top_m]
    return [(float(score[i]), memory.step_library[i]) for i in top]


# --- linearization -------------------------------------------------------------

LINEARIZATION_VERSION = "lin-1"


def linearize_steps(route: list[str], conditions_per_step: list[dict]) -> str:
    clauses = []
    for label, conditions in zip(route, conditions_per_step):
        if conditions:
            inner = "; ".join(f"{k}={conditions[k]}" for k in sorted(conditions))
            clauses.append(f"{label}({inner})")
        else:
            clauses.append(label)
    return " -> ".join(clauses)


def linearize_parts(
    precursors=(), route_text: str = "", tools=(), products=()
) -> str:
    parts = []
    if precursors:
        parts.append("precursors: " + ", ".join(precursors))
    if route_text:
        parts.append("route: " + route_text)
    if tools:
        parts.append("tools: " + ", ".join(tools))
    if products:
        parts.append("product: " + ", ".join(products))
    return " | ".join(parts)


def linearize_process(memory: ProcessMemory, graph_id: str) -> str:
    """Deterministic text rendering of one stored process."""
    summary = memory.by_graph_id[graph_id]
    steps = memory.steps_of(graph_id)
    route_text = linearize_steps(summary.route, [e.conditions for e in steps])
    return linearize_parts(
        precursors=summary.precursors,
        route_text=route_text,
        tools=summary.tools,
        products=summary.products,
    )


# --- persistence -----------------------------------------------------------------


_NUMBERS = frozenset({int, float})


def frozen_array(values) -> np.ndarray:
    """``values`` copied into a read-only float64 array."""
    out = np.array(values, dtype=np.float64)
    out.setflags(write=False)
    return out


def _stored(graph_id: str, kind: str, convert: Callable[[list], object], values):
    """``convert(values)`` for a list of JSON numbers. A JSON bool would
    convert to 1.0 or 0.0 and an int past float range would overflow:
    neither is a stored number, and both raise MalformedDocument."""
    try:
        if _NUMBERS.issuperset(map(type, values)):
            return convert(values)
    except OverflowError:
        pass
    raise MalformedDocument(
        f"memory process {graph_id!r}: stored {kind} vector is not a list of numbers"
    )


@dataclass
class ProcessRow(ProcessSummary):
    """A process as the memory file stores it: its summary and, per kind,
    its vector as a JSON list, which :class:`StoredVectors` checks and packs."""

    embeddings: dict[str, list]


@dataclass
class TransitionRow(Record):
    a: str
    b: str
    count: int


@dataclass
class PrefixRow(Record):
    prefix: tuple[str, ...]
    next: dict[str, int]


# the vector kinds every stored process holds, sorted
VECTOR_KINDS = ("struct", "text")
_REBUILD = "a memory stores a text and a struct vector for every process; rebuild with build-memory"

# the record type of each kind of memory-file row
MEMORY_ROWS = {"process": ProcessRow, "step": StepEntry, "transition": TransitionRow,
               "prefix": PrefixRow}


def save_memory(path: str | Path, memory: ProcessMemory, config_hash: str = "") -> int:
    header = artifact_header(
        MEMORY_FORMAT,
        config_hash=config_hash,
        split_id=memory.split_id,
        max_prefix_len=memory.max_prefix_len,
        linearization=LINEARIZATION_VERSION,
    )

    def rows():
        for i, p in enumerate(memory.processes):
            yield {"kind": "process", **record_fields(p),
                   "embeddings": {kind: m[i] for kind, m in memory.vectors.items()}}
        for e in memory.step_library:
            yield {"kind": "step", **record_fields(e)}
        for (a, b), c in sorted(memory.transition_table.items()):
            yield {"kind": "transition", **record_fields(TransitionRow(a, b, c))}
        for window, counts in sorted(memory.prefix_index.items()):
            yield {"kind": "prefix", **record_fields(PrefixRow(window, dict(counts)))}

    return write_ndjson(path, header, rows())


class StoredVectors:
    """The stored vectors of one memory file, read row by row. Each kind's
    vectors go into one growable float64 buffer, which ends as one read-only
    ``(n, d)`` matrix whose row i belongs to the file's i-th process."""

    def __init__(self):
        self._buffers: dict[str, array] = {}
        self._widths: dict[str, tuple[int, str]] = {}  # kind -> width, first graph_id
        self._count = 0

    def read(self, row) -> ProcessSummary:
        """A process row of the file as its summary, checked as a
        :class:`ProcessRow` that stores a vector of each kind, with its
        vectors appended to the buffers."""
        if type(row) is dict and "embeddings" not in row:
            raise MalformedDocument(
                f"memory process {row.get('graph_id')!r} stores no vectors; {_REBUILD}")
        kwargs = check_fields(ProcessRow, row)
        vectors = kwargs.pop("embeddings")
        summary = ProcessSummary(**kwargs)
        if sorted(vectors) != list(VECTOR_KINDS):
            raise MalformedDocument(
                f"memory process {summary.graph_id!r}: stored vector kinds {sorted(vectors)},"
                f" expected {list(VECTOR_KINDS)}; {_REBUILD}")
        for kind, values in vectors.items():
            self._append(summary.graph_id, kind, values)
        self._count += 1
        return summary

    def _append(self, graph_id: str, kind: str, values: list) -> None:
        buffer = self._buffers.setdefault(kind, array("d"))
        width, first = self._widths.setdefault(kind, (len(values), graph_id))
        if len(values) != width:
            raise MalformedDocument(
                f"memory process {graph_id!r}: stored {kind} vector has {len(values)} numbers,"
                f" the first one (process {first!r}) has {width}"
            )
        _stored(graph_id, kind, buffer.fromlist, values)

    def store(self) -> dict[str, np.ndarray]:
        """Every kind's vectors as one read-only matrix, in process order."""
        matrices = {}
        for kind, buffer in self._buffers.items():
            flat = np.frombuffer(buffer, dtype=np.float64)  # no copy; locks the buffer's size
            flat.setflags(write=False)
            matrices[kind] = flat.reshape(self._count, self._widths[kind][0])
        return matrices


def load_memory(path: str | Path) -> ProcessMemory:
    """The memory saved at ``path``. Its stored vectors of each kind are one
    read-only float64 matrix, which the dense index scores as it is (see
    :class:`StoredVectors`)."""
    vectors = StoredVectors()
    header, rows = read_artifact(path, MEMORY_FORMAT, {**MEMORY_ROWS, "process": vectors.read},
                                 split_id=str, max_prefix_len=int)
    return ProcessMemory(
        split_id=header.get("split_id", ""),
        max_prefix_len=header.get("max_prefix_len", DEFAULT_MAX_PREFIX_LEN),
        processes=rows["process"],
        step_library=rows["step"],
        transition_table={(t.a, t.b): t.count for t in rows["transition"]},
        prefix_index={p.prefix: Counter(p.next) for p in rows["prefix"]},
        vectors=vectors.store(),
    )
