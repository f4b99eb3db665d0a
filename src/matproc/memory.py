"""Train-partition process memory: summaries, a step library, and two views
of the routes that never disagree with them, transition counts and prefix index.

A memory stores only what its routes do not give. A step entry holds a route
position's payload (tools, conditions, inputs and outputs); the position's
activity, neighbours and normalised position are read off the route with
:meth:`StepQuery.at` wherever they are used, by the step index and by the
prompts. The prefix index is never stored. The transition rows the file
still holds must be the ones the routes give. A file that stores a process
twice, or that an older version wrote (a step row holding route context, a
``prefix`` row), is refused with a hint to rebuild it. Processes and step
entries are frozen, like the memory that holds them, and a step's conditions
are read-only, as its activity's are in the graph.

The prefix index maps every contiguous activity window up to
``max_prefix_len`` labels to its immediate successor, which makes the
longest-stored-suffix backoff in :func:`next_distribution` effective on
routes the memory has never seen from the start.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .canon import canon_label
from .errors import EmptyLibrary, EmptyTrainSet, MalformedDocument
from .jsonio import (ReadOnlyMapping, Record, artifact_header, check_fields, read_artifact,
                     record_fields, write_ndjson)
from .provgraph import ProcessGraph, graph_view

if TYPE_CHECKING:
    from .retrieval import DenseIndex

MEMORY_FORMAT = "matproc-memory"
DEFAULT_MAX_PREFIX_LEN = 4
DEFAULT_MATCH_WEIGHTS = (1.0, 0.5, 0.25, 0.25)


def sorted_ranks(ids: list[str]) -> np.ndarray:
    """The rank of each id among the distinct ids in sorted order."""
    rank = {x: i for i, x in enumerate(sorted(set(ids)))}
    return np.array([rank[x] for x in ids], dtype=np.int64)


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


@dataclass(frozen=True)
class ProcessSummary(Record):
    graph_id: str
    route: tuple[str, ...]
    precursors: tuple[str, ...]
    products: tuple[str, ...]
    tools: tuple[str, ...]

    @property
    def route_length(self) -> int:
        return len(self.route)


@dataclass(frozen=True)
class StepEntry(Record):
    """One position of a stored process's route: its payload, as a memory file
    stores it. Its context (activity, neighbours, normalised position) is the
    route's, read with :meth:`StepQuery.at`."""

    graph_id: str
    position: int
    tools: tuple[str, ...] = ()
    conditions: Mapping[str, str] = field(default_factory=ReadOnlyMapping)
    input_labels: tuple[str, ...] = ()
    input_forms: tuple[str, ...] = ()
    output_labels: tuple[str, ...] = ()
    output_forms: tuple[str, ...] = ()


@dataclass
class StepQuery:
    """The visible context of a route position, and its step's input forms.
    The step index, the prompts and the scorers' queries all take it from
    :meth:`at`."""

    activity: str | None = None
    prev_activity: str | None = None
    next_activity: str | None = None
    norm_position: float | None = None
    input_forms: list[str] = field(default_factory=list)

    @classmethod
    def at(cls, route, i: int, input_forms=()) -> StepQuery:
        """Position ``i`` of ``route``; ``norm_position`` is 0.0 on a one-label route."""
        last = len(route) - 1
        return cls(activity=route[i], prev_activity=route[i - 1] if i > 0 else None,
                   next_activity=route[i + 1] if i < last else None,
                   norm_position=i / last if last > 0 else 0.0, input_forms=list(input_forms))

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
    """The step library as arrays, in library order, for :func:`match_steps`;
    each entry's context is read off its process's route."""

    activity: np.ndarray
    norm_position: np.ndarray
    graph_rank: np.ndarray  # rank of the entry's graph_id in sorted order
    position: np.ndarray
    neighbours: LabelSets
    input_forms: LabelSets

    @classmethod
    def build(cls, library: tuple[StepEntry, ...],
              processes: Mapping[str, ProcessSummary]) -> "StepIndex":
        at = [StepQuery.at(processes[e.graph_id].route, e.position) for e in library]
        return cls(
            activity=np.array([q.activity for q in at], dtype=object),
            norm_position=np.array([q.norm_position for q in at], dtype=np.float64),
            graph_rank=sorted_ranks([e.graph_id for e in library]),
            position=np.array([e.position for e in library], dtype=np.int64),
            neighbours=LabelSets(q.neighbour_labels() for q in at),
            input_forms=LabelSets(e.input_forms for e in library),
        )


@dataclass(frozen=True, eq=False)
class ProcessMemory:
    """The train partition's processes and their statistics. A memory never
    changes once built: each view below, the transition table and the prefix
    index among them, is computed from the fields on first use and kept for
    the memory's life, and a variant is a new memory (``dataclasses.replace``).
    ``==`` is identity. The process and step lists are held as tuples and the
    vectors as a :class:`ReadOnlyMapping`, so no view goes stale under an
    append or an assignment."""

    split_id: str = ""
    max_prefix_len: int = DEFAULT_MAX_PREFIX_LEN
    processes: tuple[ProcessSummary, ...] = ()
    step_library: tuple[StepEntry, ...] = ()
    # kind ("text", "struct") -> read-only float64 (len(processes), d) matrix,
    # row i for processes[i]; a built or loaded memory stores both kinds
    vectors: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "processes", tuple(self.processes))
        object.__setattr__(self, "step_library", tuple(self.step_library))
        object.__setattr__(self, "vectors", ReadOnlyMapping(self.vectors))

    @cached_property
    def by_graph_id(self) -> dict[str, ProcessSummary]:
        return {p.graph_id: p for p in self.processes}

    @cached_property
    def vocab(self) -> frozenset[str]:
        return frozenset(label for p in self.processes for label in p.route)

    @cached_property
    def transition_table(self) -> dict[tuple[str, str], int]:
        """How often label b follows label a, over every route."""
        return dict(Counter(pair for p in self.processes for pair in zip(p.route, p.route[1:])))

    @cached_property
    def prefix_index(self) -> dict[tuple[str, ...], Counter]:
        """Each window of 1 to ``max_prefix_len`` consecutive route labels
        -> how often each label follows it, over every route."""
        index: dict[tuple[str, ...], Counter] = {}
        for route in (p.route for p in self.processes):
            for width in range(1, self.max_prefix_len + 1):
                for start in range(len(route) - width):
                    window = tuple(route[start:start + width])
                    index.setdefault(window, Counter())[route[start + width]] += 1
        return index

    @cached_property
    def _transition_totals(self) -> tuple[Counter, Counter]:
        """The transition table's counts summed per source label and per target label."""
        out, into = Counter(), Counter()
        for (a, b), count in self.transition_table.items():
            out[a] += count
            into[b] += count
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
        return StepIndex.build(self.step_library, self.by_graph_id)

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
    processes, step_library = [], []
    for g in train_graphs:
        view = graph_view(g)
        processes.append(
            ProcessSummary(graph_id=g.record_id, route=view.route, precursors=view.precursors,
                           products=view.products, tools=view.tools)
        )
        for pos, step in enumerate(view.steps):
            step_library.append(
                StepEntry(
                    graph_id=g.record_id,
                    position=pos,
                    tools=step.tools,
                    conditions=step.activity.conditions,
                    input_labels=step.inputs,
                    input_forms=step.input_forms,
                    output_labels=step.outputs,
                    output_forms=step.output_forms,
                )
            )
    from .retrieval import attach_embeddings  # retrieval imports this module

    memory = ProcessMemory(split_id=split_id, max_prefix_len=max_prefix_len, processes=processes,
                           step_library=step_library)
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


def match_steps(memory: ProcessMemory, query: StepQuery, top_m: int) -> list[tuple[float, StepEntry]]:
    """The ``top_m`` step-library entries of highest additive context
    compatibility, under ``DEFAULT_MATCH_WEIGHTS`` (w1, w2, w3, w4):

    score = w1*[same activity] + w2*J(neighbours) + w3*(1-|d norm position|)
          + w4*J(input forms); ties broken by (graph_id, position).
    """
    if not memory.step_library:
        raise EmptyLibrary("step matching requested against an empty library")
    w1, w2, w3, w4 = DEFAULT_MATCH_WEIGHTS
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


@dataclass(frozen=True)
class ProcessRow(ProcessSummary):
    """A process as the memory file stores it: its summary and, per kind,
    its vector as a JSON list, which :class:`StoredVectors` checks and packs."""

    embeddings: dict[str, list]


@dataclass
class TransitionRow(Record):
    a: str
    b: str
    count: int


# the vector kinds every stored process holds, sorted
VECTOR_KINDS = ("struct", "text")
_RERUN = "rebuild with build-memory"
_REBUILD = f"a memory stores a text and a struct vector for every process; {_RERUN}"


def _transition_rows(memory: ProcessMemory) -> list[TransitionRow]:
    """The transition rows of ``memory``'s file, sorted."""
    return [TransitionRow(a, b, c) for (a, b), c in sorted(memory.transition_table.items())]


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
        for r in _transition_rows(memory):
            yield {"kind": "transition", **record_fields(r)}

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
        # a JSON bool would convert to 1.0 or 0.0, but it is not a stored number
        if not _NUMBERS.issuperset(map(type, values)):
            raise MalformedDocument(
                f"memory process {graph_id!r}: stored {kind} vector is not a list of numbers")
        buffer.fromlist(values)

    def store(self) -> dict[str, np.ndarray]:
        """Every kind's vectors as one read-only matrix, in process order."""
        matrices = {}
        for kind, buffer in self._buffers.items():
            flat = np.frombuffer(buffer, dtype=np.float64)  # no copy; locks the buffer's size
            flat.setflags(write=False)
            matrices[kind] = flat.reshape(self._count, self._widths[kind][0])
        return matrices


def _read_step(row) -> StepEntry:
    try:
        return StepEntry.from_dict(row)
    except MalformedDocument as exc:  # a row holding route context is an older version's
        raise MalformedDocument(f"{exc}; {_RERUN}") from None


def load_memory(path: str | Path) -> ProcessMemory:
    """The memory saved at ``path``. Its stored vectors of each kind are one
    read-only float64 matrix, which the dense index scores as it is (see
    :class:`StoredVectors`). It stores each process once, one step row per
    route position, holding that step's payload alone, and, in any order, the
    transition rows its routes give."""
    vectors = StoredVectors()
    readers = {"process": vectors.read, "step": _read_step, "transition": TransitionRow.from_dict}
    rows = {kind: [] for kind in readers}

    def read_row(row):
        kind = row.pop("kind", None) if type(row) is dict else None
        if type(kind) is not str or kind not in readers:
            raise MalformedDocument(f"kind {kind!r} is not one of {', '.join(readers)}; {_RERUN}")
        rows[kind].append(readers[kind](row))

    header, _ = read_artifact(path, MEMORY_FORMAT, read_row, split_id=str, max_prefix_len=int)
    max_prefix_len = header.get("max_prefix_len", DEFAULT_MAX_PREFIX_LEN)
    if max_prefix_len < 1:  # next_distribution slices by it
        raise MalformedDocument(f"{path}: header max_prefix_len {max_prefix_len} is below 1")
    repeated = [gid for gid, n in Counter(p.graph_id for p in rows["process"]).items() if n > 1]
    if repeated:
        raise MalformedDocument(f"{path}: process {repeated[0]!r} is stored more than once; {_RERUN}")
    if (Counter((e.graph_id, e.position) for e in rows["step"])
            != Counter((p.graph_id, i) for p in rows["process"] for i in range(p.route_length))):
        raise MalformedDocument(f"{path}: the step rows are not one per route position; {_RERUN}")
    memory = ProcessMemory(split_id=header.get("split_id", ""), max_prefix_len=max_prefix_len,
                           processes=rows["process"], step_library=rows["step"],
                           vectors=vectors.store())
    if sorted(rows["transition"], key=lambda t: (t.a, t.b)) != _transition_rows(memory):
        raise MalformedDocument(f"{path}: the transition rows are not the ones the process routes"
                                f" give; {_RERUN}")
    return memory
