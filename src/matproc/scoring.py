"""Task-aware option compatibility scores.

Three scoring lanes over the same item: symbolic statistics drawn from
process memory and retrieved precedents, neural similarity between
option-completed texts and precedent linearizations, and their fusion
s = lambda * s_sym_hat + (1 - lambda) * s_neu_hat after per-item min-max
normalization. Every scorer is a pure function of (item, precedents,
memory, config), so identical inputs always reproduce identical scores.
What a lane needs that no precedent changes (option-completed text
vectors, step matches, positional frequencies) comes from an
:class:`ItemInputs`, which a caller scoring one item under several
precedent lists can build once and pass to every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .canon import canon_label
from .errors import ArityMismatch, InvalidParams
from .jsonio import Record, check_ranges, knob
from .memory import ProcessMemory, StepQuery, match_steps, next_distribution
from .retrieval import BuiltinTextEmbedder, RetrievalQuery, RetrievedPrecedent, unit_cosines
from .taskgen import (
    MASK_TOKEN,
    TUPLE_KEYS,
    BenchItem,
    order_satisfies,
    payload_constraints,
    render_condition_tuple,
)

DEFAULT_LAMBDA = 0.5


@dataclass(frozen=True)
class ScoringConfig(Record):
    two_way: tuple[float, float] = knob((0.5, 0.5), "[0, inf)")
    three_way: tuple[float, float, float] = knob((0.4, 0.3, 0.3), "[0, inf)")
    top_m: int = knob(8, "[1, inf)")
    position_window: float = knob(0.25, "[0, inf)")
    ordering_bonus: float = knob(1.0, "[0, inf)")
    uniform_transitions: bool = False  # ablation: flatten all transition statistics

    def __post_init__(self):
        # tuples keep the config hashable, so lane scores can be keyed by it
        object.__setattr__(self, "two_way", tuple(self.two_way))
        object.__setattr__(self, "three_way", tuple(self.three_way))
        check_ranges(self)


@dataclass
class OptionScores(Record):
    item_id: str
    raw_sym: list[float] | None = None
    raw_neu: list[float] | None = None
    norm_sym: list[float] | None = None
    norm_neu: list[float] | None = None
    fused: list[float] | None = None
    lam: float | None = None


def argmax_index(values) -> int:
    """Index of the maximum; ties go to the lowest option index."""
    best = 0
    for i, v in enumerate(values):
        if v > values[best]:
            best = i
    return best


def minmax_normalize(values) -> list[float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.5] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


# --- symbolic lane -------------------------------------------------------------------


def _transition_prob(memory: ProcessMemory, a: str, b: str, uniform: bool) -> float:
    vocab_size = len(memory.vocab)
    if vocab_size == 0:
        return 0.0
    if uniform:
        return 1.0 / vocab_size
    count = memory.transition_table.get((a, b), 0)
    return (count + 1.0) / (memory.total_out(a) + vocab_size)


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def sequence_similarity(a: list[str], b: list[str]) -> float:
    """Longest-common-subsequence length over the longer route length."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return _lcs_length(a, b) / max(len(a), len(b))


def _precedent_routes(memory: ProcessMemory, precedents) -> list[list[str]]:
    by_id = memory.by_graph_id
    return [by_id[p.graph_id].route for p in precedents if p.graph_id in by_id]


def _score_route(memory, precedent_routes, candidate: list[str], uniform: bool) -> float:
    pairs = list(zip(candidate, candidate[1:]))
    if pairs:
        log_sum = sum(
            math.log(_transition_prob(memory, a, b, uniform)) for a, b in pairs
        )
        transition = math.exp(log_sum / len(pairs))
    else:
        transition = 1.0  # a one-step route carries no transition evidence
    agreement = max(
        (sequence_similarity(candidate, r) for r in precedent_routes), default=0.0
    )
    return (transition + agreement) / 2.0


def _split_route(option: str) -> list[str]:
    return [part for part in option.split(" -> ") if part]


class ItemInputs:
    """The precedent-independent inputs of one item's lanes, each computed
    on first use and then reused by every scorer call given this object.
    A caller answering the item under several configs keeps the item's
    retrieval query here too, as ``query`` (None when no config
    retrieves), and any other per-item value under :meth:`once`."""

    def __init__(self, item: BenchItem, memory: ProcessMemory | None,
                 query: RetrievalQuery | None = None):
        self.item = item
        self.memory = memory
        self.query = query
        self._memo: dict = {}

    def once(self, key, build):
        """``build()``, computed on the first call with ``key`` and reused."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def option_vectors(self) -> np.ndarray:
        """Embedded option-completed texts, one row per option: the rows its
        query's block embedded with it when the block holds them (see
        :func:`option_texts`), else embedded here; the floats are the same."""

        def build():
            block = self.query.block if self.query is not None else None
            vectors = block.option_vectors(self.query.row) if block is not None else None
            if vectors is None:
                vectors = BuiltinTextEmbedder().embed(option_texts(self.item))
            return vectors

        return self.once("option_vectors", build)

    def step_matches(self, top_m: int) -> list:
        """:func:`match_steps` of the item's target step (B1/B2/C1 items)."""
        q = self.item.question
        return self.once(("step_matches", top_m), lambda: match_steps(
            self.memory, StepQuery.at(q.route, q.step_index, q.step_input_forms), top_m=top_m))

    def positional(self, window: float) -> list[float]:
        """Positional frequency of every option at the masked step (A2 items):
        the add-one share of library steps within ``window`` of its normalised
        position that carry the option."""

        def build():
            vocab_size, options = len(self.memory.vocab), self.item.options
            if vocab_size == 0:
                return [0.0] * len(options)
            q, index = self.item.question, self.memory.step_index
            norm_pos = StepQuery.at(q.route_with_mask, q.masked_index).norm_position
            activity = index.activity[np.abs(index.norm_position - norm_pos) <= window]
            denominator = len(activity) + vocab_size
            return [(int(np.count_nonzero(activity == label)) + 1.0) / denominator for label in options]

        return self.once(("positional", window), build)


def _inputs_for(item, memory, inputs) -> ItemInputs:
    """``inputs`` when given, fresh ones otherwise."""
    if inputs is None:
        return ItemInputs(item, memory)
    if inputs.item is not item or inputs.memory is not memory:
        raise InvalidParams(f"scoring inputs of {inputs.item.item_id!r} given for another item or memory")
    return inputs


def _weighted_match_frequency(
    item: BenchItem,
    inputs: ItemInputs,
    precedents,
    config: ScoringConfig,
    matches_option,
) -> list[float]:
    """Sum of rank weights over matched step entries satisfying the option.

    Match rank i contributes 1/(1+i), multiplied by a precedent boost
    1 + 1/(1+rank) when the entry's process was itself retrieved.
    """
    matched = inputs.step_matches(config.top_m)
    precedent_rank = {p.graph_id: rank for rank, p in enumerate(precedents)}
    scores = []
    for option in item.options:
        total = 0.0
        for rank, (_, entry) in enumerate(matched):
            if not matches_option(option, entry):
                continue
            weight = 1.0 / (1.0 + rank)
            if entry.graph_id in precedent_rank:
                weight *= 1.0 + 1.0 / (1.0 + precedent_rank[entry.graph_id])
            total += weight
        scores.append(total)
    return scores


def score_options_symbolic(
    item: BenchItem,
    precedents: list[RetrievedPrecedent],
    memory: ProcessMemory,
    config: ScoringConfig = ScoringConfig(),
    inputs: ItemInputs | None = None,
) -> OptionScores:
    """Fill raw_sym with the task-appropriate statistic per option."""
    inputs = _inputs_for(item, memory, inputs)
    q = item.question
    uniform = config.uniform_transitions

    if item.task in ("A1_route_retrieval", "D_process_ordering"):
        precedent_routes = _precedent_routes(memory, precedents)
        constraints = (
            payload_constraints(q.steps) if item.task == "D_process_ordering" else None
        )
        raw = []
        for option in item.options:
            candidate = _split_route(option)
            score = _score_route(memory, precedent_routes, candidate, uniform)
            if constraints is not None and order_satisfies(candidate, constraints):
                score += config.ordering_bonus
            raw.append(score)

    elif item.task == "A2_missing_step":
        left = q.route_with_mask[: q.masked_index]
        right_labels = q.route_with_mask[q.masked_index + 1 :]
        right = right_labels[0] if right_labels else None
        dist = next_distribution(memory, left)
        vocab_size = len(memory.vocab)
        denominator = (memory.total_in(right) if right else 0) + vocab_size
        w1, w2, w3 = config.three_way
        positional = inputs.positional(config.position_window)
        raw = []
        for option, option_positional in zip(item.options, positional):
            mass = (1.0 / vocab_size if vocab_size else 0.0) if uniform else dist.mass(option)
            if vocab_size == 0:
                reverse = 0.0
            elif uniform:
                reverse = 1.0 / vocab_size
            else:
                count = memory.transition_table.get((option, right), 0) if right else 0
                reverse = (count + 1.0) / denominator
            raw.append(w1 * mass + w2 * reverse + w3 * option_positional)

    elif item.task == "A3_next_activity":
        prefix = q.prefix
        dist = next_distribution(memory, prefix)
        vocab_size = len(memory.vocab)
        last = prefix[-1] if prefix else None
        successor_counts: dict[str, int] = {}
        successor_total = 0
        for route in _precedent_routes(memory, precedents):
            for a, b in zip(route, route[1:]):
                if a == last:
                    successor_counts[b] = successor_counts.get(b, 0) + 1
                    successor_total += 1
        w1, w2 = config.two_way
        raw = []
        for option in item.options:
            mass = (1.0 / vocab_size if vocab_size else 0.0) if uniform else dist.mass(option)
            if vocab_size == 0:
                continuation = 0.0
            else:
                continuation = (successor_counts.get(option, 0) + 1.0) / (
                    successor_total + vocab_size
                )
            raw.append(w1 * mass + w2 * continuation)

    elif item.task == "B1_condition_prediction":
        key = q.condition_key

        def value_matches(option, entry):
            stored = entry.conditions.get(key)
            return stored is not None and canon_label(stored) == canon_label(option)

        raw = _weighted_match_frequency(item, inputs, precedents, config, value_matches)

    elif item.task == "B2_full_condition_set":

        def tuple_matches(option, entry):
            if not all(k in entry.conditions for k in TUPLE_KEYS):
                return False
            return render_condition_tuple(entry.conditions) == option

        raw = _weighted_match_frequency(item, inputs, precedents, config, tuple_matches)

    else:  # C1_tool_selection

        def tool_matches(option, entry):
            return option in entry.tools

        raw = _weighted_match_frequency(item, inputs, precedents, config, tool_matches)

    return OptionScores(item_id=item.item_id, raw_sym=raw)


# --- neural lane ---------------------------------------------------------------------


def option_completed_text(item: BenchItem, option: str) -> str:
    """Render the question with the option substituted into its slot."""
    from .memory import linearize_parts  # local import keeps module load order simple

    q = item.question
    task = item.task
    if task in ("B1_condition_prediction", "B2_full_condition_set", "C1_tool_selection"):
        clauses = list(q.route)
        i = q.step_index
        if task == "B1_condition_prediction":
            clauses[i] = f"{clauses[i]}({q.condition_key}={option})"
        elif task == "B2_full_condition_set":
            clauses[i] = f"{clauses[i]}({option})"
        tools = [option] if task == "C1_tool_selection" else []
        return linearize_parts(route_text=" -> ".join(clauses), tools=tools)
    if task in ("A1_route_retrieval", "D_process_ordering"):
        route_text = option
    elif task == "A2_missing_step":
        route_text = " -> ".join(option if x == MASK_TOKEN else x for x in q.route_with_mask)
    else:  # A3_next_activity
        route_text = " -> ".join([*q.prefix, option])
    return linearize_parts(
        precursors=q.precursors,
        route_text=route_text,
        products=[q.product] if q.product else [],
    )


def option_texts(item: BenchItem) -> list[str]:
    """:func:`option_completed_text` of each of the item's options."""
    return [option_completed_text(item, option) for option in item.options]


def score_options_neural(
    item: BenchItem,
    precedents: list[RetrievedPrecedent],
    memory: ProcessMemory,
    config: ScoringConfig = ScoringConfig(),
    inputs: ItemInputs | None = None,
) -> OptionScores:
    """raw_neu per option: the highest cosine (mapped onto [0, 1]) between
    its option-completed text and the stored texts of the precedents."""
    vectors = _inputs_for(item, memory, inputs).option_vectors()
    index = memory.dense_index
    rows = [index.rows[p.graph_id] for p in precedents if p.graph_id in index.rows]
    sims = unit_cosines(vectors, index.text[rows], index.text_norm[rows])
    raw = [float(best) for best in sims.max(axis=1, initial=0.0)]
    return OptionScores(item_id=item.item_id, raw_neu=raw)


# --- fusion --------------------------------------------------------------------------


def fuse_scores(
    sym: OptionScores | None,
    neu: OptionScores | None,
    lam: float = DEFAULT_LAMBDA,
) -> OptionScores:
    """Min-max normalize each lane, then blend with weight lam on symbolic.

    A lane may be omitted only when its weight is zero (lam=1 drops the
    neural lane, lam=0 drops the symbolic lane).
    """
    from .runner import PolicyConfig  # runner imports this module
    check_ranges(PolicyConfig, lam=lam)
    if sym is None and neu is None:
        raise InvalidParams("fusion needs at least one scored lane")
    if sym is None and lam > 0.0:
        raise InvalidParams("symbolic lane missing but lambda > 0")
    if neu is None and lam < 1.0:
        raise InvalidParams("neural lane missing but lambda < 1")
    if sym is not None and neu is not None:
        if sym.item_id != neu.item_id:
            raise ArityMismatch(
                f"cannot fuse scores for {sym.item_id!r} with {neu.item_id!r}"
            )
        if len(sym.raw_sym) != len(neu.raw_neu):
            raise ArityMismatch(
                f"{sym.item_id}: symbolic arity {len(sym.raw_sym)}"
                f" != neural arity {len(neu.raw_neu)}"
            )

    out = OptionScores(item_id=(sym or neu).item_id, lam=lam)
    if sym is not None:
        out.raw_sym = list(sym.raw_sym)
        out.norm_sym = minmax_normalize(out.raw_sym)
    if neu is not None:
        out.raw_neu = list(neu.raw_neu)
        out.norm_neu = minmax_normalize(out.raw_neu)
    if sym is None:
        out.fused = list(out.norm_neu)
    elif neu is None:
        out.fused = list(out.norm_sym)
    else:
        out.fused = [
            lam * s + (1.0 - lam) * n for s, n in zip(out.norm_sym, out.norm_neu)
        ]
    return out
