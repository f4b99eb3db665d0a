"""Instantiate the seven multiple-choice tasks from a compiled graph.

Gold answers are recoverable by rule from the source graph alone — the
generator's RNG only chooses which positions get items, which distractors
fill the remaining slots, and where the gold lands. Item seeds derive from
(global seed, graph id, task, ordinal), so generation is schedule
independent and a benchmark regenerates byte-identically.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..canon import derive_seed
from ..errors import ConfigConflict, PoolExhausted, RetentionFilterFailed
from ..jsonio import Record, check_ranges, knob
from ..memory import StepQuery
from ..provgraph import ProcessGraph, graph_view
from .model import (MASK_TOKEN, TUPLE_KEYS, BenchItem, ConditionQuestion, MaskedQuestion,
                    OrderingQuestion, OrderingStep, PrefixQuestion, Question, RouteQuestion,
                    StepQuestion, render_condition_tuple, render_route)
from .pools import DistractorPools, build_candidate_pools, weighted_distinct_sample

DEFAULT_K = 4


@dataclass
class GenCaps(Record):
    """Per-graph emission caps; tuned so the task mix stays B1-heavy."""

    load_error = ConfigConflict  # caps come from the run configuration

    a1: int = knob(1, "[0, inf)")
    a2: int = knob(3, "[0, inf)")
    a3: int = knob(3, "[0, inf)")
    b1: int = knob(4, "[0, inf)")
    b2: int = knob(2, "[0, inf)")
    c1: int = knob(3, "[0, inf)")
    d: int = knob(1, "[0, inf)")
    __post_init__ = check_ranges


def payload_constraints(steps: list[OrderingStep]) -> set[tuple[str, str]]:
    """Ordering constraints recomputable from a D question payload.

    Step i must precede step j when an output of i is an input of j. Label
    level on purpose: the payload never exposes node ids.
    """
    pairs = set()
    for a in steps:
        outs = set(a.outputs)
        for b in steps:
            if a.label != b.label and outs & set(b.inputs):
                pairs.add((a.label, b.label))
    return pairs


def order_satisfies(order: list[str], constraints: set[tuple[str, str]]) -> bool:
    pos = {label: i for i, label in enumerate(order)}
    return all(pos[i] < pos[j] for (i, j) in constraints if i in pos and j in pos)


def _place_gold(rng: random.Random, gold: str, distractors: list[str]) -> tuple[list[str], int]:
    gold_index = rng.randrange(len(distractors) + 1)
    options = list(distractors)
    options.insert(gold_index, gold)
    return options, gold_index


def _select_positions(candidates: list, cap: int, make_rng) -> list:
    """At most ``cap`` of ``candidates``, in their order; the selection RNG,
    ``make_rng()``, is built only when there are more candidates than that."""
    if len(candidates) <= cap:
        return list(candidates)
    return sorted(make_rng().sample(candidates, cap), key=candidates.index)


def _conditioned_or_global(sub: Counter, global_pool: Counter, gold: str, need: int) -> Counter:
    """The activity-conditioned sub-pool when it can fill the quota, else global."""
    usable = [k for k in sub if k != gold]
    return sub if len(usable) >= need else global_pool


def instantiate_tasks(
    g: ProcessGraph,
    pools: DistractorPools,
    k_options: int = DEFAULT_K,
    seed: int = 0,
    caps: GenCaps | None = None,
    skip_log: list | None = None,
) -> list[BenchItem]:
    from ..config import RunConfig  # config imports this package
    check_ranges(RunConfig, k_options=k_options)
    caps = caps or GenCaps()
    view = graph_view(g)
    steps, acts = view.steps, [step.activity for step in view.steps]
    if not acts or not view.precursors:
        raise RetentionFilterFailed(f"{g.record_id}: needs >=1 activity and >=1 precursor")

    gid = g.record_id
    need = k_options - 1
    route, product, precursors = list(view.route), view.product, list(view.precursors)
    items: list[BenchItem] = []

    def log_skip(task: str, reason: str) -> None:
        if skip_log is not None:
            skip_log.append({"graph_id": gid, "task": task, "reason": reason})

    def item_rng(task: str, ordinal: int) -> random.Random:
        return random.Random(derive_seed(seed, gid, task, ordinal))

    def select(task: str, candidates: list, cap: int) -> list:
        return _select_positions(
            candidates, cap, lambda: random.Random(derive_seed(seed, gid, task, "select")))

    def emit(task: str, ordinal: int, question: Question, gold: str, distractors: list[str]) -> None:
        place_rng = random.Random(derive_seed(seed, gid, task, ordinal, "gold"))
        options, gold_index = _place_gold(place_rng, gold, distractors)
        items.append(
            BenchItem(
                item_id=f"{gid}:{task}:{ordinal}",
                task=task,
                question=question,
                options=options,
                gold_index=gold_index,
                graph_id=gid,
                doi=g.doi,
                year=g.year,
                material_class=g.material_class,
            )
        )

    def sample_labels(task: str, ordinal: int, pool: Mapping, gold: str, exclude=()) -> list[str] | None:
        try:
            return weighted_distinct_sample(
                item_rng(task, ordinal), pool, need, exclude=set(exclude) | {gold}
            )
        except PoolExhausted:
            log_skip(task, "pool_exhausted")
            return None

    # A1: recover the full route for a product given its precursors
    task = "A1_route_retrieval"
    if caps.a1 >= 1:
        gold = render_route(route)
        # the shared pool may hold the gold text; sample_labels excludes it
        distractors = sample_labels(task, 0, pools.routes_near(len(route)), gold)
        if distractors is not None:
            emit(task, 0, RouteQuestion(product, precursors), gold, distractors)

    # A2: identify one masked activity from its neighbours; a route that
    # already holds the mask token as a label has no one masked position
    task = "A2_missing_step"
    if MASK_TOKEN in route:
        log_skip(task, "mask_token_in_route")
    positions = [] if MASK_TOKEN in route else list(range(len(route)))
    for ordinal, pos in enumerate(select(task, positions, caps.a2)):
        gold, at = route[pos], StepQuery.at(route, pos)
        neighbour_pool = Counter(pools.successors.get(at.prev_activity, {}))
        neighbour_pool.update(pools.predecessors.get(at.next_activity, {}))
        pool = _conditioned_or_global(neighbour_pool, pools.activity_labels, gold, need)
        distractors = sample_labels(task, ordinal, pool, gold)
        if distractors is None:
            continue
        masked = list(route)
        masked[pos] = MASK_TOKEN
        emit(task, ordinal, MaskedQuestion(product, precursors, masked), gold, distractors)

    # A3: continue a route prefix with the next activity
    task = "A3_next_activity"
    prefix_lengths = list(range(1, len(route)))
    for ordinal, plen in enumerate(select(task, prefix_lengths, caps.a3)):
        gold = route[plen]
        pool = _conditioned_or_global(
            pools.successors.get(route[plen - 1], Counter()), pools.activity_labels, gold, need
        )
        distractors = sample_labels(task, ordinal, pool, gold)
        if distractors is None:
            continue
        emit(task, ordinal, PrefixQuestion(product, precursors, route[:plen]), gold, distractors)

    def step_question(index: int, cls=StepQuestion, **more) -> StepQuestion:
        step = steps[index]
        return cls(route=route, step_index=index, step_inputs=list(step.inputs),
                   step_input_forms=list(step.input_forms), **more)

    # B1: predict one condition value on a target step
    task = "B1_condition_prediction"
    slots = [(i, key) for i, act in enumerate(acts) for key in sorted(act.conditions)]
    for ordinal, (i, key) in enumerate(select(task, slots, caps.b1)):
        gold = acts[i].conditions[key]
        pool = _conditioned_or_global(
            pools.values_by_activity.get((route[i], key), Counter()),
            pools.condition_values.get(key, Counter()),
            gold,
            need,
        )
        distractors = sample_labels(task, ordinal, pool, gold)
        if distractors is None:
            continue
        emit(task, ordinal, step_question(i, ConditionQuestion, condition_key=key), gold, distractors)

    # B2: predict the step's complete condition tuple
    task = "B2_full_condition_set"
    complete = [i for i, act in enumerate(acts) if all(k in act.conditions for k in TUPLE_KEYS)]
    for ordinal, i in enumerate(select(task, complete, caps.b2)):
        gold = render_condition_tuple(acts[i].conditions)
        distractors = sample_labels(task, ordinal, pools.rendered_tuples, gold)
        if distractors is None:
            continue
        emit(task, ordinal, step_question(i), gold, distractors)

    # C1: pick the tool the target step used
    task = "C1_tool_selection"
    with_tools = [i for i, step in enumerate(steps) if step.tools]
    for ordinal, i in enumerate(select(task, with_tools, caps.c1)):
        step_tools = steps[i].tools
        gold = step_tools[0]
        distractors = sample_labels(task, ordinal, pools.tool_labels, gold, exclude=step_tools)
        if distractors is None:
            continue
        emit(task, ordinal, step_question(i), gold, distractors)

    # D: order the shuffled steps into the causally valid sequence
    task = "D_process_ordering"
    if caps.d >= 1 and len(route) >= 2 and len(set(route)) == len(route):
        rng = item_rng(task, 0)
        shuffled = [OrderingStep(step.label, list(step.inputs), list(step.outputs)) for step in steps]
        rng.shuffle(shuffled)
        constraints = payload_constraints(shuffled)
        gold = render_route(route)
        if not order_satisfies(route, constraints):
            log_skip(task, "ambiguous_material_flow")
        else:
            violating = _violating_permutations(rng, route, constraints, need)
            if violating is None:
                log_skip(task, "pool_exhausted")
            else:
                question = OrderingQuestion(product, precursors, shuffled)
                emit(task, 0, question, gold, [render_route(p) for p in violating])

    return items


@functools.cache
def _index_permutations(n: int) -> np.ndarray:
    """Every permutation of range(n), one per row, in itertools order."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    perms.flags.writeable = False
    return perms


def _violates(perms: np.ndarray, route: list[str], constraints) -> np.ndarray:
    """Per row of ``perms`` (indices into a route of distinct labels): does
    the reordered route break a constraint, i.e. ``not order_satisfies``."""
    index = {label: i for i, label in enumerate(route)}
    pairs = [(index[a], index[b]) for a, b in constraints if a in index and b in index]
    if not pairs:
        return np.zeros(len(perms), dtype=bool)
    before, after = (np.array(side) for side in zip(*pairs))
    position = np.argsort(perms, axis=1)  # position[p, i]: where route[i] lands in row p
    return (position[:, before] >= position[:, after]).any(axis=1)


def _violating_permutations(
    rng: random.Random, route: list[str], constraints, need: int
) -> list[tuple[str, ...]] | None:
    """need distinct label permutations, each violating >=1 constraint.

    Routes are short (<=7 here), so exhaustive enumeration stays cheap;
    longer routes fall back to seeded rejection sampling.
    """
    if len(route) <= 7:
        perms = _index_permutations(len(route))
        bad = perms[_violates(perms, route, constraints)]
        if len(bad) < need:
            return None
        return sorted(tuple(route[i] for i in bad[j]) for j in rng.sample(range(len(bad)), need))
    found: set[tuple[str, ...]] = set()
    for _ in range(200 * need):
        perm = list(route)
        rng.shuffle(perm)
        t = tuple(perm)
        if not order_satisfies(perm, constraints):
            found.add(t)
        if len(found) == need:
            return sorted(found)
    return None


def generate_benchmark(
    corpus: list[ProcessGraph],
    k_options: int = DEFAULT_K,
    seed: int = 0,
    caps: GenCaps | None = None,
) -> tuple[list[BenchItem], list[dict]]:
    """Pools over the whole corpus, then per-graph instantiation."""
    pools = build_candidate_pools(corpus)
    items: list[BenchItem] = []
    skip_log: list[dict] = []
    for g in corpus:
        try:
            items.extend(
                instantiate_tasks(g, pools, k_options=k_options, seed=seed, caps=caps, skip_log=skip_log)
            )
        except RetentionFilterFailed:
            skip_log.append({"graph_id": g.record_id, "task": "*", "reason": "retention_filter"})
    return items, skip_log
