"""Corpus-derived candidate pools for distractor sampling.

Every pool keeps occurrence counts so sampling can be frequency-weighted,
and every element is something actually observed in the corpus — no
distractor is ever synthesized de novo.

The pools every graph shares (``routes_by_length``' values,
``rendered_tuples`` and ``tool_labels``) are built once as
:class:`PreparedPool`: a read-only mapping that also holds its keys in
sorted order, their weights and the prefix sums of those weights. A draw
then leaves out the item's own answers by splicing those lists instead of
sorting and summing the pool again, and it bisects the prefix sums itself.
The draws are the ones ``random.Random.choices`` makes over the sorted,
gold-free pool, to the last bit.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect, bisect_left
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from ..errors import EmptyCorpus, PoolExhausted
from ..provgraph import ProcessGraph, graph_view
from .model import TUPLE_KEYS, render_condition_tuple, render_route


class PreparedPool(Mapping):
    """A read-only pool: its counts in pool order, and its keys in sorted
    order (``ordered``) with their ``weights`` and prefix sums
    (``cum_weights``, as ``itertools.accumulate`` gives them)."""

    __slots__ = ("_counts", "ordered", "weights", "cum_weights")

    def __init__(self, counts: Mapping):
        self._counts = dict(counts)
        self.ordered = tuple(sorted(self._counts))
        self.weights = tuple(self._counts[k] for k in self.ordered)
        self.cum_weights = tuple(itertools.accumulate(self.weights))

    def __getitem__(self, key):
        return self._counts[key]

    def __iter__(self):
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def without(self, exclude) -> tuple[Sequence, Sequence]:
        """The sorted keys not in ``exclude``, and the prefix sums of their
        weights. The sums before the first excluded key are the pool's own;
        the rest are summed again in order, so each is the float
        ``itertools.accumulate`` gives over the remaining weights."""
        cut = sorted({bisect_left(self.ordered, k) for k in exclude if k in self._counts})
        if not cut:
            return self.ordered, self.cum_weights
        first = cut[0]
        keys = list(self.ordered[:first])
        weights: list = []
        for lo, hi in zip(cut, [*cut[1:], len(self.ordered)]):
            keys += self.ordered[lo + 1 : hi]
            weights += self.weights[lo + 1 : hi]
        if not first:
            return keys, list(itertools.accumulate(weights))
        # the first sum yielded is the initial one, the last kept sum
        return keys, [*self.cum_weights[: first - 1],
                      *itertools.accumulate(weights, initial=self.cum_weights[first - 1])]


@dataclass
class DistractorPools:
    routes: Counter = field(default_factory=Counter)  # tuple[str, ...] -> count
    activity_labels: Counter = field(default_factory=Counter)
    tool_labels: Mapping = field(default_factory=Counter)  # a PreparedPool once built
    condition_values: dict[str, Counter] = field(default_factory=dict)
    condition_tuples: Counter = field(default_factory=Counter)  # tuple of TUPLE_KEYS values
    # activity-conditioned sub-pools
    successors: dict[str, Counter] = field(default_factory=dict)
    predecessors: dict[str, Counter] = field(default_factory=dict)
    values_by_activity: dict[tuple[str, str], Counter] = field(default_factory=dict)
    # every pool route rendered once, in pool order: (text, route length, count)
    rendered_routes: list[tuple[str, int, int]] = field(default_factory=list)
    # rendered condition tuple -> count, a PreparedPool once built
    rendered_tuples: Mapping = field(default_factory=Counter)
    # route length -> routes_near(length), for every route length of the corpus
    routes_by_length: dict[int, PreparedPool] = field(default_factory=dict)

    def routes_near(self, length: int) -> Mapping:
        """Rendered routes, each weighted ``count / (1 + |len(r) - length|)``.

        Summed per text in pool order, so every weight is the float a
        per-graph pass would compute. The pool of a corpus route length is
        the prepared one built with the pools; another length's is built
        afresh, as a plain Counter.
        """
        pool = self.routes_by_length.get(length)
        return pool if pool is not None else _routes_near(self.rendered_routes, length)


def _routes_near(rendered_routes: list[tuple[str, int, int]], length: int) -> Counter:
    pool: Counter = Counter()
    for text, route_len, count in rendered_routes:
        pool[text] += count / (1 + abs(route_len - length))
    return pool


def build_candidate_pools(corpus: list[ProcessGraph]) -> DistractorPools:
    """Single pass over compiled graphs; counts retained for weighting."""
    if not corpus:
        raise EmptyCorpus("candidate pools need at least one graph")
    pools = DistractorPools()
    for g in corpus:
        view = graph_view(g)
        route = view.route
        pools.routes[route] += 1
        for left, right in zip(route, route[1:]):
            pools.successors.setdefault(left, Counter())[right] += 1
            pools.predecessors.setdefault(right, Counter())[left] += 1
        for step in view.steps:
            act, label = step.activity, step.label
            pools.activity_labels[label] += 1
            pools.tool_labels.update(step.tools)
            for key, value in act.conditions.items():
                pools.condition_values.setdefault(key, Counter())[value] += 1
                pools.values_by_activity.setdefault((label, key), Counter())[value] += 1
            if all(k in act.conditions for k in TUPLE_KEYS):
                pools.condition_tuples[tuple(act.conditions[k] for k in TUPLE_KEYS)] += 1
    pools.tool_labels = PreparedPool(pools.tool_labels)
    pools.rendered_routes = [(render_route(r), len(r), count) for r, count in pools.routes.items()]
    pools.routes_by_length = {length: PreparedPool(_routes_near(pools.rendered_routes, length))
                              for length in {len(r) for r in pools.routes}}
    for values, count in pools.condition_tuples.items():
        pools.rendered_tuples[render_condition_tuple(dict(zip(TUPLE_KEYS, values)))] += count
    pools.rendered_tuples = PreparedPool(pools.rendered_tuples)
    return pools


def weighted_distinct_sample(rng, pool: Mapping, n: int, exclude=()) -> list:
    """n distinct pool elements, frequency-weighted, excluding `exclude`.

    Seeded draws first, each the one ``rng.choices`` makes over the sorted
    candidates and their weights; if the weighted draws keep colliding, the
    tail is filled deterministically by descending count so the call always
    terminates. Raises PoolExhausted when fewer than n candidates exist, and
    ValueError, as ``choices`` does, when the candidates' total weight is not
    a positive finite number. A pool that is not a :class:`PreparedPool` is
    prepared first.
    """
    prepared = pool if isinstance(pool, PreparedPool) else PreparedPool(pool)
    candidates, cum_weights = prepared.without(exclude)
    if len(candidates) < n:
        raise PoolExhausted(f"pool holds {len(candidates)} candidates, {n} needed")
    chosen: list = []
    if not n:
        return chosen
    total = cum_weights[-1] + 0.0
    if total <= 0.0:
        raise ValueError("Total of weights must be greater than zero")
    if not math.isfinite(total):
        raise ValueError("Total of weights must be finite")
    draw, last = rng.random, len(candidates) - 1
    seen = set()
    attempts = 0
    while len(chosen) < n and attempts < 50 * n:
        pick = candidates[bisect(cum_weights, draw() * total, 0, last)]
        attempts += 1
        if pick not in seen:
            seen.add(pick)
            chosen.append(pick)
    if len(chosen) < n:
        for k in sorted(candidates, key=lambda c: (-prepared[c], c)):
            if k not in seen:
                seen.add(k)
                chosen.append(k)
            if len(chosen) == n:
                break
    return chosen
