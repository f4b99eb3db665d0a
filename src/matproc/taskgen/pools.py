"""Corpus-derived candidate pools for distractor sampling.

Every pool keeps occurrence counts so sampling can be frequency-weighted,
and every element is something actually observed in the corpus — no
distractor is ever synthesized de novo.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

from ..errors import EmptyCorpus, PoolExhausted
from ..provgraph import ProcessGraph, route_labels, step_tool_labels
from .model import TUPLE_KEYS, render_condition_tuple, render_route


@dataclass
class DistractorPools:
    routes: Counter = field(default_factory=Counter)  # tuple[str, ...] -> count
    activity_labels: Counter = field(default_factory=Counter)
    tool_labels: Counter = field(default_factory=Counter)
    condition_values: dict[str, Counter] = field(default_factory=dict)
    condition_tuples: Counter = field(default_factory=Counter)  # tuple of TUPLE_KEYS values
    # activity-conditioned sub-pools
    successors: dict[str, Counter] = field(default_factory=dict)
    predecessors: dict[str, Counter] = field(default_factory=dict)
    values_by_activity: dict[tuple[str, str], Counter] = field(default_factory=dict)
    # every pool route rendered once, in pool order: (text, route length, count)
    rendered_routes: list[tuple[str, int, int]] = field(default_factory=list)
    rendered_tuples: Counter = field(default_factory=Counter)  # rendered condition tuple -> count
    # route length -> routes_near(length), for every route length of the corpus
    routes_by_length: dict[int, Counter] = field(default_factory=dict)

    def routes_near(self, length: int) -> Counter:
        """Rendered routes, each weighted ``count / (1 + |len(r) - length|)``.

        Summed per text in pool order, so every weight is the float a
        per-graph pass would compute. The pool of a corpus route length is
        the one built with the pools; another length's is built afresh.
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
        route = route_labels(g)
        pools.routes[tuple(route)] += 1
        for left, right in zip(route, route[1:]):
            pools.successors.setdefault(left, Counter())[right] += 1
            pools.predecessors.setdefault(right, Counter())[left] += 1
        for act, label in zip(g.ordered_activities(), route):
            pools.activity_labels[label] += 1
            for tool in step_tool_labels(g, act.id):
                pools.tool_labels[tool] += 1
            for key, value in act.conditions.items():
                pools.condition_values.setdefault(key, Counter())[value] += 1
                pools.values_by_activity.setdefault((label, key), Counter())[value] += 1
            if all(k in act.conditions for k in TUPLE_KEYS):
                pools.condition_tuples[tuple(act.conditions[k] for k in TUPLE_KEYS)] += 1
    pools.rendered_routes = [(render_route(r), len(r), count) for r, count in pools.routes.items()]
    pools.routes_by_length = {length: _routes_near(pools.rendered_routes, length)
                              for length in {len(r) for r in pools.routes}}
    for values, count in pools.condition_tuples.items():
        pools.rendered_tuples[render_condition_tuple(dict(zip(TUPLE_KEYS, values)))] += count
    return pools


def weighted_distinct_sample(rng, pool: Counter, n: int, exclude=()) -> list:
    """n distinct pool elements, frequency-weighted, excluding `exclude`.

    Seeded draws first; if the weighted draws keep colliding, the tail is
    filled deterministically by descending count so the call always
    terminates. Raises PoolExhausted when fewer than n candidates exist.
    """
    excluded = set(exclude)
    candidates = sorted(k for k in pool if k not in excluded)
    if len(candidates) < n:
        raise PoolExhausted(f"pool holds {len(candidates)} candidates, {n} needed")
    cum_weights = list(itertools.accumulate(pool[k] for k in candidates))
    chosen: list = []
    seen = set()
    attempts = 0
    while len(chosen) < n and attempts < 50 * n:
        pick = rng.choices(candidates, cum_weights=cum_weights, k=1)[0]
        attempts += 1
        if pick not in seen:
            seen.add(pick)
            chosen.append(pick)
    if len(chosen) < n:
        for k in sorted(candidates, key=lambda c: (-pool[c], c)):
            if k not in seen:
                seen.add(k)
                chosen.append(k)
            if len(chosen) == n:
                break
    return chosen
