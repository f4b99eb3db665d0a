"""Corpus-wide distractor pools give the same benchmark as per-graph rendering.

Each reference below is the per-graph code the pools replaced: A1 and B2
rendered every pool entry for every item, sampling rebuilt its cumulative
weights on every draw, and D filtered the label permutations one by one
with ``order_satisfies``. Results are compared with ``==``.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matproc.errors import PoolExhausted
from matproc.provgraph import SynthParams, generate_synthetic_corpus, graph_view
from matproc.taskgen import (
    TUPLE_KEYS,
    build_candidate_pools,
    generate_benchmark,
    order_satisfies,
    render_condition_tuple,
    render_route,
    weighted_distinct_sample,
)
from matproc.taskgen import generate, model, pools as pools_module
from matproc.taskgen.pools import PreparedPool


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_corpus(SynthParams(n_records=100), seed=7)


def reference_a1_pool(pools, route, gold):
    rendered = Counter()
    for r, count in pools.routes.items():
        text = render_route(r)
        if text != gold:
            rendered[text] += count / (1 + abs(len(r) - len(route)))
    return rendered


def reference_b2_pool(pools, gold):
    rendered = Counter()
    for values, count in pools.condition_tuples.items():
        text = render_condition_tuple(dict(zip(TUPLE_KEYS, values)))
        if text != gold:
            rendered[text] += count
    return rendered


def reference_sample(rng, pool, n, exclude=()):
    excluded = set(exclude)
    candidates = sorted(k for k in pool if k not in excluded)
    if len(candidates) < n:
        raise PoolExhausted(f"pool holds {len(candidates)} candidates, {n} needed")
    weights = [pool[k] for k in candidates]
    chosen, seen, attempts = [], set(), 0
    while len(chosen) < n and attempts < 50 * n:
        pick = rng.choices(candidates, weights=weights, k=1)[0]
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


def reference_violating(rng, route, constraints, need):
    bad = [p for p in itertools.permutations(route) if not order_satisfies(list(p), constraints)]
    if len(bad) < need:
        return None
    return sorted(rng.sample(bad, need))


def condition_tuples(g):
    return [
        render_condition_tuple(act.conditions)
        for act in g.ordered_activities()
        if all(k in act.conditions for k in TUPLE_KEYS)
    ]


def test_a1_route_pool_matches_per_graph_rendering(corpus):
    pools = build_candidate_pools(corpus)
    floats = 0
    for g in corpus:
        route = graph_view(g).route
        gold = render_route(route)
        shared = pools.routes_near(len(route))
        assert shared is pools.routes_near(len(route))  # built once per length
        own = Counter({k: v for k, v in shared.items() if k != gold})
        expected = reference_a1_pool(pools, route, gold)
        assert own == expected
        assert list(own) == list(expected)  # same texts, same pool order
        floats += sum(1 for v in own.values() if v != int(v))
    assert floats  # the weights are genuinely fractional


def test_b2_tuple_pool_matches_per_graph_rendering(corpus):
    pools = build_candidate_pools(corpus)
    golds = [gold for g in corpus for gold in condition_tuples(g)]
    assert golds
    for gold in golds:
        own = Counter({k: v for k, v in pools.rendered_tuples.items() if k != gold})
        assert own == reference_b2_pool(pools, gold)


def test_shared_pools_sample_like_per_graph_pools(corpus):
    pools = build_candidate_pools(corpus)
    cases = 0
    for g in corpus[:40]:
        route = graph_view(g).route
        gold = render_route(route)
        targets = [(pools.routes_near(len(route)), reference_a1_pool(pools, route, gold), gold)]
        targets += [
            (pools.rendered_tuples, reference_b2_pool(pools, tup), tup) for tup in condition_tuples(g)
        ]
        for shared, own, gold in targets:
            for seed in range(3):
                new = weighted_distinct_sample(random.Random(seed), shared, 3, exclude={gold})
                assert new == reference_sample(random.Random(seed), own, 3)
                cases += 1
    assert cases > 100


@pytest.mark.parametrize("n", [1, 3, 6, 9])
def test_sampler_matches_per_draw_weights(n):
    rng = random.Random(n)
    for trial in range(60):
        size = rng.randrange(1, 14)
        pool = Counter({f"k{i:02d}": rng.choice([1, 2, 7, 0.25, 1 / 3, 2.5]) for i in range(size)})
        exclude = set(rng.sample(sorted(pool), min(size, rng.randrange(0, 3))))
        try:
            expected = reference_sample(random.Random(trial), pool, n, exclude)
        except PoolExhausted:
            with pytest.raises(PoolExhausted):
                weighted_distinct_sample(random.Random(trial), pool, n, exclude)
            continue
        assert weighted_distinct_sample(random.Random(trial), pool, n, exclude) == expected


def sampled(sample, seed, pool, n, exclude):
    """What ``sample`` returns or raises, and the next float of its RNG."""
    rng = random.Random(seed)
    try:
        got = sample(rng, pool, n, exclude)
    except (PoolExhausted, ValueError) as exc:
        got = (type(exc), str(exc))
    return got, rng.random()


# the keys an item leaves out, picked from the pool's sorted keys
EXCLUSIONS = {
    "none": lambda keys: [],
    "first": lambda keys: keys[:1],
    "middle": lambda keys: keys[len(keys) // 2 : len(keys) // 2 + 1],
    "last": lambda keys: keys[-1:],
    "absent": lambda keys: ["~absent"],
    "several": lambda keys: [*keys[1::3], "~absent", *keys[:1]],  # C1 leaves out a step's tools
}
WEIGHTS = st.one_of(st.integers(0, 7), st.floats(0.0, 5.0), st.sampled_from([1 / 3, 0.1, 2.5, 1e-9]))


@pytest.mark.parametrize("where", EXCLUSIONS)
@settings(max_examples=80, deadline=None, derandomize=True)
@given(pool=st.dictionaries(st.text("abcde", min_size=1, max_size=3), WEIGHTS, min_size=1, max_size=14),
       n=st.integers(0, 7), seed=st.integers(0, 2**32 - 1))
@example(pool={"a": 2, "b": 1, "c": 4, "d": 1}, n=2, seed=0)  # int weights
@example(pool={"a": 0.25, "b": 1 / 3, "c": 2.5, "d": 0.1}, n=3, seed=1)  # float weights
@example(pool={"a": 1e12, "b": 1, "c": 2, "d": 1, "e": 3}, n=3, seed=2)  # fills from the fallback
@example(pool={"a": 1, "b": 2}, n=5, seed=3)  # PoolExhausted
@example(pool={"a": 0, "b": 0, "c": 0.0}, n=1, seed=4)  # zero total: ValueError
@example(pool={"a": 1, "b": -3, "c": 1}, n=1, seed=5)  # negative total: ValueError
@example(pool={"a": 1.0, "b": float("inf")}, n=1, seed=6)  # infinite total: ValueError
def test_prepared_sampler_equals_the_choices_reference(where, pool, n, seed):
    pool = Counter(pool)
    exclude = EXCLUSIONS[where](sorted(pool))
    want = sampled(reference_sample, seed, pool, n, exclude)
    prepared = PreparedPool(pool)
    assert sampled(weighted_distinct_sample, seed, pool, n, exclude) == want
    assert sampled(weighted_distinct_sample, seed, prepared, n, exclude) == want
    assert prepared == pool and list(prepared) == list(pool)  # pool order, left as built


def test_shared_pools_are_prepared_once(corpus):
    pools = build_candidate_pools(corpus)
    shared = [*pools.routes_by_length.values(), pools.rendered_tuples, pools.tool_labels]
    assert all(isinstance(pool, PreparedPool) for pool in shared)
    for pool in shared:
        assert pool.ordered == tuple(sorted(pool))
        assert pool.cum_weights == tuple(itertools.accumulate(pool[k] for k in pool.ordered))
        with pytest.raises(TypeError):
            pool["new"] = 1  # read-only


def test_violating_permutations_match_exhaustive_filter(corpus):
    rng = random.Random(0)
    checked = nones = 0
    routes = [graph_view(g).route for g in corpus]
    routes = [r for r in routes if len(set(r)) == len(r)]
    routes += [[f"s{i}" for i in range(n)] for n in range(1, 8)]
    for route in routes:
        labels = list(route)
        for trial in range(6):
            n_pairs = rng.randrange(0, 4) if len(labels) > 1 else 0
            constraints = {tuple(rng.sample(labels, 2)) for _ in range(n_pairs)}
            if trial == 5:  # a constraint naming a label outside the route is ignored
                constraints.add(("absent", labels[0]))
            for need in (1, 3, 40):
                expected = reference_violating(random.Random(trial), route, constraints, need)
                got = generate._violating_permutations(random.Random(trial), route, constraints, need)
                assert got == expected
                checked += 1
                nones += expected is None
    assert checked > 500 and nones  # the exhausted path is exercised too


@pytest.mark.parametrize(
    "n_graphs, k_options, exhausted",
    [
        (100, 4, set()),
        (6, 7, {"A1_route_retrieval", "D_process_ordering"}),
        (2, 8, {"A1_route_retrieval", "B2_full_condition_set", "D_process_ordering"}),
    ],
)
def test_benchmark_matches_reference_sampling(corpus, monkeypatch, n_graphs, k_options, exhausted):
    graphs = corpus[:n_graphs]
    items, skips = generate_benchmark(graphs, k_options=k_options, seed=4)
    monkeypatch.setattr(generate, "weighted_distinct_sample", reference_sample)
    monkeypatch.setattr(generate, "_violating_permutations", reference_violating)
    monkeypatch.setattr(
        pools_module.DistractorPools,
        "routes_near",
        lambda self, length: reference_a1_pool(self, ["_"] * length, gold=None),
    )
    ref_items, ref_skips = generate_benchmark(graphs, k_options=k_options, seed=4)
    assert items and [it.to_dict() for it in items] == [it.to_dict() for it in ref_items]
    assert skips == ref_skips
    assert {s["task"] for s in skips if s["reason"] == "pool_exhausted"} >= exhausted


def test_render_route_calls_grow_with_graphs_plus_routes(corpus, monkeypatch):
    distinct = len(build_candidate_pools(corpus).routes)
    calls = Counter()

    def counted(labels):
        calls["render_route"] += 1
        return model.render_route(labels)

    for module in (generate, pools_module):
        monkeypatch.setattr(module, "render_route", counted)
    generate_benchmark(corpus, seed=4)
    # per graph: the A1 gold, the D gold and three D distractors
    assert calls["render_route"] <= 5 * len(corpus) + distinct
    assert calls["render_route"] < len(corpus) * distinct / 10
