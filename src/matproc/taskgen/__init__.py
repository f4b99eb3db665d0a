"""Multiple-choice benchmark generation from compiled process graphs."""

from .model import (
    MASK_TOKEN,
    TASKS,
    TUPLE_KEYS,
    BenchItem,
    render_condition_tuple,
    render_route,
)
from .pools import DistractorPools, build_candidate_pools, weighted_distinct_sample
from .generate import (
    DEFAULT_K,
    GenCaps,
    generate_benchmark,
    instantiate_tasks,
    order_satisfies,
    payload_constraints,
)
from .store import BENCH_FORMAT, load_items, read_benchmark, write_benchmark

__all__ = [
    "BENCH_FORMAT",
    "BenchItem",
    "DEFAULT_K",
    "DistractorPools",
    "GenCaps",
    "MASK_TOKEN",
    "TASKS",
    "TUPLE_KEYS",
    "build_candidate_pools",
    "generate_benchmark",
    "instantiate_tasks",
    "load_items",
    "order_satisfies",
    "payload_constraints",
    "read_benchmark",
    "render_condition_tuple",
    "render_route",
    "weighted_distinct_sample",
    "write_benchmark",
]
