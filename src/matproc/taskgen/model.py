"""Benchmark item type and shared rendering rules.

Option strings are canonical renderings so the gold answer can be
recomputed from the source graph without touching the generator's RNG:
routes and orderings join canonical activity labels with " -> ", full
condition sets render the three fields in a fixed key order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..canon import canon_label
from ..jsonio import Record

TASKS = (
    "A1_route_retrieval",
    "A2_missing_step",
    "A3_next_activity",
    "B1_condition_prediction",
    "B2_full_condition_set",
    "C1_tool_selection",
    "D_process_ordering",
)

TUPLE_KEYS = ("temperature", "duration", "atmosphere")

MASK_TOKEN = "?"


def render_route(labels) -> str:
    return " -> ".join(canon_label(x) for x in labels)


def render_condition_tuple(conditions: dict) -> str:
    return "; ".join(f"{k}={conditions[k]}" for k in TUPLE_KEYS)


@dataclass
class BenchItem(Record):
    item_id: str
    task: str
    question: dict
    options: list[str]
    gold_index: int
    graph_id: str
    doi: str = ""
    year: int | None = None
    material_class: str = "other"

    def gold_option(self) -> str:
        return self.options[self.gold_index]


@dataclass
class ValidityReport:
    item_id: str
    ok: bool = True
    problems: list[str] = field(default_factory=list)

    def flag(self, code: str, detail: str) -> None:
        self.ok = False
        self.problems.append(f"{code}: {detail}")
