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

TUPLE_KEYS = ("temperature", "duration", "atmosphere")

MASK_TOKEN = "?"


# Question payloads, one shape per task (QUESTION_TYPES); a bench file is
# checked against them when it is read, while BenchItem.question stays a dict.
@dataclass
class RouteQuestion:
    product: str
    precursors: list[str]


@dataclass
class MaskedQuestion(RouteQuestion):
    route_with_mask: list[str]
    masked_index: int


@dataclass
class PrefixQuestion(RouteQuestion):
    prefix: list[str]


@dataclass
class StepQuestion:
    route: list[str]
    step_index: int
    activity: str
    step_inputs: list[str]
    step_input_forms: list[str]


@dataclass
class ConditionQuestion(StepQuestion):
    condition_key: str


@dataclass
class OrderingStep:
    label: str
    inputs: list[str]
    outputs: list[str]


@dataclass
class OrderingQuestion(RouteQuestion):
    steps: list[OrderingStep]


QUESTION_TYPES = {
    "A1_route_retrieval": RouteQuestion,
    "A2_missing_step": MaskedQuestion,
    "A3_next_activity": PrefixQuestion,
    "B1_condition_prediction": ConditionQuestion,
    "B2_full_condition_set": StepQuestion,
    "C1_tool_selection": StepQuestion,
    "D_process_ordering": OrderingQuestion,
}

TASKS = tuple(QUESTION_TYPES)


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
