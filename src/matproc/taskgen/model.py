"""Benchmark item type and shared rendering rules.

Option strings are canonical renderings so the gold answer can be
recomputed from the source graph without touching the generator's RNG:
routes and orderings join canonical activity labels with " -> ", full
condition sets render the three fields in a fixed key order.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..canon import canon_label
from ..errors import MalformedDocument
from ..jsonio import Record, check_fields

TUPLE_KEYS = ("temperature", "duration", "atmosphere")

MASK_TOKEN = "?"

# the letters a prompt names options by; an item has at least two options
OPTION_LETTERS = "ABCDEFGH"
OPTION_COUNTS = range(2, len(OPTION_LETTERS) + 1)


def _check_index(obj, name: str, within: list) -> None:
    """Raise MalformedDocument unless ``obj.<name>`` indexes ``within``."""
    index = getattr(obj, name)
    if not 0 <= index < len(within):
        raise MalformedDocument(f"{type(obj).__name__}.{name}: {index} is outside [0, {len(within)})")


# Question payloads, one type per task (QUESTION_TYPES).
@dataclass
class RouteQuestion:
    product: str
    precursors: list[str]


@dataclass
class MaskedQuestion(RouteQuestion):
    route_with_mask: list[str]
    masked_index: int

    def __post_init__(self):
        _check_index(self, "masked_index", self.route_with_mask)


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

    def __post_init__(self):
        _check_index(self, "step_index", self.route)
        if self.activity != self.route[self.step_index]:
            raise MalformedDocument(f"{type(self).__name__}.activity: {self.activity!r} is not "
                                    f"route[{self.step_index}], {self.route[self.step_index]!r}")


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

# every question type derives from one of these
Question = RouteQuestion | StepQuestion


def render_route(labels) -> str:
    return " -> ".join(canon_label(x) for x in labels)


def render_condition_tuple(conditions: dict) -> str:
    return "; ".join(f"{k}={conditions[k]}" for k in TUPLE_KEYS)


@dataclass
class BenchItem(Record):
    item_id: str
    task: str
    question: Question  # a QUESTION_TYPES[task], built here from a JSON object
    options: list[str]
    gold_index: int
    graph_id: str
    doi: str = ""
    year: int | None = None
    material_class: str = "other"

    def __post_init__(self):
        try:
            cls = QUESTION_TYPES.get(self.task)
            if cls is None:
                raise MalformedDocument(f"task {self.task!r} is not one of {', '.join(TASKS)}")
            if type(self.question) is not cls:
                self.question = cls(**check_fields(cls, self.question))
            if len(self.options) not in OPTION_COUNTS:
                raise MalformedDocument(f"BenchItem.options: {len(self.options)} options, "
                                        f"expected {OPTION_COUNTS[0]} to {OPTION_COUNTS[-1]}")
            if len(set(self.options)) < len(self.options):
                repeated = next(o for i, o in enumerate(self.options) if o in self.options[:i])
                raise MalformedDocument(f"BenchItem.options: {repeated!r} is repeated")
            _check_index(self, "gold_index", self.options)
        except MalformedDocument as exc:
            raise MalformedDocument(f"item {self.item_id!r}: {exc}") from None

    def gold_option(self) -> str:
        return self.options[self.gold_index]
