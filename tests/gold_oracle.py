"""The test oracle of question generation, a round-trip validity check:
the gold answer must be recomputable from the source graph, and ordering
distractors must visibly violate the flow."""

from __future__ import annotations

from dataclasses import dataclass, field

from matproc.canon import canon_label
from matproc.provgraph import ProcessGraph
from matproc.taskgen import (TUPLE_KEYS, BenchItem, order_satisfies, payload_constraints,
                             render_condition_tuple, render_route)


@dataclass
class ValidityReport:
    item_id: str
    ok: bool = True
    problems: list[str] = field(default_factory=list)

    def flag(self, code: str, detail: str) -> None:
        self.ok = False
        self.problems.append(f"{code}: {detail}")


def expected_gold(item: BenchItem, g: ProcessGraph) -> str | None:
    """Recompute the gold option string by rule; None when the graph has none.
    The route and a step's tools are derived here from the graph itself, not
    through ``graph_view``, so the generator is never checked against itself."""
    acts = g.ordered_activities()
    route = [canon_label(a.label) for a in acts]
    q = item.question
    if item.task == "A2_missing_step":
        return route[q.masked_index]
    if item.task == "A3_next_activity":
        return route[len(q.prefix)]
    if item.task == "B1_condition_prediction":
        return acts[q.step_index].conditions.get(q.condition_key)
    if item.task == "B2_full_condition_set":
        conditions = acts[q.step_index].conditions
        if not all(k in conditions for k in TUPLE_KEYS):
            return None
        return render_condition_tuple(conditions)
    if item.task == "C1_tool_selection":
        act_id = acts[q.step_index].id
        used = {eid for eid, aid in g.usage_edges if aid == act_id}
        tools = sorted({canon_label(t.label) for t in g.tool_entities if t.id in used})
        return tools[0] if tools else None
    return render_route(route)  # A1_route_retrieval, D_process_ordering


def validate_item(item: BenchItem, g: ProcessGraph) -> ValidityReport:
    report = ValidityReport(item_id=item.item_id)
    if item.graph_id != g.record_id:
        report.flag("WrongGraph", f"item cites {item.graph_id}, graph is {g.record_id}")
        return report
    if len(set(item.options)) != len(item.options):
        report.flag("DuplicateOptions", "options are not pairwise distinct")

    expected = expected_gold(item, g)
    if expected is None:
        report.flag("GoldMismatch", f"no gold derivable for task {item.task}")
    elif expected != item.gold_option():
        report.flag("GoldMismatch", f"expected {expected!r}, stored {item.gold_option()!r}")

    if item.task == "D_process_ordering":
        constraints = payload_constraints(item.question.steps)
        for idx, option in enumerate(item.options):
            if idx == item.gold_index:
                continue
            if order_satisfies(option.split(" -> "), constraints):
                report.flag("DistractorViolationMissing", f"option {idx} is a valid ordering")
    return report
