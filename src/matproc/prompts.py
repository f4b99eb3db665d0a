"""Prompt templates and answer parsing.

Each mode renders a deterministic message list. Answer-style
prompts instruct a single option letter; evidence lines render each
option's fused score to three decimals so an evidence-following reader
(human, model, or the test mock) can act on them.
"""

from __future__ import annotations

import re

from .errors import MissingContext
from .memory import ProcessMemory, StepQuery, linearize_process
from .retrieval import RetrievedPrecedent
from .scoring import OptionScores
from .taskgen import MASK_TOKEN, BenchItem
from .taskgen.model import OPTION_LETTERS

PROMPT_MODES = ("plan", "answer", "zero_shot", "few_shot", "rag", "graphrag")

SYSTEM_TEXT = (
    "You answer multiple-choice questions about inorganic materials "
    "synthesis processes. Be precise; never invent options."
)
ANSWER_INSTRUCTION = (
    "Respond with a single option letter and nothing else."
)
PLAN_INSTRUCTION = (
    "Write a brief plan for picking the answer. Do not answer yet."
)


def question_text(item: BenchItem) -> str:
    q = item.question
    task = item.task
    if task == "A1_route_retrieval":
        return (
            f"Which operation sequence synthesizes {q.product} "
            f"from: {', '.join(q.precursors)}?"
        )
    if task == "A2_missing_step":
        route = " -> ".join(
            "[?]" if x == MASK_TOKEN else x for x in q.route_with_mask
        )
        return (
            f"One step in this route for {q.product} is masked: {route}. "
            f"Which operation is masked?"
        )
    if task == "A3_next_activity":
        return (
            f"A synthesis of {q.product} begins: {' -> '.join(q.prefix)}. "
            f"Which operation comes next?"
        )
    if task in ("B1_condition_prediction", "B2_full_condition_set", "C1_tool_selection"):
        route = " -> ".join(q.route)
        step = f"step {q.step_index + 1} ({q.activity})"
        inputs = ", ".join(q.step_inputs)
        context = f"Route: {route}. Target: {step}"
        if inputs:
            context += f", consuming {inputs}"
        if task == "B1_condition_prediction":
            return f"{context}. Which {q.condition_key} setting does this step use?"
        if task == "B2_full_condition_set":
            return f"{context}. Which complete condition set does this step use?"
        return f"{context}. Which tool does this step use?"
    lines = [  # D_process_ordering
        f"- {s.label} (uses: {', '.join(s.inputs) or 'none'}; "
        f"makes: {', '.join(s.outputs) or 'none'})"
        for s in q.steps
    ]
    return (
        f"These synthesis steps for {q.product} are shuffled:\n"
        + "\n".join(lines)
        + "\nWhich ordering is causally valid?"
    )


def options_block(item: BenchItem) -> str:
    return "\n".join(
        f"{OPTION_LETTERS[i]}) {option}" for i, option in enumerate(item.options)
    )


# one line of evidence_block: the option's letter and text, then its fused score
EVIDENCE_LINE = re.compile(rf"^([{OPTION_LETTERS}])\) .*\[compatibility (\d+\.\d{{3}})\]\s*$",
                           re.MULTILINE)


def evidence_block(item: BenchItem, scores: OptionScores) -> str:
    lines = ["Compatibility evidence:"]
    for i, option in enumerate(item.options):
        lines.append(
            f"{OPTION_LETTERS[i]}) {option} [compatibility {scores.fused[i]:.3f}]"
        )
    return "\n".join(lines)


def precedent_block(memory: ProcessMemory, precedents: list[RetrievedPrecedent]) -> str:
    lines = ["Retrieved precedent processes:"]
    for rank, p in enumerate(precedents, start=1):
        lines.append(f"{rank}. {linearize_process(memory, p.graph_id)}")
    return "\n".join(lines)


def neighbourhood_block(memory: ProcessMemory, graph_ids: list[str], hops: int = 1) -> str:
    """Compact text rendering of each process's step neighbourhoods."""
    lines = [f"Process neighbourhoods ({hops}-hop):"]
    for gid in graph_ids:
        lines.append(f"process {gid}:")
        for entry in memory.steps_of(gid):
            at = StepQuery.at(memory.by_graph_id[gid].route, entry.position)
            parts = [f"step {entry.position + 1} {at.activity}:"]
            clauses = []
            if entry.input_labels:
                clauses.append("uses " + ", ".join(entry.input_labels))
            if entry.output_labels:
                clauses.append("makes " + ", ".join(entry.output_labels))
            if entry.tools:
                clauses.append("tools " + ", ".join(entry.tools))
            if hops >= 2:
                if at.prev_activity:
                    clauses.append(f"after {at.prev_activity}")
                if at.next_activity:
                    clauses.append(f"before {at.next_activity}")
            parts.append("; ".join(clauses) if clauses else "no recorded links")
            lines.append("  " + " ".join(parts))
    return "\n".join(lines)


def exemplar_block(exemplars: list[BenchItem]) -> str:
    blocks = []
    for n, ex in enumerate(exemplars, start=1):
        blocks.append(
            f"Example {n}:\n{question_text(ex)}\n{options_block(ex)}\n"
            f"Answer: {OPTION_LETTERS[ex.gold_index]}"
        )
    return "\n\n".join(blocks)


def build_prompt(
    item: BenchItem,
    mode: str,
    precedents: list[RetrievedPrecedent] | None = None,
    scores: OptionScores | None = None,
    memory: ProcessMemory | None = None,
    exemplars: list[BenchItem] | None = None,
    plan_text: str | None = None,
    graph_ids: list[str] | None = None,
    few_shot_count: int = 3,
    rag_k: int = 3,
    graph_k: int = 3,
    graph_hops: int = 1,
) -> list[dict]:
    """Render the ordered message list for one item under one mode."""
    if mode not in PROMPT_MODES:
        raise MissingContext(f"unknown prompt mode {mode!r}")
    question = f"{question_text(item)}\n{options_block(item)}"

    if mode == "zero_shot":
        body = f"{question}\n{ANSWER_INSTRUCTION}"

    elif mode == "few_shot":
        if exemplars is None or len(exemplars) != few_shot_count:
            raise MissingContext(
                f"few_shot mode needs exactly {few_shot_count} exemplars"
            )
        body = f"{exemplar_block(exemplars)}\n\n{question}\n{ANSWER_INSTRUCTION}"

    elif mode == "rag":
        if memory is None or precedents is None or len(precedents) != rag_k:
            raise MissingContext(f"rag mode needs {rag_k} retrieved records")
        body = (
            f"{precedent_block(memory, precedents)}\n\n{question}\n{ANSWER_INSTRUCTION}"
        )

    elif mode == "graphrag":
        if memory is None or graph_ids is None or len(graph_ids) != graph_k:
            raise MissingContext(
                f"graphrag mode needs {graph_k} graph-retrieved records"
            )
        body = (
            f"{neighbourhood_block(memory, graph_ids, hops=graph_hops)}\n\n"
            f"{question}\n{ANSWER_INSTRUCTION}"
        )

    elif mode == "plan":
        if memory is None or precedents is None or scores is None:
            raise MissingContext("plan mode needs precedents, scores and memory")
        body = (
            f"{precedent_block(memory, precedents)}\n\n"
            f"{evidence_block(item, scores)}\n\n{question}\n{PLAN_INSTRUCTION}"
        )

    else:  # answer
        if memory is None or precedents is None or scores is None:
            raise MissingContext("answer mode needs precedents, scores and memory")
        plan_part = f"Plan:\n{plan_text}\n\n" if plan_text else ""
        body = (
            f"{precedent_block(memory, precedents)}\n\n"
            f"{evidence_block(item, scores)}\n\n{plan_part}{question}\n"
            f"{ANSWER_INSTRUCTION}"
        )

    return [
        {"role": "system", "content": SYSTEM_TEXT},
        {"role": "user", "content": body},
    ]


def parse_answer(text: str, n_options: int) -> int | None:
    """First standalone option letter in the response, or None."""
    letters = OPTION_LETTERS[:n_options]
    match = re.search(rf"\b([{letters}])\b", text)
    return letters.index(match.group(1)) if match else None
