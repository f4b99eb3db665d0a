"""Answer policies, split evaluation, and the ablation grid.

Policies split into three families: score-argmax (no language model),
LLM-mediated answering with optional planning and symbolic fallback,
and prompting baselines (zero-shot, few-shot, retrieval-augmented,
graph-retrieval-augmented). Two diagnostic policies bound the scale:
uniform_random and gold_oracle. All randomness is derived from
(seed, item_id) or (seed, task), so reports are reproducible.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterator

from .canon import derive_seed, stable_hash
from .chat import MockChatClient
from .errors import (
    ClientTimeout,
    ConfigConflict,
    EmptyMemory,
    InvalidGridAxis,
    InvalidParams,
    MatprocError,
)
from .jsonio import TRANSIENT, Record, check_ranges, knob
from .memory import ProcessMemory
from .prompts import build_prompt, parse_answer
from .retrieval import (DEFAULT_TOP_K, RetrievalWeights, StructureEncoder, queries_from_items,
                        retrieve)
from .scoring import (
    DEFAULT_LAMBDA,
    ItemInputs,
    OptionScores,
    ScoringConfig,
    argmax_index,
    fuse_scores,
    option_texts,
    score_options_neural,
    score_options_symbolic,
)
from .taskgen import TASKS, BenchItem

POLICIES = (
    "argmax_symbolic",
    "argmax_neural",
    "argmax_hybrid",
    "provmind_llm",
    "zero_shot",
    "few_shot",
    "rag",
    "graphrag",
    "external_predictions",
    "uniform_random",
    "gold_oracle",
)
_SCORED = ("argmax_symbolic", "argmax_neural", "argmax_hybrid", "provmind_llm")
_NEEDS_MEMORY = (*_SCORED, "rag", "graphrag")
_BASELINES = ("zero_shot", "few_shot", "rag", "graphrag")  # one prompt, one chat call
_LLM_POLICIES = ("provmind_llm", *_BASELINES)

DEFAULT_BUDGETS = {"planning": 96, "answer": 48, "baseline": 16}

# items whose retrieval queries are built and embedded together, then answered
_BLOCK_ITEMS = 8


@dataclass
class PolicyConfig(Record):
    load_error = ConfigConflict  # policy knobs come from the run configuration

    policy: str = "argmax_hybrid"
    lam: float = knob(DEFAULT_LAMBDA, "[0, 1]")
    top_k: int = knob(DEFAULT_TOP_K, "[1, inf)")
    weights: RetrievalWeights = field(default_factory=RetrievalWeights)
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    planning: bool = True
    fallback: bool = True
    budgets: dict[str, int] = knob({}, "[1, inf)")  # missing names take DEFAULT_BUDGETS
    few_shot_count: int = knob(3, "[1, inf)")
    few_shot_seed: int = knob(42)
    rag_k: int = knob(3, "[1, inf)")
    graph_k: int = knob(3, "[1, inf)")
    graph_hops: int = knob(1, "[1, inf)")
    seed: int = knob(0)
    log_full_prompts: bool = False

    def __post_init__(self):
        self.budgets = {**DEFAULT_BUDGETS, **self.budgets}
        if self.policy not in POLICIES:
            raise InvalidParams(f"unknown policy {self.policy!r}")
        check_ranges(self)


@dataclass
class Tally(Record):
    """Correct answers out of a total."""

    accuracy: float
    correct: int
    total: int

    @classmethod
    def of(cls, correct: int, total: int) -> "Tally":
        return cls(accuracy=correct / total if total else 0.0, correct=correct, total=total)

    def render(self) -> str:
        """The ``accuracy   correct/total`` cells of the report tables."""
        return f"{self.accuracy * 100:7.2f}%   {self.correct}/{self.total}"


@dataclass
class EvalReport(Record):
    split_id: str
    policy: dict
    per_task: dict[str, Tally]
    overall: Tally
    wall_clock_s: float = field(default=0.0, metadata=TRANSIENT)  # human-facing only
    log_path: str = ""

    @property
    def accuracy(self) -> float:
        return self.overall.accuracy


@dataclass
class AblationRow(Record):
    """One lattice point of the ablation grid and its report."""

    block: str
    label: str
    report: EvalReport


def answer_argmax(scores: OptionScores) -> int:
    """Index of the highest fused score; ties go to the lowest index."""
    return argmax_index(scores.fused)


# --- per-item machinery ---------------------------------------------------------------


# the lambda an argmax policy fixes; every other scored policy takes ``config.lam``
_FIXED_LAMBDA = {"argmax_symbolic": 1.0, "argmax_neural": 0.0}


def _lam(config: PolicyConfig) -> float:
    """The symbolic lane's weight under a scored policy."""
    return _FIXED_LAMBDA.get(config.policy, config.lam)


def _scores_neural(config: PolicyConfig) -> bool:
    """Whether ``config`` scores the neural lane, which embeds option texts."""
    return config.policy in _SCORED and _lam(config) < 1


def _score_item(item, memory, config, context):
    """Retrieve precedents and fuse the lanes the policy needs."""
    precedents = retrieve(context.query, memory, config.weights, config.top_k)
    lam = _lam(config)
    key = (tuple(p.graph_id for p in precedents), config.scoring)  # the lanes read only ids
    sym = neu = None
    if lam > 0:
        sym = context.once(("symbolic", *key), lambda: score_options_symbolic(
            item, precedents, memory, config.scoring, inputs=context))
    if _scores_neural(config):
        neu = context.once(("neural", *key), lambda: score_options_neural(
            item, precedents, memory, config.scoring, inputs=context))
    return precedents, sym, fuse_scores(sym, neu, lam)


def _hash_messages(messages: list[dict]) -> str:
    return stable_hash([(m["role"], m["content"]) for m in messages])


def _ask(client, messages, mode: str, budget: int, trace: dict, config: PolicyConfig):
    """One chat call, recorded on ``trace``; None when the endpoint times
    out, flagged ``plan_timeout`` for a plan call, else ``answer_timeout``."""
    try:
        exchange = client.complete(messages, max_new_tokens=budget, temperature=0.0)
    except ClientTimeout:
        trace["flags"].append("plan_timeout" if mode == "plan" else "answer_timeout")
        return None
    entry = {
        "mode": mode,
        "max_new_tokens": exchange.max_new_tokens,
        "temperature": exchange.temperature,
        "prompt_sha": _hash_messages(exchange.messages),
        "response_sha": stable_hash(exchange.response_text),
    }
    if config.log_full_prompts:
        entry["messages"] = exchange.messages
        entry["response_text"] = exchange.response_text
    trace["exchanges"].append(entry)
    return exchange


def _parse(exchange, item: BenchItem, trace: dict) -> int | None:
    """The option index a reply names; flags ``unparseable_response`` when
    it names none. A missing reply (a timeout) is already flagged."""
    if exchange is None:
        return None
    index = parse_answer(exchange.response_text, len(item.options))
    if index is None:
        trace["flags"].append("unparseable_response")
    return index


def llm_answer(
    item: BenchItem,
    memory: ProcessMemory,
    precedents,
    evidence_scores: OptionScores,
    fallback_scores: OptionScores,
    client,
    config: PolicyConfig,
    trace: dict,
) -> int | None:
    """Optional plan call, answer call, parse, each recorded on ``trace``;
    ``fallback_scores`` answer an unparsed or timed-out reply."""
    plan_text = None
    if config.planning:
        plan_messages = build_prompt(
            item, "plan", precedents=precedents, scores=evidence_scores, memory=memory
        )
        plan = _ask(client, plan_messages, "plan", config.budgets["planning"], trace, config)
        if plan is not None:
            plan_text = plan.response_text

    answer_messages = build_prompt(item, "answer", precedents=precedents,
                                   scores=evidence_scores, memory=memory, plan_text=plan_text)
    answer = _ask(client, answer_messages, "answer", config.budgets["answer"], trace, config)
    index = _parse(answer, item, trace)
    if index is None and config.fallback:
        index = answer_argmax(fallback_scores)
        trace["fallback_used"] = True
    return index


def _sample_exemplars(train_items, task, config: PolicyConfig) -> list[BenchItem]:
    """Task-matched training exemplars under the few-shot sampling seed."""
    rng = random.Random(derive_seed(config.few_shot_seed, task))
    pool = sorted((it for it in train_items if it.task == task), key=lambda it: it.item_id)
    if len(pool) >= config.few_shot_count:
        return rng.sample(pool, config.few_shot_count)
    spare = sorted((it for it in train_items if it.task != task), key=lambda it: it.item_id)
    fill = rng.sample(spare, min(len(spare), config.few_shot_count - len(pool)))
    return pool + fill


def _answer_item(item, memory, config, client, exemplars_by_task, predictions, context):
    """One item under one config -> (answer index or None, trace), with
    ``context`` the item's :class:`ItemInputs`, shared by every config
    answering it. The trace holds the log row's ``exchanges``,
    ``fallback_used``, ``flags``, ``precedents`` and ``scores``; the last two
    are set once the item is answered, so an ``item_error`` row names none.
    Never raises."""
    trace: dict = {"exchanges": [], "fallback_used": False, "flags": [],
                   "precedents": [], "scores": None}
    policy = config.policy
    try:
        if policy == "gold_oracle":
            return item.gold_index, trace
        if policy == "uniform_random":
            rng = random.Random(derive_seed(config.seed, item.item_id))
            return rng.randrange(len(item.options)), trace
        if policy == "external_predictions":
            index = predictions.get(item.item_id)
            if index is None:
                trace["flags"].append("missing_prediction")
            elif not 0 <= index < len(item.options):
                trace["flags"].append("prediction_out_of_range")
                index = None
            return index, trace

        if policy in _BASELINES:  # gather the prompt's context, then one chat call
            exemplars = precedents = graph_ids = None
            if policy == "few_shot":
                exemplars = exemplars_by_task[item.task]
            elif policy == "rag":
                precedents = retrieve(context.query, memory, config.weights, config.rag_k)
            elif policy == "graphrag":
                structure_only = RetrievalWeights.for_views(["structure"])
                graph_ids = [p.graph_id for p in retrieve(
                    context.query, memory, structure_only, config.graph_k)]
            messages = build_prompt(
                item,
                policy,
                precedents=precedents,
                memory=memory,
                exemplars=exemplars,
                graph_ids=graph_ids,
                few_shot_count=config.few_shot_count,
                rag_k=config.rag_k,
                graph_k=config.graph_k,
                graph_hops=config.graph_hops,
            )
            exchange = _ask(client, messages, policy, config.budgets["baseline"], trace, config)
            index = _parse(exchange, item, trace)
            trace["precedents"] = graph_ids or [p.graph_id for p in precedents or ()]
            return index, trace

        # argmax_* and provmind_llm: option scores from retrieved precedents
        precedents, sym, fused = _score_item(item, memory, config, context)
        if policy == "provmind_llm":
            fallback = fuse_scores(sym, None, 1.0) if sym is not None else fused
            index = llm_answer(item, memory, precedents, fused, fallback, client, config, trace)
        else:
            index = answer_argmax(fused)
        trace["precedents"] = [p.graph_id for p in precedents]
        trace["scores"] = fused.to_dict()
        return index, trace
    except MatprocError as exc:
        trace["flags"].append(f"item_error:{type(exc).__name__}")
        return None, trace


# --- evaluation -------------------------------------------------------------------------


def _check_policy_inputs(config, memory, train_items, predictions) -> None:
    """Refuse a config under which every item would fail."""
    if config.policy in _NEEDS_MEMORY:
        if memory is None:
            raise InvalidParams(f"policy {config.policy!r} needs a process memory")
        if not memory.processes:
            raise EmptyMemory(f"policy {config.policy!r} retrieves from a memory with no processes")
        k_name = {"rag": "rag_k", "graphrag": "graph_k"}.get(config.policy)
        if k_name and getattr(config, k_name) > len(memory.processes):
            # else every prompt lacks precedents and every item fails
            raise ConfigConflict(f"{config.policy} needs {k_name} = {getattr(config, k_name)}"
                                 f" precedents; the memory holds {len(memory.processes)} processes")
    if config.policy == "few_shot" and not train_items:
        raise InvalidParams("few_shot policy needs train_items as the exemplar pool")
    if config.policy == "few_shot" and len(train_items) < config.few_shot_count:
        # else every prompt lacks exemplars and every item fails
        raise ConfigConflict(f"few_shot needs an exemplar pool of at least few_shot_count ="
                             f" {config.few_shot_count} train items; got {len(train_items)}")
    if config.policy == "external_predictions" and predictions is None:
        raise InvalidParams("external_predictions policy needs a predictions mapping")


def _exemplars_by_task(items, train_items, config, partition) -> dict[str, list[BenchItem]]:
    """Few-shot exemplars per task, drawn from a pool checked against the
    evaluated partition."""
    if config.policy != "few_shot":
        return {}
    if partition in ("dev", "test"):
        overlap = {it.item_id for it in items} & {it.item_id for it in train_items}
        if overlap:
            raise InvalidParams(
                f"exemplar pool overlaps the evaluated {partition} partition: "
                f"{sorted(overlap)[:3]}"
            )
    return {task: _sample_exemplars(train_items, task, config) for task in TASKS}


def _log_row(item: BenchItem, config: PolicyConfig, index: int | None, trace: dict) -> dict:
    return {
        "item_id": item.item_id,
        "task": item.task,
        "policy": config.policy,
        "answer_index": index,
        "gold_index": item.gold_index,
        "correct": index is not None and index == item.gold_index,
        **trace,
    }


def answer_items(
    items: list[BenchItem],
    memory: ProcessMemory | None,
    configs: list[PolicyConfig],
    client=None,
    train_items: list[BenchItem] | None = None,
    predictions: dict[str, int] | None = None,
    partition: str = "",
    jobs: int = 1,
) -> Iterator[list[dict]]:
    """Answer every item under every config, item by item: yields, in item
    order, each item's log rows, one per config in config order.

    Items go in blocks of ``_BLOCK_ITEMS``. When a config retrieves, the
    block's queries are the rows of one query block (:func:`queries_from_items`),
    whose first retrieval embeds their texts, with their option-completed
    texts when a config scores the neural lane, in one call and their context
    graphs with the run's one :class:`StructureEncoder`, and which keeps each
    query's view scores. The configs answering one item share its query,
    view scores, lane inputs and lane scores (its :class:`ItemInputs`), so a
    config costs only what it does not share with an earlier one; that
    shared work is dropped with its block. A row is the one ``evaluate`` of
    its config alone would give. Inputs are checked before this returns.
    """
    configs = list(configs)
    for config in configs:
        _check_policy_inputs(config, memory, train_items, predictions)
    chat_bound = any(config.policy in _LLM_POLICIES for config in configs)
    if client is None and chat_bound:
        client = MockChatClient()
    exemplars = [_exemplars_by_task(items, train_items, c, partition) for c in configs]
    retrieves = any(config.policy in _NEEDS_MEMORY for config in configs)
    if retrieves:
        # built (and its vectors checked) once, before any worker starts;
        # a bad memory fails the run instead of flagging every item
        memory.dense_index

    neural = any(map(_scores_neural, configs))
    encoder = StructureEncoder() if retrieves else None

    def with_queries(block):
        if not retrieves:
            return block, [None] * len(block)
        options = [option_texts(item) for item in block] if neural else None
        return block, queries_from_items(block, options, encoder)

    def work(item, query):
        context = ItemInputs(item, memory, query)
        return [
            _log_row(item, config, *_answer_item(
                item, memory, config, client, by_task, predictions, context))
            for config, by_task in zip(configs, exemplars)
        ]

    blocks = (with_queries(items[start : start + _BLOCK_ITEMS])
              for start in range(0, len(items), _BLOCK_ITEMS))
    # Threads only overlap waiting on a chat endpoint; CPU-bound configs and
    # the in-process mock client hold the GIL, so without a chat-bound config
    # answered by another client every item runs in-process whatever
    # ``jobs`` says. A thread answers all configs of its item.
    if jobs > 1 and chat_bound and not isinstance(client, MockChatClient):
        return _in_threads(work, blocks, jobs)
    return (rows for block in blocks for rows in map(work, *block))


def _in_threads(work, blocks, jobs):
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for block in blocks:
            yield from pool.map(work, *block)


def _tally(per_task: dict[str, dict], row: dict) -> None:
    bucket = per_task.setdefault(row["task"], {"correct": 0, "total": 0})
    bucket["total"] += 1
    bucket["correct"] += int(row["correct"])


def _split_id(split_id: str | None, memory) -> str:
    """``split_id`` when given, else the memory's, else ""."""
    if split_id is not None:
        return split_id
    return memory.split_id if memory is not None else ""


def _report(config, split_id: str, per_task: dict[str, dict], wall_clock_s: float) -> EvalReport:
    tallies = {task: Tally.of(b["correct"], b["total"]) for task, b in sorted(per_task.items())}
    return EvalReport(
        split_id=split_id,
        policy=config.to_dict(),
        per_task=tallies,
        overall=Tally.of(sum(t.correct for t in tallies.values()),
                         sum(t.total for t in tallies.values())),
        wall_clock_s=wall_clock_s,
    )


def evaluate(
    items: list[BenchItem],
    memory: ProcessMemory | None = None,
    config: PolicyConfig = PolicyConfig(),
    client=None,
    train_items: list[BenchItem] | None = None,
    predictions: dict[str, int] | None = None,
    partition: str = "",
    jobs: int = 1,
    split_id: str | None = None,
) -> tuple[EvalReport, list[dict]]:
    """Answer every item once; return the report and the per-item log rows.
    The report names ``split_id``, the id of the split the items come from,
    or when None the memory's."""
    started = time.monotonic()
    answers = answer_items(
        items, memory, [config], client, train_items, predictions, partition, jobs
    )
    rows = [row for (row,) in answers]
    per_task: dict[str, dict] = {}
    for row in rows:
        _tally(per_task, row)
    return _report(config, _split_id(split_id, memory), per_task, time.monotonic() - started), rows


# --- ablation grid ----------------------------------------------------------------------


ABLATION_AXES = ("module", "scoring", "retrieval", "fusion", "top_k")

_VIEW_ROWS = (
    ("text_only", ["text"]),
    ("structure_only", ["structure"]),
    ("heuristic_only", ["heuristic"]),
    ("text+structure", ["text", "structure"]),
    ("text+heuristic", ["text", "heuristic"]),
    ("structure+heuristic", ["structure", "heuristic"]),
    ("full", ["text", "structure", "heuristic"]),
)
_FUSION_ROWS = (
    ("equal", (1 / 3, 1 / 3, 1 / 3)),
    ("text_heavy", (0.6, 0.2, 0.2)),
    ("structure_heavy", (0.2, 0.6, 0.2)),
    ("heuristic_heavy", (0.2, 0.2, 0.6)),
)
_LAMBDA_ROWS = (1.0, 0.0, 0.5, 0.7, 0.3)
_TOP_K_ROWS = (1, 2, 4, 8, 16)


def ablation_grid(base: PolicyConfig, axes=None) -> list[tuple[str, str, PolicyConfig]]:
    """The (block, label, config) lattice; full grid is 25 rows."""
    chosen = tuple(axes) if axes is not None else ABLATION_AXES
    unknown = set(chosen) - set(ABLATION_AXES)
    if unknown:
        raise InvalidGridAxis(f"unknown ablation axes: {sorted(unknown)}")
    if not chosen:
        raise InvalidGridAxis(f"no ablation axis chosen; pick from {', '.join(ABLATION_AXES)}")
    rows: list[tuple[str, str, PolicyConfig]] = []
    if "module" in chosen:
        llm = replace(base, policy="provmind_llm")
        rows.append(("module", "full", llm))
        rows.append(("module", "planning_off", replace(llm, planning=False)))
        rows.append(("module", "fallback_off", replace(llm, fallback=False)))
        rows.append(("module", "symbolic_scoring_off", replace(llm, lam=0.0)))
    if "scoring" in chosen:
        for lam in _LAMBDA_ROWS:
            rows.append(
                ("scoring", f"lambda={lam:.1f}", replace(base, policy="argmax_hybrid", lam=lam))
            )
    if "retrieval" in chosen:
        for label, views in _VIEW_ROWS:
            rows.append(
                (
                    "retrieval",
                    label,
                    replace(
                        base,
                        policy="argmax_hybrid",
                        weights=RetrievalWeights.for_views(views),
                    ),
                )
            )
    if "fusion" in chosen:
        for label, (alpha, beta, gamma) in _FUSION_ROWS:
            rows.append(
                (
                    "fusion",
                    label,
                    replace(
                        base,
                        policy="argmax_hybrid",
                        weights=RetrievalWeights(alpha, beta, gamma),
                    ),
                )
            )
    if "top_k" in chosen:
        for k in _TOP_K_ROWS:
            rows.append(("top_k", f"k={k}", replace(base, policy="argmax_hybrid", top_k=k)))
    return rows


def run_ablation(
    items: list[BenchItem],
    memory: ProcessMemory,
    base: PolicyConfig = PolicyConfig(),
    client=None,
    axes=None,
    jobs: int = 1,
    split_id: str | None = None,
) -> list[AblationRow]:
    """One EvalReport per lattice point, each equal to ``evaluate`` of its
    config and ``split_id``; the rows answer the items together (see
    :func:`answer_items`)."""
    grid = ablation_grid(base, axes)
    started = time.monotonic()
    tallies: list[dict[str, dict]] = [{} for _ in grid]
    for rows in answer_items(items, memory, [config for _, _, config in grid],
                             client=client, jobs=jobs):
        for per_task, row in zip(tallies, rows):
            _tally(per_task, row)
    wall_clock_s = time.monotonic() - started  # the whole grid's, on every row
    return [
        AblationRow(block, label, _report(config, _split_id(split_id, memory), per_task,
                                          wall_clock_s))
        for (block, label, config), per_task in zip(grid, tallies)
    ]


# --- rendering --------------------------------------------------------------------------


def render_report(report: EvalReport) -> str:
    width = max([len("overall")] + [len(t) for t in report.per_task])
    lines = [
        f"policy: {report.policy.get('policy', '?')}    split: {report.split_id or '-'}",
        f"{'task'.ljust(width)}  accuracy   correct/total",
    ]
    for task, tally in [*report.per_task.items(), ("overall", report.overall)]:
        lines.append(f"{task.ljust(width)}  {tally.render()}")
    if report.wall_clock_s:
        lines.append(f"wall clock: {report.wall_clock_s:.2f}s")
    return "\n".join(lines)


def render_ablation_table(rows: list[AblationRow]) -> str:
    label_width = max(len(r.label) for r in rows)
    block_width = max(len(r.block) for r in rows)
    lines = [f"{'block'.ljust(block_width)}  {'variant'.ljust(label_width)}  accuracy   correct/total"]
    for row in rows:
        lines.append(f"{row.block.ljust(block_width)}  {row.label.ljust(label_width)}  "
                     f"{row.report.overall.render()}")
    return "\n".join(lines)
