"""The three workloads: what set-up makes, what one repetition runs, and
how its artifacts are checked.

All corpora come from ``synth`` with the pipeline defaults of the project
roadmap: genbench seed 4, the ``year`` split protocol. The run's ``--seed``
picks the inputs: the synth seed of the build corpus, or which test items
the eval and ablate repetitions answer. Every input a seed can pick has a
committed reference answer under ``reference/``.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict
from pathlib import Path

from checks import CheckResult, check_ablate, check_build, check_eval, read_ndjson, summarize_build

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SYNTH_SEED = 11
GENBENCH_SEED = 4
PROTOCOL = "year"
AUDIT_PAIRS = "dual:dual,dual:type,dual:year"
ABLATION_AXES = "module,scoring,retrieval,fusion,top_k"


def synth_argv(n: int, seed: int, out: str = "raw.ndjson") -> list[str]:
    return ["synth", "--out", out, "--n", str(n), "--seed", str(seed)]


def build_stages(memory: bool = True, audit: bool = True) -> list[tuple[str, list[str]]]:
    """compile -> genbench -> split (-> audit) (-> build-memory), in one directory."""
    stages = [
        ("compile", ["compile", "--in", "raw.ndjson", "--out", "graphs.ndjson",
                     "--warnings", "warnings.ndjson"]),
        ("genbench", ["genbench", "--graphs", "graphs.ndjson", "--out", "bench.ndjson",
                      "--skips", "skips.ndjson", "--seed", str(GENBENCH_SEED)]),
        ("split", ["split", "--bench", "bench.ndjson", "--out", "split.ndjson",
                   "--protocol", PROTOCOL]),
    ]
    if audit:
        stages.append(("audit", ["audit", "--bench", "bench.ndjson", "--pairs", AUDIT_PAIRS,
                                 "--out", "audit.ndjson"]))
    if memory:
        stages.append(("build-memory", ["build-memory", "--graphs", "graphs.ndjson",
                                        "--bench", "bench.ndjson", "--split", "split.ndjson",
                                        "--out", "memory.ndjson"]))
    return stages


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def stratified_sample(items: dict, per_task: int, seed: int, salt: str) -> list[str]:
    """``per_task`` item ids of every task, drawn by ``seed``, in pool order.
    A fixed count per task keeps the task mix, and so the cost, the same
    across seeds."""
    rng = random.Random(f"{salt}:{seed}")
    by_task = defaultdict(list)
    for item_id, item in items.items():
        by_task[item["task"]].append(item_id)
    chosen = set()
    for task in sorted(by_task):
        chosen.update(rng.sample(sorted(by_task[task]), per_task))
    return [item_id for item_id in items if item_id in chosen]


class Build:
    """Raw records to memory: compile, genbench, split, audit, build-memory.
    Set-up is ``synth``. The seed picks one of the referenced synth seeds."""

    kind = "build"
    outputs = ("graphs.ndjson", "warnings.ndjson", "bench.ndjson", "skips.ndjson",
               "split.ndjson", "audit.ndjson", "memory.ndjson")
    unit = "records"

    def __init__(self, name: str, why: str, n_records: int, variants: int):
        self.name, self.why = name, why
        self.n_records, self.variants = n_records, variants

    def synth_seed(self, seed: int) -> int:
        return SYNTH_SEED + seed % self.variants

    def prepare(self, ctx) -> None:
        self.ref = load_reference(self.name)

    def inputs(self, seed: int) -> dict:
        return {
            "setup": [synth_argv(self.n_records, self.synth_seed(seed))],
            "stages": build_stages(),
            "units": self.n_records,
            "sample": None,
            "describe": f"synth --n {self.n_records} --seed {self.synth_seed(seed)}",
        }

    def check(self, directory: Path, inputs: dict, seed: int) -> CheckResult:
        ref = self.ref["variants"][str(self.synth_seed(seed))]
        result = check_build(summarize_build(directory), ref)
        _, warnings = read_ndjson(directory / "warnings.ndjson")
        result.failed += sum(1 for w in warnings if w["warning"].startswith("excluded:"))
        return result


class Answering:
    """Shared by eval and ablate: a cached corpus and memory, and a
    stratified sample of its test items written as a bench/split pair."""

    def __init__(self, name: str, why: str, n_records: int, per_task: int):
        self.name, self.why = name, why
        self.n_records, self.per_task = n_records, per_task

    def prepare(self, ctx) -> None:
        corpus = ctx.corpus(self.n_records)
        self.memory = corpus / "memory.ndjson"
        self.ref = load_reference(self.name)
        self.pool = [corpus / f"pool-{self.name}-bench.ndjson",
                     corpus / f"pool-{self.name}-split.ndjson"]
        if not all(p.exists() for p in self.pool):
            ctx.write_pool(list(self.ref["items"]),
                           [(corpus / "bench.ndjson", self.pool[0]),
                            (corpus / "split.ndjson", self.pool[1])])

    def inputs(self, seed: int) -> dict:
        ids = stratified_sample(self.ref["items"], self.per_task, seed, self.name)
        return {
            "setup": [],
            "sample": {"ids": ids, "files": [[str(self.pool[0]), "bench.ndjson"],
                                             [str(self.pool[1]), "split.ndjson"]]},
            "stages": [(self.kind, self.argv())],
            "ids": ids,
            "units": len(ids) * self.rows,
            "describe": f"{len(ids)} test items ({self.per_task} per task) of the "
                        f"synth --n {self.n_records} --seed {SYNTH_SEED} corpus",
        }


class Eval(Answering):
    kind = "eval"
    outputs = ("report.ndjson", "log.ndjson")
    unit = "answers"
    rows = 1

    def argv(self, bench="bench.ndjson", split="split.ndjson") -> list[str]:
        return ["eval", "--bench", bench, "--split", split,
                "--memory", str(self.memory), "--partition", "test",
                "--policy", "argmax_hybrid", "--report", "report.ndjson", "--log", "log.ndjson",
                "--jobs", "1"]

    def check(self, directory: Path, inputs: dict, seed: int) -> CheckResult:
        return check_eval(directory, self.ref, inputs["ids"])


class Ablate(Answering):
    kind = "ablate"
    outputs = ("ablation.ndjson",)
    unit = "answers (item x row)"
    rows = 25

    def argv(self, bench="bench.ndjson", split="split.ndjson") -> list[str]:
        return ["ablate", "--bench", bench, "--split", split,
                "--memory", str(self.memory), "--partition", "test",
                "--axes", ABLATION_AXES, "--report", "ablation.ndjson", "--jobs", "1"]

    def check(self, directory: Path, inputs: dict, seed: int) -> CheckResult:
        return check_ablate(directory, self.ref, inputs["ids"])


WORKLOADS = {
    w.name: w
    for w in (
        Build("build_n500",
              "Write side: genbench (quadratic in corpus size) and build-memory "
              "(embed_structure) do almost all the work; eval-side changes should not move it.",
              n_records=500, variants=8),
        Eval("eval_n200",
             "README quickstart eval on a 106-graph memory: fixed per-query cost "
             "(structure projection, text embedding) dominates; never runs the ablation grid.",
             n_records=200, per_task=15),
        Ablate("ablate_n2000",
               "All 25 ablation rows against the 1105-graph memory: per-process scans and "
               "match_steps dominate, every row repeats retrieval, module rows use prompts/chat.",
               n_records=2000, per_task=1),
    )
}
