"""Write reference/<workload>.json from the current source tree.

    python3 perfbench/make_reference.py [workload ...]

Run this only at a commit whose outputs are accepted as correct: every
later benchmark run is compared against what it writes. It builds each
build variant, evaluates the whole eval pool once, and answers every
ablation row for every item of the ablate pool, then checks that a real
``eval``/``ablate`` run on one sample agrees with the reference it wrote.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
from collections import defaultdict

from checks import check_ablate, check_eval, eval_reference, read_ndjson, summarize_build
from run import ENDPOINT_VARS, ROOT, WORK, Context, run_child
from workloads import (GENBENCH_SEED, PROTOCOL, REFERENCE_DIR, SYNTH_SEED, WORKLOADS,
                       build_stages, stratified_sample, synth_argv)

ABLATE_POOL_PER_TASK = 12
ABLATE_POOL_SEED = "ablate-pool"


def fresh(name: str):
    d = WORK / "reference" / name
    if d.exists():
        shutil.rmtree(d)
    d.mkdir(parents=True)
    return d


def corpus_fields(w) -> dict:
    return {"workload": w.name, "n_records": w.n_records, "synth_seed": SYNTH_SEED,
            "genbench_seed": GENBENCH_SEED, "protocol": PROTOCOL}


def build_reference(w, ctx) -> dict:
    variants = {}
    for v in range(w.variants):
        seed = SYNTH_SEED + v
        d = fresh(f"{w.name}-{seed}")
        run_child({"setup": [synth_argv(w.n_records, seed)], "stages": build_stages()}, d, 900)
        variants[str(seed)] = summarize_build(d)
        print(f"{w.name}: synth seed {seed}: {variants[str(seed)]['counts']}", flush=True)
    ref = corpus_fields(w)
    del ref["synth_seed"]
    return {**ref, "synth_seeds": sorted(int(s) for s in variants), "variants": variants}


def eval_ref(w, ctx) -> dict:
    corpus = ctx.corpus(w.n_records)
    w.memory = corpus / "memory.ndjson"
    d = fresh(w.name)
    argv = w.argv(str(corpus / "bench.ndjson"), str(corpus / "split.ndjson"))
    run_child({"setup": [], "stages": [("eval", argv)]}, d, 900)
    _, log = read_ndjson(d / "log.ndjson")
    _, (report,) = read_ndjson(d / "report.ndjson")
    return {**corpus_fields(w), "policy": report["policy"], "split_id": report["split_id"],
            "items": eval_reference(log)}


def ablate_ref(w, ctx) -> dict:
    corpus = ctx.corpus(w.n_records)
    w.memory = corpus / "memory.ndjson"
    sys.path.insert(0, str(ROOT / "src"))
    from matproc.chat import get_chat_client
    from matproc.cli import build_parser, resolve_config
    from matproc.memory import load_memory
    from matproc.runner import ablation_grid, evaluate
    from matproc.splits import read_assignment
    from matproc.taskgen.store import load_items

    cfg = resolve_config(build_parser().parse_args(w.argv()))
    items = load_items(corpus / "bench.ndjson")
    test = read_assignment(corpus / "split.ndjson").items_in(items, "test")
    by_task = defaultdict(list)
    for it in test:
        by_task[it.task].append(it)
    rng = random.Random(ABLATE_POOL_SEED)
    chosen = {it.item_id for task in sorted(by_task)
              for it in rng.sample(by_task[task], ABLATE_POOL_PER_TASK)}
    pool = [it for it in test if it.item_id in chosen]
    memory = load_memory(w.memory)
    client = get_chat_client()
    rows, answers = [], defaultdict(list)
    for block, label, config in ablation_grid(cfg.policy_config(), cfg.axes):
        report, log = evaluate(pool, memory, config, client=client, jobs=1)
        rows.append({"block": block, "label": label, "policy": config.to_dict(),
                     "split_id": report.split_id})
        for row in log:
            answers[row["item_id"]].append(row["answer_index"])
        print(f"{w.name}: {block}/{label} {report.overall}", flush=True)
    return {**corpus_fields(w), "pool_seed": ABLATE_POOL_SEED, "rows": rows,
            "items": {it.item_id: {"task": it.task, "gold": it.gold_index,
                                   "answers": answers[it.item_id]} for it in pool}}


def cross_check(w, ctx) -> None:
    """A real run on one sample must match the reference just written."""
    w.prepare(ctx)
    inputs = w.inputs(0)
    d = fresh(f"{w.name}-check")
    run_child({"setup": [], "sample": inputs["sample"], "stages": inputs["stages"]}, d, 900)
    check = (check_eval if w.kind == "eval" else check_ablate)(d, w.ref, inputs["ids"])
    print(f"{w.name}: cross-check {check}", flush=True)
    if check.mismatched or check.failed:
        raise SystemExit(f"{w.name}: the reference disagrees with a real run")


def main(names) -> int:
    for var in ENDPOINT_VARS:
        os.environ.pop(var, None)
    ctx = Context()
    makers = {"build": build_reference, "eval": eval_ref, "ablate": ablate_ref}
    for name in names or sorted(WORKLOADS):
        w = WORKLOADS[name]
        ref = makers[w.kind](w, ctx)
        REFERENCE_DIR.mkdir(exist_ok=True)
        with open(REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        if w.kind != "build":
            # stratified_sample must find every task in the pool
            assert stratified_sample(ref["items"], w.per_task, 0, name)
            cross_check(w, ctx)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
