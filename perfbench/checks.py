"""Compare a run's artifacts with the reference taken from a known-good commit.

Exact: eval answers, gold indices, per-task and overall correct/total,
ablation rows, item ids, partitions, audit rows, and memory processes and
transitions. Within ``TOLERANCE``: fused scores and stored memory vectors,
so that a reordered matrix product (last-bit changes) still passes. A stored
vector is compared through its projections onto a few fixed random unit
directions (``sketch``), which keeps the committed reference
small; a change of one component by ``d`` moves each projection by about
``d / sqrt(dim)``.

This module reads artifacts as plain NDJSON and never imports matproc.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TOLERANCE = 1e-9
SKETCH_SEED = 20240611
SKETCH_DIRECTIONS = 3
FAILURE_MARKERS = ("item_error:", "timeout", "unparseable")


def read_ndjson(path) -> tuple[dict, list[dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def item_failed(answer, flags) -> bool:
    """An item fails when it has no answer or carries an error, timeout or
    unparseable flag."""
    return answer is None or any(m in f for f in flags for m in FAILURE_MARKERS)


@dataclass
class CheckResult:
    checked: int = 0
    mismatched: int = 0
    failed: int = 0  # failed work units (items, item x row, or records)
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.mismatched += 1
            if len(self.notes) < 5:
                self.notes.append(what)


def _close(a, b) -> bool:
    return len(a) == len(b) and all(math.isclose(x, y, rel_tol=0.0, abs_tol=TOLERANCE)
                                    for x, y in zip(a, b))


# --- build -------------------------------------------------------------------------------


def _directions(dim: int) -> np.ndarray:
    rng = np.random.default_rng(SKETCH_SEED)
    dirs = rng.normal(size=(SKETCH_DIRECTIONS, dim))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def sketch(vector) -> list[float]:
    v = np.asarray(vector, dtype=np.float64)
    return [round(float(x), 12) for x in _directions(v.size) @ v]


def summarize_build(directory) -> dict:
    """The checked facts of one build: digests of the exact parts and a
    sketch of every stored vector."""
    d = Path(directory)
    _, bench = read_ndjson(d / "bench.ndjson")
    _, split = read_ndjson(d / "split.ndjson")
    _, audit = read_ndjson(d / "audit.ndjson")
    _, memory = read_ndjson(d / "memory.ndjson")
    processes, transitions, vectors = [], [], {}
    for row in memory:
        if row["kind"] == "process":
            vectors[row["graph_id"]] = {
                view: sketch(vec) for view, vec in sorted(row.get("embeddings", {}).items())
            }
            processes.append({k: v for k, v in row.items() if k != "embeddings"})
        elif row["kind"] == "transition":
            transitions.append(row)
    parts = {
        "items": [[r["item_id"], r["gold_index"]] for r in bench],
        "partitions": [[r["item_id"], r["partition"]] for r in split],
        "audit": audit,
        "processes": processes,
        "transitions": transitions,
    }
    return {
        "counts": {name: len(rows) for name, rows in parts.items()},
        "digests": {name: digest(rows) for name, rows in parts.items()},
        "vectors": vectors,
    }


def check_build(summary: dict, ref: dict) -> CheckResult:
    result = CheckResult()
    for name, expected in ref["digests"].items():
        result.expect(summary["digests"].get(name) == expected, f"build {name} differ")
    for graph_id, views in ref["vectors"].items():
        got = summary["vectors"].get(graph_id, {})
        for view, expected in views.items():
            result.expect(view in got and _close(got[view], expected),
                          f"vector {graph_id}/{view} differs")
    extra = set(summary["vectors"]) - set(ref["vectors"])
    result.expect(not extra, f"unexpected memory processes {sorted(extra)[:3]}")
    return result


# --- eval ----------------------------------------------------------------------------------


def eval_reference(log_rows: list[dict]) -> dict:
    return {
        r["item_id"]: {
            "task": r["task"],
            "gold": r["gold_index"],
            "answer": r["answer_index"],
            "fused": (r.get("scores") or {}).get("fused"),
        }
        for r in log_rows
    }


def expected_tally(tasks_and_correct) -> tuple[dict, dict]:
    """(per_task, overall) as matproc's EvalReport counts them."""
    per_task: dict[str, dict] = {}
    for task, correct in tasks_and_correct:
        bucket = per_task.setdefault(task, {"correct": 0, "total": 0})
        bucket["total"] += 1
        bucket["correct"] += int(correct)
    for bucket in per_task.values():
        bucket["accuracy"] = bucket["correct"] / bucket["total"]
    correct = sum(b["correct"] for b in per_task.values())
    total = sum(b["total"] for b in per_task.values())
    overall = {"correct": correct, "total": total,
               "accuracy": correct / total if total else 0.0}
    return {task: per_task[task] for task in sorted(per_task)}, overall


def check_eval(directory, ref: dict, ids: list[str]) -> CheckResult:
    d = Path(directory)
    result = CheckResult()
    _, log = read_ndjson(d / "log.ndjson")
    _, (report,) = read_ndjson(d / "report.ndjson")
    by_id = {r["item_id"]: r for r in log}
    for item_id in ids:
        want, got = ref["items"][item_id], by_id.get(item_id)
        if got is None:
            result.failed += 1
            result.expect(False, f"{item_id} missing from the log")
            continue
        if item_failed(got["answer_index"], got.get("flags", [])):
            result.failed += 1
        fused = (got.get("scores") or {}).get("fused")
        same = (got["answer_index"] == want["answer"] and got["gold_index"] == want["gold"]
                and (fused is None) == (want["fused"] is None)
                and (fused is None or _close(fused, want["fused"])))
        result.expect(same, f"{item_id} answer or scores differ")
    result.expect(len(log) == len(ids), f"log has {len(log)} rows for {len(ids)} items")
    per_task, overall = expected_tally(
        (ref["items"][i]["task"], ref["items"][i]["answer"] == ref["items"][i]["gold"])
        for i in ids
    )
    result.expect(report.get("per_task") == per_task, "per-task tallies differ")
    result.expect(report.get("overall") == overall, "overall tally differs")
    result.expect(report.get("policy") == ref["policy"] and report.get("split_id") == ref["split_id"],
                  "report policy or split differs")
    return result


# --- ablate ----------------------------------------------------------------------------------


def expected_ablation_rows(ref: dict, ids: list[str]) -> list[dict]:
    rows = []
    for j, row in enumerate(ref["rows"]):
        per_task, overall = expected_tally(
            (ref["items"][i]["task"], ref["items"][i]["answers"][j] == ref["items"][i]["gold"])
            for i in ids
        )
        rows.append({
            "block": row["block"],
            "label": row["label"],
            "report": {"split_id": row["split_id"], "policy": row["policy"],
                       "per_task": per_task, "overall": overall, "log_path": ""},
        })
    return rows


def check_ablate(directory, ref: dict, ids: list[str]) -> CheckResult:
    """Row-level check. The ablation artifact carries no per-item flags, so
    an item that fails shows here as a changed tally, and as ``failed`` only
    when a row leaves it out."""
    _, rows = read_ndjson(Path(directory) / "ablation.ndjson")
    result = CheckResult()
    expected = expected_ablation_rows(ref, ids)
    result.expect(len(rows) == len(expected), f"{len(rows)} ablation rows, expected {len(expected)}")
    for got, want in zip(rows, expected):
        result.expect(got == want, f"ablation row {want['block']}/{want['label']} differs")
        result.failed += max(0, len(ids) - got.get("report", {}).get("overall", {}).get("total", 0))
    result.failed += len(ids) * max(0, len(expected) - len(rows))
    return result
