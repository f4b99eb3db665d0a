"""The README quickstart's answers are pinned: a change that moves an eval
log, an eval report or an ablation table moves one of these digests.

Each digest is a SHA-256 over what an artifact decides, not over its
bytes: a log row's float-free fields (item id, answer, correctness,
precedents, flags, fallback, and each exchange's prompt and response
hashes), its fused scores rounded to 9 decimals (so a BLAS build's last
bit does not move them), and each report's and ablation row's tallies. A
change that moves a pin on purpose says which and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

from helpers import quickstart_dir
from matproc import cli
from matproc.jsonio import read_ndjson

PINS = {
    "log argmax_hybrid": "df970415b70a00b124f53de8fca70ff2a1f038af9a7df90312ffaa2fc6a861b1",
    "fused argmax_hybrid": "966e9897fd4d1b69d3ad6f9a736687c2ecba400e432968625b52f637427a8142",
    "report argmax_hybrid": "e5b43c20bc78e489cb69d89f9bef2c4b6e8721d2a3d8cd6e5d6f54bc3c95ae8a",
    "log argmax_symbolic": "16e76e44d98d9c1217587d433e9649fff67a89563ea42fea3927b0e1bc4b05eb",
    "fused argmax_symbolic": "9bdb07793c66cd51e7fa3aea75635701ac93591b6c152c3ccad255bd73f7f6b8",
    "report argmax_symbolic": "2924d3d98b7c24102b858e9f8357150628c565ce9e96267923d4b18db8a546a2",
    "log argmax_neural": "5f46c006ac39780dd33b6c666dc1d77f30adb6be0a306c031d14072d871b20d6",
    "fused argmax_neural": "caf0a511b472389ee6d577c045cbcfb02adf8b7c18580522a5d0294b7d8df6fe",
    "report argmax_neural": "340dbf8e2a72c0898769c60870a663a6e1337c5194f530454f7de0d550493033",
    "log provmind_llm": "2fd37edc9378830b82ef50686ede7cbbb9cb1984089fe9a5cb5d4d1b99978f5f",
    "fused provmind_llm": "966e9897fd4d1b69d3ad6f9a736687c2ecba400e432968625b52f637427a8142",
    "report provmind_llm": "410af02c97612a5ac2a22fda5db321b2a838f01cd3c8dfe301759cffa78e20c3",
    # rag and graphrag score no options: their fused pins pin rows of null scores
    "log rag": "6280638d8d4c14edaff92fd26b26e14f60c6e663402575a61815bc87d045a5aa",
    "fused rag": "665054a019f2066a6f6402908d1456d7ff08cec710b2691dd4f0e276eb9c5b41",
    "report rag": "1536eaaffc973d4ad78b4ea87e505234a5d1bafc7b2317e5d6590d3b34b0b203",
    "log graphrag": "17464e468acbb0ee488eb7ab706f5ea2b287dd890956125bbea6235b19e6ba63",
    "fused graphrag": "665054a019f2066a6f6402908d1456d7ff08cec710b2691dd4f0e276eb9c5b41",
    "report graphrag": "54a1838b22d2b6d42f7f90c1568bc15cbe7fb87341d0d8c223e77ee8a311acb4",
    "ablation module,scoring": "92feb19ebf56cdf1d25aab1bc5058456cb4c5d4289915bb8804c76cf2c89ee10",
    "ablation retrieval": "0aa701a6283f00fe81a91eb543b1d604da063997260aa6d4b0543084f12ca8ae",
}
POLICIES = ("argmax_hybrid", "argmax_symbolic", "argmax_neural", "provmind_llm", "rag", "graphrag")
AXES = ("module,scoring", "retrieval")


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


def _tallies(report: dict) -> dict:
    return {"overall": [report["overall"]["correct"], report["overall"]["total"]],
            "per_task": {task: [t["correct"], t["total"]] for task, t in report["per_task"].items()}}


def _log_pins(path) -> tuple[str, str]:
    header, rows = read_ndjson(path)
    decided = [header["config_hash"]] + [
        [row["item_id"], row["answer_index"], row["correct"], row["precedents"], row["flags"],
         row["fallback_used"], [[e["prompt_sha"], e["response_sha"]] for e in row["exchanges"]]]
        for row in rows
    ]
    fused = [row["scores"] and [round(x, 9) for x in row["scores"]["fused"]] for row in rows]
    return _sha(decided), _sha(fused)


def _report_pin(path) -> str:
    header, rows = read_ndjson(path)
    return _sha([header["config_hash"], *map(_tallies, rows)])


def _ablation_pin(path) -> str:
    header, rows = read_ndjson(path)
    return _sha([header["config_hash"], *([r["block"], r["label"], _tallies(r["report"])] for r in rows)])


def test_the_quickstart_answers_hold_their_pins(tmp_path):
    built = quickstart_dir()
    bench, split = str(built / "bench.ndjson"), str(built / "split.ndjson")
    memory = str(tmp_path / "memory.ndjson")
    runs = [["build-memory", "--graphs", str(built / "graphs.ndjson"), "--bench", bench,
             "--split", split, "--out", memory]]
    scoped = ["--bench", bench, "--split", split, "--memory", memory, "--partition", "test"]
    for policy in POLICIES:
        runs.append(["eval", *scoped, "--policy", policy, "--report", str(tmp_path / f"report_{policy}"),
                     "--log", str(tmp_path / f"log_{policy}")])
    for axes in AXES:
        runs.append(["ablate", *scoped, "--axes", axes, "--report", str(tmp_path / f"ablation {axes}")])
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in runs:
            assert cli.dispatch(argv) == 0, argv

    got = {}
    for policy in POLICIES:
        got[f"log {policy}"], got[f"fused {policy}"] = _log_pins(tmp_path / f"log_{policy}")
        got[f"report {policy}"] = _report_pin(tmp_path / f"report_{policy}")
    for axes in AXES:
        got[f"ablation {axes}"] = _ablation_pin(tmp_path / f"ablation {axes}")
    assert got == PINS
