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
    "log provmind_llm": "2fd37edc9378830b82ef50686ede7cbbb9cb1984089fe9a5cb5d4d1b99978f5f",
    "fused provmind_llm": "966e9897fd4d1b69d3ad6f9a736687c2ecba400e432968625b52f637427a8142",
    "report provmind_llm": "410af02c97612a5ac2a22fda5db321b2a838f01cd3c8dfe301759cffa78e20c3",
    "ablation module,scoring": "92feb19ebf56cdf1d25aab1bc5058456cb4c5d4289915bb8804c76cf2c89ee10",
}


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
    fused = [[round(x, 9) for x in row["scores"]["fused"]] for row in rows]
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
    for policy in ("argmax_hybrid", "provmind_llm"):
        runs.append(["eval", *scoped, "--policy", policy, "--report", str(tmp_path / f"report_{policy}"),
                     "--log", str(tmp_path / f"log_{policy}")])
    runs.append(["ablate", *scoped, "--axes", "module,scoring", "--report", str(tmp_path / "ablation")])
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in runs:
            assert cli.dispatch(argv) == 0, argv

    got = {}
    for policy in ("argmax_hybrid", "provmind_llm"):
        got[f"log {policy}"], got[f"fused {policy}"] = _log_pins(tmp_path / f"log_{policy}")
        got[f"report {policy}"] = _report_pin(tmp_path / f"report_{policy}")
    got["ablation module,scoring"] = _ablation_pin(tmp_path / "ablation")
    assert got == PINS
