"""Run every workload over several seeds and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads eval_n200,...] [--traced] [--out FILE]

A spread (third minus first quartile, as a share of the median) under a
third of the metric's bound is steady enough to compare commits with;
setup_s is reported but not held to it. Each workload's seeds run back to
back, then the next workload's. ``--traced`` adds one traced run
per workload on the first seed. ``--out`` writes every run's result and
record with the summary, which is how a baseline is recorded.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}")
    saved = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(saved.read_text())
    return {"seed": seed, "trace": trace, "exit": proc.returncode, "result": json.loads(lines[-1]),
            "record": record["record"], "extras": record["extras"]}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seeds, workloads = seeds_from(args.seeds), args.workloads.split(",")

    runs = {w: [] for w in workloads}
    for w in workloads:
        for seed in seeds:
            run = run_once(w, seed, spec["run_seconds"], 0)
            runs[w].append(run)
            print(f"{w} seed {seed}: exit {run['exit']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in run["result"]["metrics"].items()), flush=True)
    traced = {w: run_once(w, seeds[0], spec["run_seconds"], 1) for w in workloads} if args.traced else {}

    summary, steady = {}, True
    for w in workloads:
        summary[w] = {}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs[w]]
            spread = quartile_spread(values) if len(values) > 1 else 0.0
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            steady &= ok
            summary[w][m["name"]] = {"median": median(values), "spread": spread,
                                     "bound": m["bound"], "unit": m["unit"], "steady": ok}
            print(f"{w:<14} {m['name']:<12} median {median(values):12.5g} {m['unit']:<4} "
                  f"spread {spread:7.4f}  bound/3 {m['bound'] / 3:.4f}  {'ok' if ok else 'WIDE'}")
    correct = all(r["result"]["correct"] and r["exit"] == 0
                  for rs in runs.values() for r in rs) and all(
        t["result"]["correct"] for t in traced.values())
    print(f"all outputs correct: {correct}; every spread within a third of its bound: {steady}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seeds": seeds, "run_seconds": spec["run_seconds"], "summary": summary,
             "runs": runs, "traced": traced}, indent=1, sort_keys=True) + "\n")
    return 0 if correct and steady else 1


if __name__ == "__main__":
    sys.exit(main())
