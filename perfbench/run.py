"""matproc benchmark: run one workload for a fixed time and check its outputs.

    python3 perfbench/run.py --workload eval_n200 --seed 1 --seconds 30 --trace 0

Run from the root of a matproc checkout. Each repetition runs in a fresh
interpreter (``child.py``) with the chat and embedding endpoint variables
removed, so nothing leaves the machine and no in-process cache carries over
between repetitions. BLAS gets one thread, like the rest of a ``--jobs 1``
run: a second BLAS thread spinning against whatever else shares the CPUs
made build-memory up to three times slower from run to run. Repetitions continue while the next one is expected
to end within ``--seconds``; there is always at least one.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics, the traced wall time and the tracing overhead.

Corpora that several runs share (the eval and ablate memories) are built
once per source tree under ``.perfbench/cache`` and reused; the time that
took is part of the run record, not of ``setup_s``. Every metric is printed
by name with its unit; the last line is one JSON object. The exit code is 1
when any output differs from the reference or any command fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from checks import CheckResult
from child import write_sample
from stats import highest_percentile, percentile
from tracing import aggregate, layer_value, load_spans
from workloads import GENBENCH_SEED, PROTOCOL, SYNTH_SEED, WORKLOADS, build_stages, synth_argv

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench"
ENDPOINT_VARS = ("MATPROC_CHAT_URL", "MATPROC_CHAT_TOKEN", "MATPROC_EMBED_URL", "MATPROC_EMBED_TOKEN")
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_SETUPS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s once its corpus is cached
CORPUS_LIMIT_S = 800.0
MB = 1024 * 1024


class HarnessError(RuntimeError):
    pass


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark may run in a plain copy of the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(spec: dict, directory: Path, timeout: float) -> dict:
    """Run child.py on ``spec`` in ``directory``; return its result with
    ``setup_s`` measured from the moment of spawning."""
    spec = {**spec, "src": str(ROOT / "src"), "dir": str(directory),
            "result": str(directory / "result.json"), "spans": str(directory / "spans.ndjson")}
    (directory / "spec.json").write_text(json.dumps(spec))
    env = {k: v for k, v in os.environ.items() if k not in ENDPOINT_VARS} | ONE_THREAD
    started = time.monotonic()
    with open(directory / "child.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run([sys.executable, str(CHILD), str(directory / "spec.json")],
                                  stdout=log, stderr=subprocess.STDOUT, env=env,
                                  cwd=directory, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"repetition exceeded {timeout:.0f} s; see {log.name}") from exc
    if proc.returncode != 0:
        raise HarnessError(f"child exited {proc.returncode}; see {directory / 'child.log'}")
    result = json.loads((directory / "result.json").read_text())
    if "setup_error" in result:
        raise HarnessError(f"set-up failed: {result['setup_error']}; see {directory / 'child.log'}")
    result["setup_s"] = result["setup_done"] - started
    result["child_s"] = time.monotonic() - started
    return result


class Context:
    """Shared, cached corpora for the eval and ablate workloads."""

    def __init__(self):
        self.source = source_digest()
        self.cache_build_s = 0.0

    def corpus(self, n: int) -> Path:
        final = WORK / "cache" / f"corpus-n{n}-{self.source}"
        if (final / "ready").exists():
            return final
        for stale in final.parent.glob(f"corpus-n{n}-*"):
            shutil.rmtree(stale)
        tmp = final.with_name(final.name + ".tmp")
        tmp.mkdir(parents=True)
        started = time.monotonic()
        run_child({"setup": [synth_argv(n, SYNTH_SEED)], "stages": build_stages(audit=False)},
                  tmp, CORPUS_LIMIT_S)
        self.cache_build_s += time.monotonic() - started
        (tmp / "ready").write_text("")
        tmp.rename(final)
        return final

    def write_pool(self, ids: list[str], files: list[tuple[Path, Path]]) -> None:
        tmp = [(src, dst.with_name(dst.name + ".tmp")) for src, dst in files]
        write_sample({"ids": ids, "files": [[str(s), str(t)] for s, t in tmp]})
        for (_, t), (_, dst) in zip(tmp, files):
            t.rename(dst)


def run_rep(workload, inputs: dict, seed: int, directory: Path, traced: bool,
            deadline: float, layer_names: list[str]) -> dict:
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    spec = {"setup": inputs["setup"], "sample": inputs["sample"],
            "stages": inputs["stages"], "trace": traced}
    result = run_child(spec, directory, deadline - time.monotonic())
    ok = len(result["stages"]) == len(inputs["stages"]) and all(
        s["rc"] == 0 for s in result["stages"])
    if ok:
        check = workload.check(directory, inputs, seed)
    else:
        check = CheckResult(failed=inputs["units"], notes=[f"stage failed: {result['stages'][-1]}"])
        check.expect(False, "a command exited non-zero")
    rep = {
        "traced": traced,
        "ok": ok,
        "setup_s": result["setup_s"],
        "wall_s": result["wall_s"],
        "child_s": result["child_s"],
        "stages": {s["name"]: s["s"] for s in result["stages"]},
        "rss_mb": result["maxrss_kb"] / 1024,
        "artifacts": {name: (directory / name).stat().st_size
                      for name in workload.outputs if (directory / name).exists()},
        "check": check,
    }
    if traced:
        spans, counts, missing = load_spans(directory / "spans.ndjson")
        agg = aggregate(spans, counts)
        rep["layers"] = {name: layer_value(agg, name, len(inputs.get("ids", ())))
                         for name in layer_names}
        rep["missing_hooks"] = missing
        rep["retrieve_children"] = dict(agg.get("retrieval.retrieve", {}).get("children", {}))
    return rep


def measure(workload, seed: int, seconds: float, trace: bool, started: float,
            layer_names: list[str]) -> tuple[dict, list[dict], list[float]]:
    inputs = workload.inputs(seed)
    rep_dir = WORK / "runs" / workload.name
    hard_deadline = started + RUN_LIMIT_S
    window_end = time.monotonic() + seconds
    kinds = (False, True) if trace else (False,)
    reps: list[dict] = []
    while True:
        traced = kinds[len(reps) % len(kinds)]
        reps.append(run_rep(workload, inputs, seed, rep_dir, traced, hard_deadline, layer_names))
        if not reps[-1]["ok"]:
            break
        covered = {r["traced"] for r in reps} == set(kinds)
        typical = median([r["child_s"] for r in reps])
        if covered and time.monotonic() + typical > window_end:
            break
    setups = [r["setup_s"] for r in reps if not r["traced"]]
    while not trace and len(setups) < MIN_SETUPS:
        rep_dir.mkdir(parents=True, exist_ok=True)
        only = {"setup": inputs["setup"], "sample": inputs["sample"], "setup_only": True}
        setups.append(run_child(only, rep_dir, hard_deadline - time.monotonic())["setup_s"])
    return inputs, reps, setups


def summarize(inputs, reps, setups) -> tuple[dict, dict]:
    """(metrics, extras): every end-to-end and per-layer value this run has."""
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    metrics = {
        "setup_s": median(setups),
        "wall_s": median([r["wall_s"] for r in plain]),
        "items_per_s": median([inputs["units"] / r["wall_s"] for r in plain]),
        "peak_rss_mb": median([r["rss_mb"] for r in plain]),
        "artifact_mb": median([sum(r["artifacts"].values()) / MB for r in plain]),
    }
    if traced:
        for name in traced[0]["layers"]:
            metrics[name] = median([r["layers"][name] for r in traced])
        metrics["trace.wall_s"] = median([r["wall_s"] for r in traced])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["wall_s"]
    checked = sum(r["check"].checked for r in reps)
    mismatched = sum(r["check"].mismatched for r in reps)
    attempted = inputs["units"] * len(reps)
    failed = sum(min(r["check"].failed, inputs["units"]) for r in reps)
    extras = {
        "failed_frac": failed / attempted,
        "mismatch_frac": mismatched / checked if checked else 1.0,
        "attempted": attempted,
        "failed": failed,
        "checked": checked,
        "mismatched": mismatched,
        "notes": sorted({n for r in reps for n in r["check"].notes}),
        "stage_s": {name: median([r["stages"][name] for r in plain])
                    for name in plain[0]["stages"]} if plain else {},
        "samples": {"untraced": len(plain), "traced": len(traced), "setups": len(setups)},
    }
    return metrics, extras


def report_lines(workload, args, inputs, reps, metrics, extras, record, spec) -> list[str]:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    walls = [r["wall_s"] for r in reps if not r["traced"]]
    n, p = len(walls), highest_percentile(len(walls))
    tail = ("no percentile above the median has ten samples beyond it" if p is None
            else f"p{p:g} {percentile(walls, p):.4f} s")
    lines = [
        f"workload {workload.name} (seed {args.seed}, {args.seconds} s, trace {args.trace}): "
        f"{inputs['describe']}",
        f"  record: {json.dumps(record, sort_keys=True)}",
        "  end-to-end (untraced repetitions):",
        f"    setup_s        {metrics['setup_s']:.4f} s   median of {extras['samples']['setups']} set-ups",
        f"    wall_s         {metrics['wall_s']:.4f} s   median of {n} repetitions ({tail})",
        f"    items_per_s    {metrics['items_per_s']:.4f} 1/s   {workload.unit} per second",
        f"    peak_rss_mb    {metrics['peak_rss_mb']:.2f} MB",
        f"    artifact_mb    {metrics['artifact_mb']:.4f} MB",
        f"    failed_frac    {extras['failed_frac']:.4f} ratio   "
        f"{extras['failed']}/{extras['attempted']} {workload.unit}",
        f"    mismatch_frac  {extras['mismatch_frac']:.4f} ratio   "
        f"{extras['mismatched']}/{extras['checked']} checked outputs",
        "  stage wall (median s): " + ", ".join(f"{k} {v:.3f}" for k, v in extras["stage_s"].items()),
    ]
    for note in extras["notes"]:
        lines.append(f"  MISMATCH: {note}")
    if args.trace:
        lines.append("  per-layer (median over traced repetitions; waiting and retries: "
                     "not applicable, no layer queues or retries offline):")
        for m in spec["per_layer"]:
            lines.append(f"    {m['name']:<40} {metrics[m['name']]:.6g} {units[m['name']]}")
        children = reps[-1].get("retrieve_children") or {}
        if children:
            lines.append("  inside retrieval.retrieve (s): " + ", ".join(
                f"{k} {v:.3f}" for k, v in sorted(children.items(), key=lambda kv: -kv[1])))
        missing = sorted({h for r in reps for h in r.get("missing_hooks", [])})
        if missing:
            lines.append(f"  hooks not found in this source tree: {', '.join(missing)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "matproc" / "cli.py").is_file():
        print(f"error: no matproc source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = [m["name"] for m in spec["per_layer"] if not m["name"].startswith("trace.")]
    workload = WORKLOADS[args.workload]
    ctx = Context()
    try:
        workload.prepare(ctx)
        inputs, reps, setups = measure(workload, args.seed, args.seconds, bool(args.trace),
                                       time.monotonic(), layer_names)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics, extras = summarize(inputs, reps, setups)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "sample_size": len(inputs.get("ids", ())) or workload.n_records,
        "corpus": {"n": workload.n_records, "genbench_seed": GENBENCH_SEED, "protocol": PROTOCOL},
        "inputs": inputs["describe"],
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
        "platform": platform.platform(), "commit": git_commit(), "source": ctx.source,
        "cache_build_s": round(ctx.cache_build_s, 3),
        "artifacts": reps[-1]["artifacts"],
        "run_s": round(time.monotonic() - started, 3),
    }
    for line in report_lines(workload, args, inputs, reps, metrics, extras, record, spec):
        print(line)
    correct = extras["mismatched"] == 0 and all(r["ok"] for r in reps)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {
        "correct": correct,
        "attempted": extras["attempted"],
        "failed": extras["failed"],
        # a failed first repetition leaves the per-layer metrics unmeasured
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"record": record, "result": out, "metrics": metrics, "extras": extras},
        indent=1, sort_keys=True))
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
