"""RunConfig merging/hashing and the file-to-file CLI pipeline."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import typing
from dataclasses import fields, replace
from pathlib import Path

import pytest

from matproc import __version__
from matproc import cli
from matproc.config import PATH_KEYS, RunConfig, load_config_file
from matproc.errors import ConfigConflict
from matproc.jsonio import loads, read_ndjson, write_ndjson
from matproc.memory import StepQuery, load_memory
from matproc.provgraph import SynthParams, generate_synthetic_corpus, to_prov_document
from matproc.retrieval import RetrievalWeights
from matproc.runner import DEFAULT_BUDGETS, POLICIES, PolicyConfig
from matproc.scoring import ScoringConfig
from matproc.taskgen import GenCaps

from helpers import LoopbackEndpoint, assert_same_memory, count_thread_pools


# --- run configuration ------------------------------------------------------------------


def test_run_config_round_trip():
    cfg = RunConfig(
        paths={"bench": "b.ndjson", "split": "s.ndjson"},
        seed=9,
        protocol="dual",
        lam=0.7,
        policy="provmind_llm",
        axes=["module", "top_k"],
    )
    clone = RunConfig.from_dict(cfg.to_dict())
    assert clone.to_dict() == cfg.to_dict()


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ConfigConflict):
        RunConfig.from_dict({"galaxy": 1})
    with pytest.raises(ConfigConflict):
        RunConfig(paths={"treasure": "x.ndjson"})
    with pytest.raises(ConfigConflict):
        RunConfig().merged({"paths": {"treasure": "x"}})


def test_merged_overrides_and_deep_merges():
    base = RunConfig()
    merged = base.merged(
        {"lam": 0.3, "runner": {"planning": False}, "paths": {"bench": "b"}}
    )
    assert merged.lam == 0.3
    assert merged.runner["planning"] is False
    assert merged.runner["fallback"] is True  # untouched siblings survive
    assert merged.runner["budgets"] == DEFAULT_BUDGETS
    assert merged.paths == {"bench": "b"}
    assert base.lam == 0.5  # merged() copies


def test_config_hash_tracks_content_knobs_only():
    base = RunConfig()
    assert base.config_hash() == RunConfig().config_hash()
    assert base.merged({"lam": 0.9}).config_hash() != base.config_hash()
    assert base.merged({"seed": 3}).config_hash() != base.config_hash()
    assert (
        base.merged({"weights": {"alpha": 0.5, "beta": 0.25, "gamma": 0.25}}).config_hash()
        != base.config_hash()
    )
    # Locations, parallelism, and credentials never alter computed rows.
    same = {"paths": {"bench": "elsewhere.ndjson"}, "jobs": 7}
    assert base.merged(same).config_hash() == base.config_hash()
    assert (
        base.merged({"endpoints": {"chat_token": "secret"}}).config_hash()
        == base.config_hash()
    )
    assert (
        base.merged({"endpoints": {"chat_url": "http://x"}}).config_hash()
        != base.config_hash()
    )


def test_policy_config_view():
    cfg = RunConfig(
        policy="provmind_llm",
        lam=0.25,
        top_k=5,
        seed=3,
        runner={"planning": False, "rag_k": 4},
    )
    pc = cfg.policy_config()
    assert pc.policy == "provmind_llm"
    assert pc.lam == 0.25
    assert pc.top_k == 5
    assert pc.seed == 3
    assert pc.planning is False
    assert pc.rag_k == 4
    assert pc.budgets == DEFAULT_BUDGETS


def test_path_accessor():
    cfg = RunConfig(paths={"bench": "b.ndjson"})
    assert cfg.path("bench") == "b.ndjson"
    with pytest.raises(ConfigConflict):
        cfg.path("memory")  # known key, not configured
    with pytest.raises(ConfigConflict):
        cfg.path("treasure")  # unknown key
    assert set(PATH_KEYS) >= {"raw", "graphs", "bench", "split", "memory", "log", "report"}


def test_load_config_file_requires_an_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigConflict):
        load_config_file(path)


# --- pipeline fixture ---------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def pipeline() -> dict[str, Path]:
    """One small synth → eval pipeline, built once for the whole module."""
    root = Path(tempfile.mkdtemp(prefix="matproc-cli-"))
    paths = {
        name: root / f"{name}.ndjson"
        for name in (
            "raw",
            "graphs",
            "warnings",
            "bench",
            "skips",
            "split",
            "memory",
            "report",
            "log",
            "audit",
            "ablation",
        )
    }
    steps = [
        ["synth", "--out", str(paths["raw"]), "--n", "16", "--seed", "7"],
        [
            "compile",
            "--in", str(paths["raw"]),
            "--out", str(paths["graphs"]),
            "--warnings", str(paths["warnings"]),
        ],
        [
            "genbench",
            "--graphs", str(paths["graphs"]),
            "--out", str(paths["bench"]),
            "--skips", str(paths["skips"]),
            "--seed", "3",
        ],
        [
            "split",
            "--bench", str(paths["bench"]),
            "--out", str(paths["split"]),
            "--protocol", "random",
            "--seed", "5",
        ],
        [
            "build-memory",
            "--graphs", str(paths["graphs"]),
            "--bench", str(paths["bench"]),
            "--split", str(paths["split"]),
            "--out", str(paths["memory"]),
        ],
        [
            "eval",
            "--bench", str(paths["bench"]),
            "--split", str(paths["split"]),
            "--memory", str(paths["memory"]),
            "--partition", "test",
            "--policy", "argmax_hybrid",
            "--report", str(paths["report"]),
            "--log", str(paths["log"]),
        ],
        [
            "audit",
            "--bench", str(paths["bench"]),
            "--pairs", "dual:dual,dual:type,dual:year",
            "--out", str(paths["audit"]),
        ],
        [
            "ablate",
            "--bench", str(paths["bench"]),
            "--split", str(paths["split"]),
            "--memory", str(paths["memory"]),
            "--partition", "test",
            "--axes", "module",
            "--report", str(paths["ablation"]),
        ],
    ]
    for argv in steps:
        assert cli.dispatch(argv) == 0, argv
    return paths


def test_pipeline_stages_produce_artifacts():
    paths = pipeline()
    for name, path in paths.items():
        assert path.exists(), name


# SHA-256 of the pipeline's artifacts without their stored vectors: the memory
# is pinned with each process row's ``embeddings`` removed, the eval and
# ablation files stay out. Those floats depend on the BLAS build. Every header
# carries the tool version, so a version bump changes these too.
PINNED_DIGESTS = {
    "graphs": "996cce9e6e4a59742e350ebb74f7799ee42989750285bc9f742a78eb345fee52",
    "bench": "5f530d553d0ae2a09a53da77dd19a94a351583784e70ad6e4c281e358e9caf9e",
    "skips": "7792dde37b0f6b2f7ffe09f51313374b83fc4877b4e26739eaed798c88d018c5",
    "split": "96b42d8423dc01cbefa349d2076361b926e553b05dc3676ead874455466e5e9a",
    "audit": "3e2a6be11c3f9c6d79b4c7e216bf58b24d1430c4c9d4ce1b5a1cb459ce113d69",
    "memory": "f85c79f2be2922a26a414a8707304b9ce56789f8b001bd85377858050ba5f720",
}


def _vector_free_bytes(name: str, path: Path) -> bytes:
    """The artifact's bytes; for the memory, its lines with each process row
    written again without ``embeddings`` (rows are compact, sorted JSON)."""
    if name != "memory":
        return path.read_bytes()
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        if row.get("kind") == "process":
            del row["embeddings"]
            line = json.dumps(row, sort_keys=True, separators=(",", ":"))
        lines.append(line)
    return "\n".join(lines).encode()


def test_vector_free_artifacts_keep_their_pinned_bytes():
    paths = pipeline()
    digests = {name: hashlib.sha256(_vector_free_bytes(name, paths[name])).hexdigest()
               for name in PINNED_DIGESTS}
    assert digests == PINNED_DIGESTS


def test_artifacts_carry_config_hash_and_tool_version():
    paths = pipeline()
    for name in ("raw", "graphs", "bench", "split", "memory", "report", "log", "audit"):
        header, _ = read_ndjson(paths[name])
        assert header["tool_version"] == __version__, name
        assert isinstance(header["config_hash"], str) and header["config_hash"], name


def test_eval_report_artifact_shape():
    paths = pipeline()
    header, rows = read_ndjson(paths["report"])
    assert header["format"] == cli.EVAL_REPORT_FORMAT
    assert len(rows) == 1
    report = rows[0]
    assert report["policy"]["policy"] == "argmax_hybrid"
    assert report["overall"]["total"] > 0
    assert "wall_clock_s" not in report
    log_header, log_rows = read_ndjson(paths["log"])
    assert log_header["format"] == cli.EVAL_LOG_FORMAT
    assert len(log_rows) == report["overall"]["total"]
    assert len({row["item_id"] for row in log_rows}) == len(log_rows)  # unique ids
    assert all(row["policy"] == "argmax_hybrid" for row in log_rows)


def test_every_report_names_the_split_a_memory_less_one_too(tmp_path):
    paths = pipeline()
    report = tmp_path / "report.ndjson"
    code = cli.dispatch(["eval", "--bench", str(paths["bench"]), "--split", str(paths["split"]),
                         "--partition", "test", "--policy", "zero_shot", "--report", str(report)])
    assert code == 0
    split_id = "random-seed5"  # the pipeline's split
    assert read_ndjson(paths["memory"])[0]["split_id"] == split_id
    assert [row["split_id"] for row in read_ndjson(report)[1]] == [split_id]
    assert [row["split_id"] for row in read_ndjson(paths["report"])[1]] == [split_id]
    assert {row["report"]["split_id"] for row in read_ndjson(paths["ablation"])[1]} == {split_id}


def test_audit_artifact_lists_requested_pairs():
    paths = pipeline()
    header, rows = read_ndjson(paths["audit"])
    assert header["format"] == cli.AUDIT_FORMAT
    assert [(r["train_of"], r["test_of"]) for r in rows] == [
        ("dual", "dual"),
        ("dual", "type"),
        ("dual", "year"),
    ]
    assert all(r["fraction"] == 0.0 for r in rows)


def test_ablation_artifact_rows():
    paths = pipeline()
    header, rows = read_ndjson(paths["ablation"])
    assert header["format"] == cli.ABLATION_FORMAT
    assert [r["label"] for r in rows] == [
        "full",
        "planning_off",
        "fallback_off",
        "symbolic_scoring_off",
    ]
    assert all(r["report"]["overall"]["total"] > 0 for r in rows)


def test_rerunning_stages_is_byte_identical(tmp_path):
    first = pipeline()
    # Re-run synth/compile/genbench into fresh locations with the same seeds.
    raw2 = tmp_path / "raw.ndjson"
    graphs2 = tmp_path / "graphs.ndjson"
    bench2 = tmp_path / "bench.ndjson"
    assert cli.dispatch(["synth", "--out", str(raw2), "--n", "16", "--seed", "7"]) == 0
    assert cli.dispatch(["compile", "--in", str(raw2), "--out", str(graphs2)]) == 0
    assert (
        cli.dispatch(
            ["genbench", "--graphs", str(graphs2), "--out", str(bench2), "--seed", "3"]
        )
        == 0
    )
    assert raw2.read_bytes() == first["raw"].read_bytes()
    assert graphs2.read_bytes() == first["graphs"].read_bytes()
    assert bench2.read_bytes() == first["bench"].read_bytes()


def test_report_command_renders_each_artifact(capsys):
    paths = pipeline()
    assert cli.dispatch(["report", "--in", str(paths["report"])]) == 0
    out = capsys.readouterr().out
    assert "policy: argmax_hybrid" in out and "overall" in out
    assert cli.dispatch(["report", "--in", str(paths["ablation"])]) == 0
    assert "symbolic_scoring_off" in capsys.readouterr().out
    assert cli.dispatch(["report", "--in", str(paths["audit"])]) == 0
    assert "= 0.000" in capsys.readouterr().out
    assert cli.dispatch(["report", "--in", str(paths["split"])]) == 0
    assert "protocol: random" in capsys.readouterr().out


def test_report_command_rejects_unknown_formats(tmp_path, capsys):
    path = tmp_path / "odd.ndjson"
    path.write_text('{"format": "mystery"}\n')
    assert cli.dispatch(["report", "--in", str(path)]) == 3
    assert "no renderer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fmt, rows",
    [
        (cli.EVAL_REPORT_FORMAT, []),
        (cli.EVAL_REPORT_FORMAT, [{"split_id": "year"}]),
        (cli.ABLATION_FORMAT, []),
        (cli.ABLATION_FORMAT, [{"label": "full", "report": {}}]),
        (cli.ABLATION_FORMAT, [{"block": "module", "report": {}}]),
        (cli.ABLATION_FORMAT, [{"block": "module", "label": "full"}]),
        (cli.AUDIT_FORMAT, []),
        (cli.SPLIT_FORMAT, []),
    ],
    ids=["eval-no-rows", "eval-no-tallies", "ablation-no-rows", "no-block", "no-label",
         "no-report", "audit-no-rows", "split-no-rows"],
)
def test_report_rejects_artifacts_without_renderable_rows(tmp_path, capsys, fmt, rows):
    path = tmp_path / "artifact.ndjson"
    write_ndjson(path, {"format": fmt}, rows)
    assert cli.dispatch(["report", "--in", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


# --- dispatch and exit codes ----------------------------------------------------------------


def eval_argv(paths, policy, log, jobs=1, memory=None):
    return [
        "eval",
        "--bench", str(paths["bench"]),
        "--split", str(paths["split"]),
        "--memory", str(memory or paths["memory"]),
        "--partition", "test",
        "--policy", policy,
        "--log", str(log),
        "--jobs", str(jobs),
    ]


@pytest.mark.parametrize("policy", ["argmax_hybrid", "provmind_llm"])
def test_jobs_never_change_eval_logs(tmp_path, policy, monkeypatch, capsys):
    # provmind_llm asks a chat endpoint, so --jobs 4 answers its items in threads
    pools = count_thread_pools(monkeypatch)
    paths = pipeline()
    logs = []
    with LoopbackEndpoint({"text": "Answer: B"}) as server:
        for jobs in (1, 4):
            log = tmp_path / f"log-jobs{jobs}.ndjson"
            assert cli.dispatch([*eval_argv(paths, policy, log, jobs), "--chat-url", server.url]) == 0
            logs.append(log.read_bytes())
    assert logs[0] == logs[1]
    assert pools == ([4] if policy == "provmind_llm" else [])


def ablate_argv(paths, report, axes=None, jobs=1):
    argv = [
        "ablate",
        "--bench", str(paths["bench"]),
        "--split", str(paths["split"]),
        "--memory", str(paths["memory"]),
        "--partition", "test",
        "--report", str(report),
        "--jobs", str(jobs),
    ]
    return argv if axes is None else [*argv, "--axes", axes]


def test_jobs_never_change_the_ablation_artifact(tmp_path, monkeypatch, capsys):
    # the module rows ask a chat endpoint, so --jobs 4 answers the items in threads
    pools = count_thread_pools(monkeypatch)
    paths = pipeline()
    artifacts = []
    with LoopbackEndpoint({"text": "Answer: B"}) as server:
        for jobs in (1, 4):
            report = tmp_path / f"ablation-jobs{jobs}.ndjson"
            assert cli.dispatch([*ablate_argv(paths, report, jobs=jobs), "--chat-url", server.url]) == 0
            artifacts.append(report.read_bytes())
    assert len(read_ndjson(tmp_path / "ablation-jobs1.ndjson")[1]) == 25
    assert artifacts[0] == artifacts[1]
    assert pools == [4]


def test_shuffled_memory_rows_change_no_eval_log_or_ablation_byte(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MATPROC_CHAT_URL", raising=False)  # the module rows use the mock client
    paths = pipeline()
    header, *rows = paths["memory"].read_text().splitlines(keepends=True)
    random.Random(0).shuffle(rows)
    shuffled = tmp_path / "memory.ndjson"
    shuffled.write_text(header + "".join(rows))
    outputs = []
    for memory in (paths["memory"], shuffled):
        log, ablation = tmp_path / "log.ndjson", tmp_path / "ablation.ndjson"
        assert cli.dispatch(eval_argv(paths, "argmax_hybrid", log, memory=memory)) == 0
        argv = ablate_argv(paths, ablation)
        argv[argv.index("--memory") + 1] = str(memory)
        assert cli.dispatch(argv) == 0
        outputs.append((log.read_bytes(), ablation.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("policy", ["argmax_hybrid", "provmind_llm"])
def test_permuted_bench_items_change_no_item_log_row(tmp_path, policy, monkeypatch, capsys):
    monkeypatch.delenv("MATPROC_CHAT_URL", raising=False)  # provmind_llm uses the mock client
    paths = pipeline()
    header, *rows = paths["bench"].read_text().splitlines(keepends=True)
    shuffled = list(rows)
    random.Random(1).shuffle(shuffled)
    logs = []
    for name, order in (("bench", rows), ("reversed", rows[::-1]), ("shuffled", shuffled)):
        bench, log = tmp_path / f"{name}.ndjson", tmp_path / f"log-{name}.ndjson"
        bench.write_text(header + "".join(order))
        argv = eval_argv(paths, policy, log)
        argv[argv.index("--bench") + 1] = str(bench)
        assert cli.dispatch(argv) == 0
        logs.append({row["item_id"]: row for row in read_ndjson(log)[1]})
    assert len(logs[0]) > 1 and list(logs[0]) == list(logs[1])[::-1]  # the order did change
    assert logs[0] == logs[1] == logs[2]


LOG_ROW_FIELDS = {"item_id", "task", "policy", "answer_index", "gold_index", "correct",
                  "fallback_used", "flags", "exchanges", "precedents", "scores"}
CHAT_BOUND = {"provmind_llm", "zero_shot", "few_shot", "rag", "graphrag"}
MEMORY_BOUND = {"argmax_symbolic", "argmax_neural", "argmax_hybrid", "provmind_llm", "rag",
                "graphrag"}
SCORED = {"argmax_symbolic", "argmax_neural", "argmax_hybrid", "provmind_llm"}


@pytest.mark.parametrize("policy", POLICIES)
def test_every_policy_writes_the_documented_log_row(tmp_path, policy, monkeypatch, capsys):
    monkeypatch.delenv("MATPROC_CHAT_URL", raising=False)  # chat-bound policies use the mock
    paths = pipeline()
    log = tmp_path / "log.ndjson"
    argv = eval_argv(paths, policy, log)
    if policy == "external_predictions":
        _, items = read_ndjson(paths["bench"])
        predictions = tmp_path / "predictions.json"
        predictions.write_text(json.dumps({it["item_id"]: 0 for it in items}))
        argv += ["--predictions", str(predictions)]
    assert cli.dispatch(argv) == 0
    rows = read_ndjson(log)[1]
    assert rows
    for row in rows:
        assert set(row) == LOG_ROW_FIELDS, row
        assert row["policy"] == policy
        assert bool(row["exchanges"]) == (policy in CHAT_BOUND), row
        assert bool(row["precedents"]) == (policy in MEMORY_BOUND), row
        assert (row["scores"] is not None) == (policy in SCORED), row


@pytest.mark.parametrize("axes", ["", ","])
def test_ablate_without_an_axis_exits_2_and_writes_nothing(tmp_path, capsys, axes):
    report = tmp_path / "ablation.ndjson"
    assert cli.dispatch(ablate_argv(pipeline(), report, axes=axes)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no ablation axis" in err
    assert not report.exists()


def test_memory_vector_of_another_dimension_exits_3(tmp_path, capsys):
    paths = pipeline()
    header, rows = read_ndjson(paths["memory"])
    process = next(r for r in rows if r["kind"] == "process")
    process["embeddings"]["text"] = [0.03] * 768  # as an endpoint with another width stores it
    memory = tmp_path / "memory.ndjson"
    write_ndjson(memory, header, rows)
    code = cli.dispatch(eval_argv(paths, "argmax_hybrid", tmp_path / "log.ndjson", memory=memory))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and process["graph_id"] in err and "768" in err
    assert "Traceback" not in err


def test_unknown_command_exits_2(capsys):
    assert cli.dispatch(["frobnicate"]) == 2
    assert "unknown command" in capsys.readouterr().err


def test_no_command_prints_help(capsys):
    assert cli.dispatch([]) == 2
    assert "COMMAND" in capsys.readouterr().out


def _without_memory(argv):
    at = argv.index("--memory")
    return argv[:at] + argv[at + 2:]


# case -> its argv, given the pipeline's paths, the file it would write and
# a function that writes a config file and returns its path
USAGE_ERRORS = {
    "eval-lam-2": lambda p, out, cfg: [*eval_argv(p, "argmax_hybrid", out), "--lam", "2"],
    "eval-top-k-0": lambda p, out, cfg: [*eval_argv(p, "argmax_hybrid", out), "--top-k", "0"],
    "eval-policy-nope": lambda p, out, cfg: eval_argv(p, "nope", out),
    "weights-not-summing-to-1": lambda p, out, cfg: [
        *eval_argv(p, "argmax_hybrid", out),
        "--config", cfg({"weights": {"alpha": 0.5, "beta": 0.5, "gamma": 0.5}})],
    "runner-rag_k-0": lambda p, out, cfg: [*eval_argv(p, "rag", out),
                                           "--config", cfg({"runner": {"rag_k": 0}})],
    "split-ratios": lambda p, out, cfg: ["split", "--bench", str(p["bench"]), "--out", str(out),
                                         "--ratios", "0.5,0.5,0.5"],
    "synth-n-minus-1": lambda p, out, cfg: ["synth", "--out", str(out), "--n", "-1"],
    "eval-without-memory": lambda p, out, cfg: _without_memory(eval_argv(p, "argmax_hybrid", out)),
    "ablate-without-memory": lambda p, out, cfg: _without_memory(ablate_argv(p, out, axes="scoring")),
    "eval-jobs-0": lambda p, out, cfg: eval_argv(p, "argmax_hybrid", out, jobs=0),
    "ablate-jobs-0": lambda p, out, cfg: ablate_argv(p, out, axes="scoring", jobs=0),
    "split-ratios-outside-0-1": lambda p, out, cfg: [
        "split", "--bench", str(p["bench"]), "--out", str(out), "--ratios", "1.5,-0.5,0"],
    "split-dev-ratio-2": lambda p, out, cfg: [
        "split", "--bench", str(p["bench"]), "--out", str(out), "--protocol", "type",
        "--dev-ratio", "2"],
    "build-memory-max-prefix-len-minus-1": lambda p, out, cfg: [
        "build-memory", "--graphs", str(p["graphs"]), "--bench", str(p["bench"]),
        "--split", str(p["split"]), "--out", str(out), "--max-prefix-len", "-1"],
    "eval-scoring-top-m-0": lambda p, out, cfg: [
        *eval_argv(p, "argmax_symbolic", out), "--config", cfg({"scoring": {"top_m": 0}})],
    # ablate writes no per-item log, so it takes no --log
    "ablate-log": lambda p, out, cfg: [*ablate_argv(p, out.with_suffix(".report"), axes="scoring"),
                                       "--log", str(out)],
}


@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_a_bad_knob_exits_2_and_writes_nothing(tmp_path, capsys, case):
    cfg_path = tmp_path / "run.json"

    def cfg(content):
        cfg_path.write_text(json.dumps(content))
        return str(cfg_path)

    out = tmp_path / "out.ndjson"
    assert cli.dispatch(USAGE_ERRORS[case](pipeline(), out, cfg)) == 2
    err = capsys.readouterr().err
    if case == "ablate-log":  # argparse refuses the flag, after its usage line
        assert err.startswith("usage: matproc") and "error: unrecognized arguments: --log" in err
    else:
        assert err.startswith("error:")
    assert "Traceback" not in err
    assert sorted(path.name for path in tmp_path.iterdir()) in ([], ["run.json"])


# Every class whose numbers a run configuration holds, and the key under which
# it holds them. SynthParams lends RunConfig its n_records range, and
# PolicyConfig its lam and top_k ranges: those three sit at the top level.
KNOB_CLASSES = {RunConfig: None, SynthParams: None, PolicyConfig: "runner",
                RetrievalWeights: "weights", ScoringConfig: "scoring", GenCaps: "caps"}
_RUN_FIELDS = {f.name for f in fields(RunConfig)}


def _number_type(annotation):
    """int or float when ``annotation`` is a number, or a tuple or dict of
    numbers; None otherwise."""
    args = typing.get_args(annotation)
    if typing.get_origin(annotation) in (tuple, dict):
        annotation = args[0] if args[-1] is Ellipsis else args[-1]
    return annotation if annotation in (int, float) else None


def _just_outside():
    """(id, flag, its value, the error line) for a value just outside each
    bounded end of every declared range a run configuration reaches."""
    cases = []
    for cls, under in KNOB_CLASSES.items():
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            if cls is SynthParams and f.name not in _RUN_FIELDS:
                continue  # synth builds its other parameters itself
            bounds = f.metadata.get("range", "(-inf, inf)")
            lo, hi = map(float, bounds[1:-1].split(","))
            kind = _number_type(hints[f.name])
            ends = []  # an open end is itself outside
            if lo > -math.inf:
                ends.append(("below", lo if bounds[0] == "(" else int(lo) - 1 if kind is int
                             else math.nextafter(lo, -math.inf)))
            if hi < math.inf:
                ends.append(("above", hi if bounds[-1] == ")" else int(hi) + 1 if kind is int
                             else math.nextafter(hi, math.inf)))
            default = getattr(cls(), f.name)
            for end, bad in ends:
                if isinstance(default, dict):
                    key = next(iter(default))
                    value, at = {key: bad}, f"[{key!r}]"
                elif isinstance(default, tuple):
                    value, at = [bad, *default[1:]], "[0]"
                else:
                    value, at = bad, ""
                message = f"error: {cls.__name__}.{f.name}{at}: {bad!r} is outside {bounds}"
                if cls is GenCaps:
                    flag, payload = "--caps", {f.name: value}
                elif f.name in _RUN_FIELDS:
                    flag, payload = "--config", {f.name: value}
                else:
                    flag, payload = "--config", {under: {f.name: value}}
                cases.append((f"{cls.__name__}.{f.name}-{end}", flag, payload, message))
    return cases


JUST_OUTSIDE = _just_outside()


@pytest.mark.parametrize("flag, payload, message", [case[1:] for case in JUST_OUTSIDE],
                         ids=[case[0] for case in JUST_OUTSIDE])
def test_a_knob_just_outside_its_declared_range_exits_2_naming_it(tmp_path, capsys, flag, payload,
                                                                  message):
    out = tmp_path / "bench.ndjson"
    argv = ["genbench", "--graphs", str(pipeline()["graphs"]), "--out", str(out)]
    if flag == "--config":
        (tmp_path / "run.json").write_text(json.dumps(payload))
        argv += ["--config", str(tmp_path / "run.json")]
    else:
        argv += [flag, json.dumps(payload)]
    assert cli.dispatch(argv) == 2
    assert capsys.readouterr().err.splitlines() == [message]  # one line, no traceback
    assert sorted(path.name for path in tmp_path.iterdir()) in ([], ["run.json"])


def test_the_range_cases_cover_every_bounded_field_and_the_caps_example():
    bounded = {f"{cls.__name__}.{f.name}" for cls in KNOB_CLASSES for f in fields(cls)
               if f.metadata.get("range", "(-inf, inf)") != "(-inf, inf)"
               and (cls is not SynthParams or f.name in _RUN_FIELDS)}
    assert {case[0].rsplit("-", 1)[0] for case in JUST_OUTSIDE} == bounded
    caps_example = ("GenCaps.a2-below", "--caps", {"a2": -1}, "error: GenCaps.a2: -1 is outside [0, inf)")
    assert caps_example in JUST_OUTSIDE


def test_every_numeric_knob_declares_its_range():
    """A number of a run configuration, or of the synthetic corpus, with no
    declared range runs at any value; seeds declare theirs unbounded. A
    RunConfig field may instead lend its range from a same-named field of
    PolicyConfig or SynthParams, which the run checks it through."""
    undeclared = []
    for cls in KNOB_CLASSES:
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            if _number_type(hints[f.name]) is None or "range" in f.metadata:
                continue
            lenders = [g for owner in (PolicyConfig, SynthParams) for g in fields(owner)
                       if cls is RunConfig and g.name == f.name and "range" in g.metadata]
            if not lenders:
                undeclared.append(f"{cls.__name__}.{f.name}")
    assert undeclared == []


def test_missing_input_exits_3(tmp_path, capsys):
    missing = tmp_path / "nope.ndjson"
    out = tmp_path / "out.ndjson"
    assert cli.dispatch(["compile", "--in", str(missing), "--out", str(out)]) == 3
    assert "error:" in capsys.readouterr().err


def test_unconfigured_path_exits_2(capsys):
    assert cli.dispatch(["synth", "--n", "4"]) == 2
    assert "no 'raw' path configured" in capsys.readouterr().err


def test_bad_flag_value_exits_2(capsys):
    paths = pipeline()
    code = cli.dispatch(
        ["split", "--bench", str(paths["bench"]), "--out", "x", "--protocol", "sideways"]
    )
    assert code == 2


def test_predictions_flag_conflicts_with_other_policies(capsys):
    paths = pipeline()
    code = cli.dispatch(
        [
            "eval",
            "--bench", str(paths["bench"]),
            "--split", str(paths["split"]),
            "--memory", str(paths["memory"]),
            "--policy", "argmax_hybrid",
            "--predictions", "preds.json",
        ]
    )
    assert code == 2
    assert "external_predictions" in capsys.readouterr().err
    code = cli.dispatch(
        [
            "eval",
            "--bench", str(paths["bench"]),
            "--split", str(paths["split"]),
            "--policy", "external_predictions",
        ]
    )
    assert code == 2


def test_external_predictions_via_cli(tmp_path, capsys):
    paths = pipeline()
    from matproc.splits import read_assignment
    from matproc.taskgen.store import load_items

    items = load_items(paths["bench"])
    assignment = read_assignment(paths["split"])
    test_items = assignment.items_in(items, "test")
    preds_path = tmp_path / "preds.json"
    preds_path.write_text(json.dumps({it.item_id: it.gold_index for it in test_items}))
    code = cli.dispatch(
        [
            "eval",
            "--bench", str(paths["bench"]),
            "--split", str(paths["split"]),
            "--partition", "test",
            "--policy", "external_predictions",
            "--predictions", str(preds_path),
        ]
    )
    assert code == 0
    assert "100.00%" in capsys.readouterr().out


def test_external_predictions_naming_unknown_items_exit_3(tmp_path, capsys):
    paths = pipeline()
    _, split_rows = read_ndjson(paths["split"])
    # ids of any partition of the bench are valid, whatever --partition says
    known = {row["item_id"]: 0 for row in split_rows if row["partition"] != "test"}
    strangers = [f"nowhere:A1_route_retrieval:{i}" for i in range(5)]
    preds_path = tmp_path / "preds.json"

    def run(predictions):
        preds_path.write_text(json.dumps(predictions))
        return cli.dispatch(
            [
                "eval",
                "--bench", str(paths["bench"]),
                "--split", str(paths["split"]),
                "--partition", "test",
                "--policy", "external_predictions",
                "--predictions", str(preds_path),
            ]
        )

    assert known and run(known) == 0
    capsys.readouterr()
    assert run({**known, **dict.fromkeys(strangers, 0)}) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(preds_path) in err
    assert all(s in err for s in strangers[:3]) and strangers[3] not in err


@pytest.mark.parametrize("index", ["a", "3", True, 3.7], ids=["letter", "digit-string", "bool", "float"])
def test_external_predictions_need_exact_integer_indexes(tmp_path, capsys, index):
    paths = pipeline()
    _, split_rows = read_ndjson(paths["split"])
    item_id = next(row["item_id"] for row in split_rows if row["partition"] == "test")
    preds_path = tmp_path / "preds.json"
    preds_path.write_text(json.dumps({item_id: index}))
    code = cli.dispatch(
        [
            "eval",
            "--bench", str(paths["bench"]),
            "--split", str(paths["split"]),
            "--partition", "test",
            "--policy", "external_predictions",
            "--predictions", str(preds_path),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and item_id in err


def test_external_predictions_that_are_not_json_exit_3(tmp_path, capsys):
    paths = pipeline()
    preds_path = tmp_path / "preds.json"
    preds_path.write_text("{not json")
    code = cli.dispatch(
        [
            "eval",
            "--bench", str(paths["bench"]),
            "--split", str(paths["split"]),
            "--policy", "external_predictions",
            "--predictions", str(preds_path),
        ]
    )
    assert code == 3
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("flag", ["--embed-url", "--embed-token"])
def test_build_memory_has_no_embedding_endpoint_flags(tmp_path, capsys, flag):
    paths = pipeline()
    out = tmp_path / "memory.ndjson"
    argv = ["build-memory", "--graphs", str(paths["graphs"]), "--bench", str(paths["bench"]),
            "--split", str(paths["split"]), "--out", str(out), flag, "http://127.0.0.1:9/v1"]
    assert cli.dispatch(argv) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err
    assert not out.exists()


def test_build_memory_has_no_skip_embeddings_flag(tmp_path, capsys):
    paths = pipeline()
    out = tmp_path / "memory.ndjson"
    argv = ["build-memory", "--graphs", str(paths["graphs"]), "--bench", str(paths["bench"]),
            "--split", str(paths["split"]), "--out", str(out), "--skip-embeddings"]
    assert cli.dispatch(argv) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --skip-embeddings" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("retired", [{"struct_seed": 13}, {"struct_seed": 5}, {"embeddings": True},
                                     {"embeddings": False}, {"endpoints": {"embed_url": ""}}],
                         ids=["struct_seed-13", "struct_seed-5", "embeddings-true", "embeddings-false",
                              "embed_url"])
def test_a_config_naming_a_retired_key_exits_2(tmp_path, capsys, retired):
    paths = pipeline()
    out, cfg_path = tmp_path / "memory.ndjson", tmp_path / "run.json"
    cfg_path.write_text(json.dumps(retired))
    argv = ["build-memory", "--graphs", str(paths["graphs"]), "--bench", str(paths["bench"]),
            "--split", str(paths["split"]), "--out", str(out), "--config", str(cfg_path)]
    assert cli.dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown" in err and "Traceback" not in err
    assert ("embed_url" if "endpoints" in retired else next(iter(retired))) in err
    assert not out.exists()


@pytest.mark.parametrize("body", [{"text": 5}, [1]], ids=["int-text", "list-body"])
def test_eval_flags_every_item_on_a_malformed_chat_reply(tmp_path, body):
    paths = pipeline()
    log = tmp_path / "log.ndjson"
    with LoopbackEndpoint(body) as server:
        code = cli.dispatch(
            [
                "eval",
                "--bench", str(paths["bench"]),
                "--split", str(paths["split"]),
                "--partition", "test",
                "--policy", "zero_shot",
                "--chat-url", server.url,
                "--log", str(log),
            ]
        )
    assert code == 0
    _, rows = read_ndjson(log)
    assert rows and all(row["flags"] == ["answer_timeout"] for row in rows)
    assert all(row["answer_index"] is None for row in rows)
    assert len(server.received) == 3 * len(rows)  # each item: one try and two retries


def test_importing_the_cli_loads_no_http_stack():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    )}
    probe = (
        "import sys, matproc.cli; "
        "print(sorted({'requests', 'urllib3', 'urllib.request', 'http.client'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_audit_rejects_malformed_pairs(capsys):
    paths = pipeline()
    assert cli.dispatch(["audit", "--bench", str(paths["bench"]), "--pairs", "dual"]) == 2
    assert cli.dispatch(["audit", "--bench", str(paths["bench"]), "--pairs", ""]) == 2


@pytest.mark.parametrize("pairs", ["random:lotto", "lotto:year", "dual:dual,type:bogus"])
def test_audit_refuses_an_unknown_protocol_and_writes_nothing(tmp_path, capsys, pairs):
    out = tmp_path / "audit.ndjson"
    argv = ["audit", "--bench", str(pipeline()["bench"]), "--pairs", pairs, "--out", str(out)]
    assert cli.dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "is not one of random, year, type, dual" in err
    assert not out.exists()


def test_split_refuses_an_unknown_protocol_and_writes_nothing(tmp_path, capsys):
    cfg_path, out = tmp_path / "run.json", tmp_path / "split.ndjson"
    cfg_path.write_text(json.dumps({"protocol": "lotto"}))
    argv = ["split", "--config", str(cfg_path), "--bench", str(pipeline()["bench"]),
            "--out", str(out)]
    assert cli.dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "protocol 'lotto' is not one of random, year, type, dual" in err
    assert not out.exists()
    # the flag takes its choices from the same list
    assert cli.dispatch(["split", "--protocol", "lotto", "--bench", str(pipeline()["bench"]),
                         "--out", str(out)]) == 2
    assert "invalid choice: 'lotto'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "ablate"])
def test_an_unknown_partition_exits_2_and_writes_nothing(tmp_path, capsys, command):
    paths = pipeline()
    cfg_path, report = tmp_path / "run.json", tmp_path / "report.ndjson"
    cfg_path.write_text(json.dumps({"partition": "bogus"}))
    argv = [command, "--config", str(cfg_path), "--bench", str(paths["bench"]),
            "--split", str(paths["split"]), "--memory", str(paths["memory"]),
            "--report", str(report)]
    assert cli.dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "partition 'bogus' is not one of train, dev, test, excluded" in err
    assert not report.exists()


def test_few_shot_with_a_train_pool_below_few_shot_count_exits_2(tmp_path, capsys):
    paths = pipeline()
    _, assigned = read_ndjson(paths["split"])
    n_train = sum(row["partition"] == "train" for row in assigned)
    cfg_path, log = tmp_path / "run.json", tmp_path / "log.ndjson"
    cfg_path.write_text(json.dumps({"runner": {"few_shot_count": n_train + 1}}))
    argv = [*eval_argv(paths, "few_shot", log), "--config", str(cfg_path)]
    assert cli.dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert f"at least few_shot_count = {n_train + 1} train items; got {n_train}" in err
    assert not log.exists()


@pytest.mark.parametrize("policy, knob", [("rag", "rag_k"), ("graphrag", "graph_k")])
def test_a_baseline_asking_for_more_precedents_than_the_memory_holds_exits_2(
        tmp_path, monkeypatch, capsys, policy, knob):
    monkeypatch.delenv("MATPROC_CHAT_URL", raising=False)  # the baselines use the mock client
    paths = pipeline()
    n = len(load_memory(paths["memory"]).processes)
    cfg_path, log = tmp_path / "run.json", tmp_path / "log.ndjson"
    argv = [*eval_argv(paths, policy, log), "--config", str(cfg_path)]
    cfg_path.write_text(json.dumps({"runner": {knob: n + 1}}))
    assert cli.dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert f"{policy} needs {knob} = {n + 1} precedents; the memory holds {n} processes" in err
    assert not log.exists()
    cfg_path.write_text(json.dumps({"runner": {knob: n}}))  # k equal to the process count runs
    assert cli.dispatch(argv) == 0
    rows = read_ndjson(log)[1]
    assert rows and all(len(row["precedents"]) == n and not row["flags"] for row in rows)
    capsys.readouterr()


@pytest.mark.parametrize("command", ["eval", "ablate"])
def test_a_memory_with_no_processes_exits_3(tmp_path, monkeypatch, capsys, command):
    monkeypatch.delenv("MATPROC_CHAT_URL", raising=False)  # the module rows use the mock client
    paths = dict(pipeline())
    paths["memory"] = tmp_path / "memory.ndjson"
    paths["memory"].write_text(pipeline()["memory"].read_text().splitlines(keepends=True)[0])
    out = tmp_path / "out.ndjson"
    argv = (eval_argv(paths, "argmax_hybrid", out) if command == "eval"
            else ablate_argv(paths, out))
    assert cli.dispatch(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "memory with no processes" in err
    assert not out.exists()


@functools.lru_cache(maxsize=None)
def dual_pipeline() -> dict[str, Path]:
    """The pipeline's bench split under ``dual``, which leaves some items
    ``excluded``, and the memory of that split."""
    paths = dict(pipeline())
    root = Path(tempfile.mkdtemp(prefix="matproc-cli-dual-"))
    paths["split"], paths["memory"] = root / "split.ndjson", root / "memory.ndjson"
    for argv in (
        ["split", "--bench", str(paths["bench"]), "--out", str(paths["split"]), "--protocol", "dual"],
        ["build-memory", "--graphs", str(paths["graphs"]), "--bench", str(paths["bench"]),
         "--split", str(paths["split"]), "--out", str(paths["memory"])],
    ):
        assert cli.dispatch(argv) == 0, argv
    return paths


@pytest.mark.parametrize("command", ["eval", "ablate"])
def test_the_excluded_partition_is_a_partition_flag_choice(tmp_path, capsys, command):
    paths = dual_pipeline()
    _, assigned = read_ndjson(paths["split"])
    excluded = {row["item_id"] for row in assigned if row["partition"] == "excluded"}
    assert excluded
    out = tmp_path / "out.ndjson"
    if command == "eval":
        argv = [*eval_argv(paths, "argmax_hybrid", out), "--partition", "excluded"]
    else:
        argv = [*ablate_argv(paths, out, axes="top_k"), "--partition", "excluded"]
    assert cli.dispatch(argv) == 0
    capsys.readouterr()
    _, rows = read_ndjson(out)
    if command == "eval":
        assert {row["item_id"] for row in rows} == excluded
    else:
        assert [row["report"]["overall"]["total"] for row in rows] == [len(excluded)] * len(rows)


def _split_and_memory(root: Path, *protocol: str) -> tuple[Path, Path]:
    """The pipeline's bench split under ``protocol`` (its flags), and the
    memory built from that split."""
    paths = pipeline()
    split, memory = root / f"split-{'-'.join(protocol)}.ndjson", root / f"memory-{'-'.join(protocol)}.ndjson"
    for argv in (
        ["split", "--bench", str(paths["bench"]), "--out", str(split), *protocol],
        ["build-memory", "--graphs", str(paths["graphs"]), "--bench", str(paths["bench"]),
         "--split", str(split), "--out", str(memory)],
    ):
        assert cli.dispatch(argv) == 0, argv
    return split, memory


@pytest.mark.parametrize("memory_protocol, split_protocol", [
    (("--protocol", "random", "--seed", "5"), ("--protocol", "year")),
    (("--protocol", "type", "--held-out-class", "battery"),
     ("--protocol", "type", "--held-out-class", "magnetic")),
], ids=["random-memory-on-year", "battery-memory-on-magnetic"])
def test_a_memory_of_graphs_the_split_holds_out_exits_3(tmp_path, capsys, memory_protocol,
                                                        split_protocol):
    from matproc.splits import read_assignment
    from matproc.taskgen.store import load_items

    paths = dict(pipeline())
    own_split, paths["memory"] = _split_and_memory(tmp_path, *memory_protocol)
    paths["split"], _ = _split_and_memory(tmp_path, *split_protocol)
    capsys.readouterr()
    # strangers: memory graphs with items in the split but none in its train partition
    mapping = read_assignment(paths["split"]).mapping
    train = {it.graph_id for it in load_items(paths["bench"]) if mapping[it.item_id] == "train"}
    memory = load_memory(paths["memory"])
    strangers = sorted({p.graph_id for p in memory.processes} - train)
    assert strangers
    out = tmp_path / "out.ndjson"
    for argv in (eval_argv(paths, "argmax_hybrid", out), ablate_argv(paths, out, axes="top_k")):
        assert cli.dispatch(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert (f"{paths['memory']} holds {len(strangers)} of {len(memory.processes)} processes"
                in err)
        assert str(paths["split"]) in err and str(strangers[:3]) in err
        assert not out.exists()
    # the same memory on the split it was built from is answered
    paths["split"] = own_split
    assert cli.dispatch(eval_argv(paths, "argmax_hybrid", out)) == 0
    capsys.readouterr()


def test_config_file_merges_under_explicit_flags(tmp_path, capsys):
    paths = pipeline()
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(
        json.dumps(
            {
                "policy": "gold_oracle",
                "partition": "dev",
                "paths": {"bench": str(paths["bench"]), "split": str(paths["split"])},
            }
        )
    )
    assert cli.dispatch(["eval", "--config", str(cfg_path)]) == 0
    assert "policy: gold_oracle" in capsys.readouterr().out
    # An explicit flag wins over the file value.
    assert cli.dispatch(["eval", "--config", str(cfg_path), "--policy", "uniform_random"]) == 0
    assert "policy: uniform_random" in capsys.readouterr().out


def test_config_file_with_unknown_key_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"galaxy": 1}')
    assert cli.dispatch(["eval", "--config", str(cfg_path)]) == 2
    assert "unknown configuration key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [
        {"ratios": 5},
        {"runner": 3},
        {"paths": 3},
        {"runner": {"budgets": 3}},
        {"runner": {"budgets": {"answer": "10"}}},
        {"top_k": "8"},
        {"lam": "a"},
        {"lam": True},
        {"weights": {"alpha": 1, "delta": 0}},
        {"weights": 3},
        {"scoring": {"top_m": "x"}},
        {"scoring": {"two_way": [1.0]}},
        {"runner": {"mystery": 1}},
        {"runner": {"lam": 0.3}},
        {"scoring": {"mystery": 1}},
        {"endpoints": {"mystery": 1}},
    ],
    ids=lambda c: json.dumps(c, sort_keys=True),
)
def test_malformed_config_file_exits_2_without_a_traceback(tmp_path, capsys, content):
    paths = pipeline()
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(content))
    report = tmp_path / "report.ndjson"
    code = cli.dispatch(
        ["eval", "--config", str(cfg_path), "--bench", str(paths["bench"]),
         "--split", str(paths["split"]), "--memory", str(paths["memory"]),
         "--report", str(report)]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert not report.exists()


@pytest.mark.parametrize("caps", ['{"z":1}', '{"a1":"x"}', '{"a1":"2"}', '{"a1":true}', "[1]"])
def test_genbench_rejects_malformed_caps(tmp_path, capsys, caps):
    out = tmp_path / "bench.ndjson"
    code = cli.dispatch(
        ["genbench", "--graphs", str(pipeline()["graphs"]), "--out", str(out), "--caps", caps]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("k", ["0", "1", "9"])
def test_genbench_refuses_an_option_count_no_prompt_can_letter(tmp_path, capsys, k):
    out = tmp_path / "bench.ndjson"
    code = cli.dispatch(["genbench", "--graphs", str(pipeline()["graphs"]), "--out", str(out), "--k", k])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: RunConfig.k_options: {k} is outside [2, 8]\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "field_map",
    [{"label_keys": "name"}, {"label_keys": 5}, {"label_keys": ["name", 5]}, {"galaxy": []}],
)
def test_compile_rejects_malformed_field_maps(tmp_path, capsys, field_map):
    fm_path = tmp_path / "fm.json"
    fm_path.write_text(json.dumps(field_map))
    out = tmp_path / "graphs.ndjson"
    code = cli.dispatch(
        ["compile", "--in", str(pipeline()["raw"]), "--out", str(out),
         "--field-map", str(fm_path)]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "FieldMap" in err and "Traceback" not in err
    assert not out.exists()


def test_compile_reads_a_field_map_list(tmp_path):
    fm_path = tmp_path / "fm.json"
    fm_path.write_text(json.dumps({"label_keys": ["prov:label"]}))
    out = tmp_path / "graphs.ndjson"
    assert cli.dispatch(
        ["compile", "--in", str(pipeline()["raw"]), "--out", str(out),
         "--field-map", str(fm_path)]
    ) == 0
    assert read_ndjson(out)[1] == read_ndjson(pipeline()["graphs"])[1]


def test_split_of_an_empty_question_set_exits_3_and_writes_nothing(tmp_path, capsys):
    bench = tmp_path / "bench.ndjson"
    zero = json.dumps({k: 0 for k in ("a1", "a2", "a3", "b1", "b2", "c1", "d")})
    assert cli.dispatch(
        ["genbench", "--graphs", str(pipeline()["graphs"]), "--out", str(bench), "--caps", zero]
    ) == 0
    out = tmp_path / "split.ndjson"
    assert cli.dispatch(["split", "--bench", str(bench), "--out", str(out)]) == 3
    assert "no items to split" in capsys.readouterr().err
    assert not out.exists()


# measured before the configuration moved onto the typed loader
PINNED_CONFIG_HASHES = [
    ({}, "c39be25d878e"),
    ({"policy": "provmind_llm"}, "cd296389e6fe"),
    ({"lam": 0.9}, "bbe674a5e304"),
    ({"runner": {"planning": False}}, "e97bef433851"),
    ({"runner": {"budgets": {"answer": 10}}}, "e5fcbcb16116"),
    ({"weights": {"alpha": 0.5, "beta": 0.25, "gamma": 0.25}}, "ff577694c65e"),
    ({"scoring": {"top_m": 4}}, "b9093d580b5f"),
    ({"lam": 1, "scoring": {"ordering_bonus": 1}}, "4e4139e6b706"),
]


@pytest.mark.parametrize("overrides, digest", PINNED_CONFIG_HASHES,
                         ids=[json.dumps(o, sort_keys=True) for o, _ in PINNED_CONFIG_HASHES])
def test_config_hash_is_pinned(overrides, digest):
    assert RunConfig().merged(overrides).config_hash() == digest


def test_partial_budgets_keep_the_other_defaults():
    cfg = RunConfig().merged({"runner": {"budgets": {"answer": 10}}})
    assert cfg.policy_config().budgets == {**DEFAULT_BUDGETS, "answer": 10}


def test_int_for_a_float_field_is_kept_as_given():
    config = RunConfig().merged({"lam": 1, "scoring": {"ordering_bonus": 1}}).policy_config()
    assert config.lam == 1 and type(config.lam) is int
    assert type(config.scoring.ordering_bonus) is int
    assert config.to_dict()["scoring"]["ordering_bonus"] == 1


def test_synth_seed_changes_output(tmp_path):
    a = tmp_path / "a.ndjson"
    b = tmp_path / "b.ndjson"
    assert cli.dispatch(["synth", "--out", str(a), "--n", "6", "--seed", "1"]) == 0
    assert cli.dispatch(["synth", "--out", str(b), "--n", "6", "--seed", "2"]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_compile_logs_excluded_records(tmp_path, capsys):
    # A record whose usage/generation edges close a cycle is excluded, not repaired.
    raw = tmp_path / "raw.ndjson"
    good = {
        "@id": "ok1",
        "doi": "10.1/ok",
        "year": 2018,
        "material_class": "other",
        "@graph": [
            {"@id": "e1", "@type": "prov:Entity", "prov:label": "lithium carbonate"},
            {"@id": "a1", "@type": "prov:Activity", "prov:label": "milling"},
            {"@id": "e2", "@type": "prov:Entity", "prov:label": "powder"},
            {"@type": "prov:Usage", "prov:entity": {"@id": "e1"}, "prov:activity": {"@id": "a1"}},
            {"@type": "prov:Generation", "prov:entity": {"@id": "e2"}, "prov:activity": {"@id": "a1"}},
        ],
    }
    cyclic = {
        "@id": "loop1",
        "doi": "10.1/loop",
        "year": 2018,
        "material_class": "other",
        "@graph": [
            {"@id": "e1", "@type": "prov:Entity", "prov:label": "x"},
            {"@id": "e2", "@type": "prov:Entity", "prov:label": "y"},
            {"@id": "a1", "@type": "prov:Activity", "prov:label": "mix"},
            {"@id": "a2", "@type": "prov:Activity", "prov:label": "mill"},
            {"@type": "prov:Usage", "prov:entity": {"@id": "e1"}, "prov:activity": {"@id": "a1"}},
            {"@type": "prov:Generation", "prov:entity": {"@id": "e2"}, "prov:activity": {"@id": "a1"}},
            {"@type": "prov:Usage", "prov:entity": {"@id": "e2"}, "prov:activity": {"@id": "a2"}},
            {"@type": "prov:Generation", "prov:entity": {"@id": "e1"}, "prov:activity": {"@id": "a2"}},
        ],
    }
    lines = ['{"format": "matproc-raw-prov"}'] + [json.dumps(d) for d in (good, cyclic)]
    raw.write_text("\n".join(lines) + "\n")
    graphs = tmp_path / "graphs.ndjson"
    warnings = tmp_path / "warn.ndjson"
    code = cli.dispatch(
        ["compile", "--in", str(raw), "--out", str(graphs), "--warnings", str(warnings)]
    )
    assert code == 0
    assert "1 records excluded" in capsys.readouterr().out
    _, graph_rows = read_ndjson(graphs)
    assert [g["record_id"] for g in graph_rows] == ["ok1"]
    _, warn_rows = read_ndjson(warnings)
    assert any(
        w["record_id"] == "loop1" and "CyclicPrecedence" in w["warning"] for w in warn_rows
    )


def test_compile_names_an_excluded_record_by_the_field_maps_id_key(tmp_path, capsys):
    raw, graphs, warnings = (tmp_path / f"{name}.ndjson" for name in ("raw", "graphs", "warn"))
    lines = ['{"format": "matproc-raw-prov"}', json.dumps({"uid": "rec-A", "@graph": []}),
             json.dumps({"@id": "rec-B", "@graph": []})]
    raw.write_text("\n".join(lines) + "\n")
    field_map = tmp_path / "field_map.json"
    field_map.write_text(json.dumps({"record_id_keys": ["uid"]}))
    argv = ["compile", "--in", str(raw), "--out", str(graphs), "--warnings", str(warnings),
            "--field-map", str(field_map)]
    assert cli.dispatch(argv) == 0
    assert "2 records excluded" in capsys.readouterr().out
    _, warn_rows = read_ndjson(warnings)
    assert [w["record_id"] for w in warn_rows] == ["rec-A", "?"]
    assert all(w["warning"].startswith("excluded: EmptyRecord") for w in warn_rows)


@pytest.mark.parametrize(
    "fmt, rows",
    [
        (cli.ABLATION_FORMAT, [{"block": "module", "label": "full", "report": {}}]),
        (cli.ABLATION_FORMAT,
         [{"block": "module", "label": "full", "report": {"overall": {"correct": 1, "total": 2}}}]),
        (cli.EVAL_REPORT_FORMAT,
         [{"per_task": {}, "overall": {"accuracy": "high", "correct": 1, "total": 2}}]),
        (cli.EVAL_REPORT_FORMAT,
         [{"per_task": {"A1": {"accuracy": 0.5}},
           "overall": {"accuracy": 0.5, "correct": 1, "total": 2}}]),
        (cli.AUDIT_FORMAT, [{"train_of": "random", "fraction": 0.5}]),
        (cli.AUDIT_FORMAT, [{"train_of": "random", "test_of": "year", "fraction": "half"}]),
        (cli.SPLIT_FORMAT, [{"item_id": "g1:A1_route_retrieval:0"}]),
        (cli.SPLIT_FORMAT, [{"item_id": "g1:A1_route_retrieval:0", "partition": ["test"]}]),
        (cli.SPLIT_FORMAT, [{"item_id": "g1:A1_route_retrieval:0", "partition": "tset"}]),
    ],
    ids=["ablation-empty-report", "ablation-no-accuracy", "eval-text-accuracy",
         "eval-task-no-tally", "audit-no-test-of", "audit-text-fraction", "split-no-partition",
         "split-list-partition", "split-unknown-partition"],
)
def test_report_rejects_rows_without_renderable_fields(tmp_path, capsys, fmt, rows):
    path = tmp_path / "artifact.ndjson"
    write_ndjson(path, {"format": fmt}, rows)
    assert cli.dispatch(["report", "--in", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and str(path) in captured.err
    assert "Traceback" not in captured.err


def test_compile_excludes_rows_that_are_not_objects(tmp_path, capsys):
    raw = tmp_path / "raw.ndjson"
    good = to_prov_document(generate_synthetic_corpus(SynthParams(n_records=1), seed=3)[0])
    lines = ['{"format": "matproc-raw-prov"}', "[1, 2]", json.dumps(good), "null", '"text"']
    raw.write_text("\n".join(lines) + "\n")
    graphs = tmp_path / "graphs.ndjson"
    warnings = tmp_path / "warn.ndjson"
    code = cli.dispatch(
        ["compile", "--in", str(raw), "--out", str(graphs), "--warnings", str(warnings)]
    )
    assert code == 0
    assert "compiled 1 graphs (3 records excluded)" in capsys.readouterr().out
    _, warn_rows = read_ndjson(warnings)
    excluded = [w for w in warn_rows if w["warning"].startswith("excluded:")]
    assert [w["record_id"] for w in excluded] == ["?", "?", "?"]
    assert all("MalformedDocument" in w["warning"] for w in excluded)


def test_compile_excludes_a_record_whose_id_an_earlier_record_took(tmp_path, capsys):
    raw, graphs, warnings = (tmp_path / f"{name}.ndjson" for name in ("raw", "graphs", "warn"))
    assert cli.dispatch(["synth", "--out", str(raw), "--n", "20", "--seed", "11"]) == 0
    header, rows = read_ndjson(raw)
    taken = rows[4]["@id"]
    rows[5]["@id"] = taken
    write_ndjson(raw, header, rows)
    capsys.readouterr()
    assert cli.dispatch(["compile", "--in", str(raw), "--out", str(graphs),
                         "--warnings", str(warnings)]) == 0
    assert "compiled 19 graphs (1 records excluded)" in capsys.readouterr().out
    _, graph_rows = read_ndjson(graphs)
    assert [g["record_id"] for g in graph_rows] == [r["@id"] for n, r in enumerate(rows) if n != 5]
    _, warn_rows = read_ndjson(warnings)
    assert [w for w in warn_rows if w["warning"].startswith("excluded:")] == [
        {"record_id": taken,
         "warning": f"excluded: MalformedDocument: record id {taken!r} is taken by an earlier record"}
    ]


def _matproc(*argv, stdout=subprocess.PIPE, **env) -> subprocess.CompletedProcess:
    """``python -m matproc *argv`` in a child process, so a reader that crashed
    the interpreter would fail the test instead of ending the run. ``env``
    adds to the child's environment."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    ), **env}
    return subprocess.run([sys.executable, "-m", "matproc", *map(str, argv)],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60)


def test_python_dash_m_matproc_runs_the_cli():
    done = _matproc("--help")
    assert done.returncode == 0, done.stderr
    assert "usage: matproc" in done.stdout


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_ends_a_command_quietly_once_its_artifact_is_written(tmp_path, unbuffered):
    out = tmp_path / "audit.ndjson"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the command prints
    try:
        done = _matproc("audit", "--bench", pipeline()["bench"], "--pairs", "dual:dual,dual:type,dual:year",
                        "--out", out, stdout=write_end, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, "")
    assert out.read_bytes() == pipeline()["audit"].read_bytes()


def test_a_broken_pipe_that_is_not_stdout_is_still_a_data_error(monkeypatch, capsys):
    def broken(cfg):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setitem(cli.HANDLERS, "report", broken)
    assert cli.dispatch(["report", "--in", str(pipeline()["report"])]) == 3
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


# one pipeline, from a synthetic corpus to an ablation, in one directory {d}
HASH_SEED_STAGES = [
    "synth --out {d}/raw.ndjson --n 60 --seed 11",
    "compile --in {d}/raw.ndjson --out {d}/graphs.ndjson",
    "genbench --graphs {d}/graphs.ndjson --out {d}/bench.ndjson",
    "split --bench {d}/bench.ndjson --out {d}/split.ndjson --protocol year",
    "build-memory --graphs {d}/graphs.ndjson --bench {d}/bench.ndjson --split {d}/split.ndjson"
    " --out {d}/memory.ndjson",
    "eval --bench {d}/bench.ndjson --split {d}/split.ndjson --memory {d}/memory.ndjson"
    " --policy argmax_hybrid --log {d}/log.ndjson",
    "ablate --bench {d}/bench.ndjson --split {d}/split.ndjson --memory {d}/memory.ndjson"
    " --axes module --report {d}/ablation.ndjson",
]


def test_no_artifact_depends_on_the_hash_seed(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    )}
    env.pop("MATPROC_CHAT_URL", None)  # the module rows answer with the mock client
    run_all = ("import json, sys\nfrom matproc import cli\n"
               "for argv in json.loads(sys.argv[1]):\n    assert cli.dispatch(argv) == 0, argv\n")
    for seed in ("0", "12345"):
        (tmp_path / seed).mkdir()
        stages = [stage.format(d=tmp_path / seed).split(" ") for stage in HASH_SEED_STAGES]
        done = subprocess.run([sys.executable, "-c", run_all, json.dumps(stages)], capture_output=True,
                              text=True, env={**env, "PYTHONHASHSEED": seed}, timeout=300)
        assert done.returncode == 0, done.stderr
    names = sorted(path.name for path in (tmp_path / "0").iterdir())
    assert names == ["ablation.ndjson", "bench.ndjson", "graphs.ndjson", "log.ndjson",
                     "memory.ndjson", "raw.ndjson", "split.ndjson"]
    for name in names:
        assert (tmp_path / "0" / name).read_bytes() == (tmp_path / "12345" / name).read_bytes(), name


# --- artifact readers ---------------------------------------------------------------------


def _edited(tmp_path, name: str, edit) -> Path:
    """A copy of the pipeline's ``name`` artifact with ``edit(header, rows)`` applied."""
    header, rows = read_ndjson(pipeline()[name])
    edit(header, rows)
    path = tmp_path / f"{name}.ndjson"
    write_ndjson(path, header, rows)
    return path


def _first(kind):
    return lambda rows: next(r for r in rows if r.get("kind") == kind)


def _drop_count(header, rows):
    del _first("transition")(rows)["count"]


def _drop_kind(header, rows):
    del rows[-1]["kind"]


def _text_vector_as_string(header, rows):
    _first("process")(rows)["embeddings"]["text"] = "0.1 0.2"


def _text_prefix_len(header, rows):
    header["max_prefix_len"] = "4"


def _prefix_len(n):
    return lambda header, rows: header.__setitem__("max_prefix_len", n)


def _row_kind(kind):
    def edit(header, rows):
        _first("step")(rows)["kind"] = kind

    return edit


def _non_object_row(header, rows):
    rows.append([1])


def _add_to_a_count(header, rows):
    _first("transition")(rows)["count"] += 39


def _a_prefix_row(header, rows):
    """A row of the prefix index, which a memory derives from its routes."""
    route = _first("process")(rows)["route"]
    rows.append({"kind": "prefix", "prefix": route[:1], "next": {route[1]: 1}})


def _repeat_a_transition_row(header, rows):
    rows.append(dict(_first("transition")(rows)))


ROUTES_DISAGREE = "the transition rows are not the ones the process routes give; rebuild with build-memory"


def _steps(rows):
    return [r for r in rows if r.get("kind") == "step"]


def _each_step(key, value, where=lambda row: True):
    """Set ``key`` to ``value`` in every step row ``where`` holds for."""
    def edit(header, rows):
        for row in _steps(rows):
            if where(row):
                row[key] = value

    return edit


def _drop_a_process_steps(header, rows):
    graph_id = _first("step")(rows)["graph_id"]
    rows[:] = [r for r in rows if r.get("kind") != "step" or r["graph_id"] != graph_id]


def _repeat_a_step_row(header, rows):
    rows.extend(dict(_first("step")(rows)) for _ in range(10))


def _a_step_of_no_process(header, rows):
    rows.append({**_first("step")(rows), "graph_id": "no such process"})


def _a_position_past_the_route(header, rows):
    process = _first("process")(rows)
    own = [r for r in _steps(rows) if r["graph_id"] == process["graph_id"]]
    max(own, key=lambda r: r["position"])["position"] = len(process["route"])


def _repeat_a_process(header, rows):
    """The first process and its step rows stored twice, with the transition
    rows its routes then give."""
    memory = load_memory(pipeline()["memory"])
    first = memory.processes[0]
    rows[:] = [r for r in rows if r["kind"] != "transition"]
    rows.extend([dict(r) for r in rows if r["graph_id"] == first.graph_id])
    twice = replace(memory, processes=[*memory.processes, first])
    rows.extend({"kind": "transition", "a": a, "b": b, "count": n}
                for (a, b), n in twice.transition_table.items())


STEPS_DISAGREE = "the step rows are not one per route position; rebuild with build-memory"


def _stale(*keys):
    """The refusal of a step row holding ``keys``, which a memory derives from the route."""
    return f"StepEntry: unknown keys {sorted(keys)}; rebuild with build-memory"


def _drop_last_item(header, rows):
    del rows[-1]


def _numeric_protocol(header, rows):
    header["protocol"] = 5


def _text_seed(header, rows):
    header["seed"] = "5"


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("memory", _drop_count, "missing keys ['count']"),
        ("memory", _drop_kind, "kind None is not one of"),
        ("memory", _text_vector_as_string, "ProcessRow.embeddings"),
        ("memory", _text_prefix_len, "header max_prefix_len: expected int, got str"),
        ("memory", _prefix_len(0), "header max_prefix_len 0 is below 1"),
        ("memory", _prefix_len(-1), "header max_prefix_len -1 is below 1"),
        ("memory", _row_kind("nope"), "kind 'nope' is not one of process, step, transition;"
                                      " rebuild with build-memory"),
        ("memory", _row_kind(["step"]), "kind ['step'] is not one of process, step, transition"),
        ("memory", _non_object_row, "kind None is not one of process, step, transition;"),
        # well-formed rows that are not the ones the process routes give
        ("memory", _add_to_a_count, ROUTES_DISAGREE),
        ("memory", _a_prefix_row, "kind 'prefix' is not one of process, step, transition;"
                                  " rebuild with build-memory"),
        ("memory", _repeat_a_transition_row, ROUTES_DISAGREE),
        # step rows holding what the route gives, as an older version wrote them
        ("memory", _each_step("prev_activity", "quench", lambda row: row["position"] > 0),
         _stale("prev_activity")),
        ("memory", _each_step("norm_position", 0.5), _stale("norm_position")),
        ("memory", _each_step("activity", "quench", lambda row: row["position"] == 0),
         _stale("activity")),
        # well-formed step rows that are not one per route position
        ("memory", _drop_a_process_steps, STEPS_DISAGREE),
        ("memory", _repeat_a_step_row, STEPS_DISAGREE),
        ("memory", _a_step_of_no_process, STEPS_DISAGREE),
        ("memory", _a_position_past_the_route, STEPS_DISAGREE),
        ("memory", _repeat_a_process, "is stored more than once; rebuild with build-memory"),
        ("split", _drop_last_item, "no partition for item"),
        ("split", _numeric_protocol, "header protocol: expected str, got int"),
        ("split", _text_seed, "header seed: expected int | None, got str"),
    ],
    ids=["transition-no-count", "row-no-kind", "string-vector", "text-max-prefix-len",
         "zero-max-prefix-len", "negative-max-prefix-len", "unknown-kind", "list-kind",
         "non-object-row", "a-transition-count", "a-prefix-row", "a-transition-row-twice",
         "prev-activity-quench", "norm-position-half",
         "position-0-activity", "a-process-steps-dropped", "a-step-row-11-times",
         "a-step-of-no-process", "a-position-past-the-route", "a-process-twice", "split-misses-an-item",
         "numeric-protocol", "text-seed"],
)
def test_eval_on_a_malformed_artifact_exits_3_naming_it(tmp_path, capsys, name, edit, message):
    path = _edited(tmp_path, name, edit)
    argv = eval_argv(pipeline(), "argmax_hybrid", tmp_path / "log.ndjson", memory=path)
    if name == "split":
        argv[argv.index("--split") + 1] = str(path)
    code = cli.dispatch(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and str(path) in err and message in err
    assert "Traceback" not in err


def test_a_max_prefix_len_edit_loads_as_the_memory_build_memory_writes_for_it(tmp_path, capsys):
    # the prefix index is a view of the routes, so the header's max_prefix_len
    # is all a file holds of it
    paths = pipeline()
    edited = _edited(tmp_path, "memory", _prefix_len(2))  # the pipeline's memory has 4
    built = tmp_path / "built.ndjson"
    assert cli.dispatch(["build-memory", "--graphs", str(paths["graphs"]), "--bench",
                         str(paths["bench"]), "--split", str(paths["split"]), "--out", str(built),
                         "--max-prefix-len", "2"]) == 0
    capsys.readouterr()
    assert_same_memory(load_memory(edited), load_memory(built))
    assert load_memory(edited).prefix_index != load_memory(paths["memory"]).prefix_index
    assert cli.dispatch(eval_argv(paths, "argmax_hybrid", tmp_path / "log.ndjson", memory=edited)) == 0


# each artifact whose header counts its rows -> the stage that reads it, writing ``out``
COUNTED_READERS = {
    "raw": lambda path, out: ["compile", "--in", str(path), "--out", str(out)],
    "graphs": lambda path, out: ["genbench", "--graphs", str(path), "--out", str(out)],
    "bench": lambda path, out: ["split", "--bench", str(path), "--out", str(out), "--protocol", "year"],
}
# header count edit -> (the count the header then holds, the rows the file holds), given the rows
COUNT_EDITS = {
    "truncated": lambda header, rows: rows.__delitem__(slice(len(rows) // 2 + 1, None)),
    "one-row-more": lambda header, rows: header.__setitem__("count", len(rows) + 1),
    "text-count": lambda header, rows: header.__setitem__("count", str(len(rows))),
}


@pytest.mark.parametrize("edit", COUNT_EDITS)
@pytest.mark.parametrize("name", COUNTED_READERS)
def test_an_artifact_its_header_does_not_count_exits_3_naming_both_numbers(tmp_path, capsys, name, edit):
    rows_held = []
    path = _edited(tmp_path, name, lambda header, rows: (COUNT_EDITS[edit](header, rows),
                                                         rows_held.append((header["count"], len(rows)))))
    count, held = rows_held[0]
    assert count != held
    out = tmp_path / "out.ndjson"
    assert cli.dispatch(COUNTED_READERS[name](path, out)) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {path}: the header counts {count!r} rows, the file holds {held}"]
    assert not out.exists()


def _synth_argv(seed):
    return lambda out: ["synth", "--seed", str(seed), "--out", str(out), "--n", "5"]


@pytest.mark.parametrize("argv, message", [
    (_synth_argv(2**70), f"RunConfig.seed: {2**70} is outside [-2**63, 2**64)"),
    (_synth_argv(2**64), f"RunConfig.seed: {2**64} is outside [-2**63, 2**64)"),
    (_synth_argv(-2**63 - 1), f"RunConfig.seed: {-2**63 - 1} is outside [-2**63, 2**64)"),
    (lambda out: [*eval_argv(pipeline(), "argmax_hybrid", out), "--top-k", str(2**64)],
     f"PolicyConfig.top_k: {2**64} is outside [-2**63, 2**64)"),
], ids=["seed-2**70", "seed-2**64", "seed-below-2**63", "top-k-2**64"])
def test_an_integer_the_decoder_cannot_read_back_exits_2_naming_its_knob(tmp_path, capsys, argv, message):
    out = tmp_path / "out.ndjson"
    assert cli.dispatch(argv(out)) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("seed", [-2**63, 2**64 - 1])
def test_the_widest_integers_the_decoder_reads_back_are_accepted(tmp_path, seed):
    out = tmp_path / "raw.ndjson"
    assert cli.dispatch(_synth_argv(seed)(out)) == 0
    assert read_ndjson(out)[0]["seed"] == seed


def _unknown_ordered_id(g):
    g["ordered_activity_ids"] = ["nowhere"]


def _stale_role(g):
    g["material_entities"][0]["role"] = "precursor"


def _a_cycle(g):
    """Two activities that each make what the other uses."""
    made_by = {ent: act for act, ent in g["generation_edges"]}
    ent, user = next((e, a) for e, a in g["usage_edges"] if e in made_by and made_by[e] != a)
    g["generation_edges"].append([user, ent])
    g["usage_edges"].append([ent, made_by[ent]])


def _usage_from_unknown_entity(g):
    g["usage_edges"].append(["ghost", g["activities"][0]["id"]])


def _weird_material_kind(g):
    g["material_entities"][0]["kind"] = "weird"


def _an_earlier_graphs_id(g):
    g["record_id"] = read_ndjson(pipeline()["graphs"])[1][0]["record_id"]


@pytest.mark.parametrize("command", ["genbench", "build-memory"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (_unknown_ordered_id, "ProcessGraph: unknown keys ['ordered_activity_ids']; re-run compile"),
        (_usage_from_unknown_entity, "usage edge ('ghost',"),
        (_weird_material_kind, "has kind 'weird'"),
        (_an_earlier_graphs_id, ": the record id of an earlier graph"),
        (_stale_role, "EntityNode: unknown keys ['role']; re-run compile"),
        (_a_cycle, ": precedence relation contains a cycle; re-run compile"),
    ],
    ids=["unknown-ordered-id", "usage-from-unknown-entity", "weird-material-kind",
         "an-earlier-graphs-id", "stale-role", "a-cycle"],
)
def test_a_malformed_graph_store_exits_3_naming_the_graph(tmp_path, capsys, command, edit, message):
    named = []

    def edit_third(header, rows):
        edit(rows[2])
        named.append(rows[2]["record_id"])

    paths = pipeline()
    graphs = _edited(tmp_path, "graphs", edit_third)
    argv = {
        "genbench": ["genbench", "--graphs", str(graphs), "--out", str(tmp_path / "bench.ndjson")],
        "build-memory": ["build-memory", "--graphs", str(graphs), "--bench", str(paths["bench"]),
                         "--split", str(paths["split"]), "--out", str(tmp_path / "memory.ndjson")],
    }[command]
    assert cli.dispatch(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert str(graphs) in err and named[0] in err and message in err


def test_eval_with_the_question_set_as_its_split_exits_3(tmp_path, capsys):
    paths = pipeline()
    argv = eval_argv(paths, "argmax_hybrid", tmp_path / "log.ndjson")
    argv[argv.index("--split") + 1] = str(paths["bench"])
    assert cli.dispatch(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(paths["bench"]) in err
    assert "expected 'matproc-split'" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["0.5", True], ids=["string", "bool"])
def test_a_non_number_in_a_stored_vector_exits_3_naming_the_graph(tmp_path, capsys, value):
    graph_ids = []

    def edit(header, rows):
        process = _first("process")(rows)
        process["embeddings"]["struct"][3] = value
        graph_ids.append(process["graph_id"])

    path = _edited(tmp_path, "memory", edit)
    code = cli.dispatch(eval_argv(pipeline(), "argmax_hybrid", tmp_path / "log.ndjson", memory=path))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and graph_ids[0] in err and "not a list of numbers" in err
    assert "Traceback" not in err


def test_a_stored_vector_of_another_length_exits_3_naming_the_file_and_graph(tmp_path, capsys):
    graph_ids = []

    def edit(header, rows):
        process = [r for r in rows if r.get("kind") == "process"][2]
        process["embeddings"]["text"].pop()
        graph_ids.append(process["graph_id"])

    path = _edited(tmp_path, "memory", edit)
    code = cli.dispatch(eval_argv(pipeline(), "argmax_hybrid", tmp_path / "log.ndjson", memory=path))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and str(path) in err and repr(graph_ids[0]) in err
    assert "stored text vector has 511 numbers" in err and "Traceback" not in err


@pytest.mark.parametrize("edit", ["a-kind-missing", "an-extra-kind"])
def test_a_process_row_with_other_vector_kinds_exits_3_naming_the_file_row_and_graph(
        tmp_path, capsys, edit):
    named = []

    def change(header, rows):
        processes = [(n, r) for n, r in enumerate(rows, start=1) if r.get("kind") == "process"]
        n, process = processes[2]
        if edit == "a-kind-missing":
            del process["embeddings"]["struct"]
        else:
            process["embeddings"]["extra"] = process["embeddings"]["text"]
        named.extend([f"row {n}:", repr(process["graph_id"])])

    path = _edited(tmp_path, "memory", change)
    code = cli.dispatch(eval_argv(pipeline(), "argmax_hybrid", tmp_path / "log.ndjson", memory=path))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and str(path) in err and all(name in err for name in named)
    assert "expected ['struct', 'text']" in err and "rebuild with build-memory" in err
    assert "Traceback" not in err


def _memory_argv(command, path, out):
    """The argv of ``command`` (eval or ablate) on the pipeline with the
    memory at ``path``, writing to ``out``."""
    if command == "eval":
        return eval_argv(pipeline(), "argmax_hybrid", out, memory=path)
    argv = ablate_argv(pipeline(), out, axes="scoring")
    argv[argv.index("--memory") + 1] = str(path)
    return argv


def _strip_vectors(keep):
    def edit(header, rows):
        for row in rows:
            if row.get("kind") == "process":
                row["embeddings"] = {k: v for k, v in row["embeddings"].items() if k in keep}
                if not keep:
                    del row["embeddings"]

    return edit


@pytest.mark.parametrize("command", ["eval", "ablate"])
@pytest.mark.parametrize("keep", [(), ("text",), ("struct",)], ids=["no-vectors", "text-only",
                                                                     "struct-only"])
def test_a_memory_without_both_vector_kinds_exits_3_naming_the_file(tmp_path, capsys, command, keep):
    path = _edited(tmp_path, "memory", _strip_vectors(keep))
    out = tmp_path / "out.ndjson"
    assert cli.dispatch(_memory_argv(command, path, out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{path}: row 1:" in err
    assert "rebuild with build-memory" in err and "Traceback" not in err
    assert not out.exists()


def _eval_reading(flag):
    def argv(paths, path, out):
        argv = eval_argv(paths, "argmax_hybrid", out)
        argv[argv.index(flag) + 1] = str(path)
        return argv

    return argv


# reader -> (its argv given the artifact at ``path``, the artifacts it takes)
READERS = {
    "genbench": (lambda paths, path, out: ["genbench", "--graphs", str(path), "--out", str(out)],
                 {"graphs"}),
    "split": (lambda paths, path, out: ["split", "--bench", str(path), "--out", str(out)],
              {"bench"}),
    "eval-split": (_eval_reading("--split"), {"split"}),
    "eval-memory": (_eval_reading("--memory"), {"memory"}),
    "report": (lambda paths, path, out: ["report", "--in", str(path)],
               {"report", "ablation", "audit", "split"}),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_refuses_every_other_artifact(tmp_path, capsys, reader):
    paths = pipeline()
    argv, takes = READERS[reader]
    out = tmp_path / "out.ndjson"
    for name, path in paths.items():
        if name in takes:
            continue
        assert cli.dispatch(argv(paths, path, out)) == 3, name
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err and "Traceback" not in err, name
        assert not out.exists(), name


@pytest.mark.parametrize(
    "content, code",
    [({"caps": {"z": 1}}, 2), ({"caps": {"a1": "2"}}, 2), ({"field_map": {"label_keys": 5}}, 3),
     ({"field_map": {"galaxy": []}}, 3)],
    ids=lambda c: json.dumps(c, sort_keys=True),
)
def test_caps_and_field_map_are_checked_on_every_command(tmp_path, capsys, content, code):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(content))
    out = tmp_path / "split.ndjson"
    assert cli.dispatch(
        ["split", "--config", str(cfg_path), "--bench", str(pipeline()["bench"]), "--out", str(out)]
    ) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert ("GenCaps" if "caps" in content else "FieldMap") in err
    assert not out.exists()


def _question_edit(task, edit):
    """An edit of the first ``task`` item's row; records the row's number
    and the item's id."""
    def apply(header, rows):
        n, row = next((n, r) for n, r in enumerate(rows, start=1) if r["task"] == task)
        edit(row)
        apply.row, apply.item = n, row["item_id"]

    return apply


def _set(key, value):
    return lambda row: row["question"].__setitem__(key, value)


@pytest.mark.parametrize(
    "edit, message",
    [
        (_question_edit("A3_next_activity", lambda row: row["question"].clear()),
         "PrefixQuestion: missing keys ['precursors', 'prefix', 'product']"),
        (_question_edit("A2_missing_step", lambda row: row["question"].pop("route_with_mask")),
         "MaskedQuestion: missing keys ['route_with_mask']"),
        (_question_edit("B1_condition_prediction", _set("step_index", "0")),
         "ConditionQuestion.step_index: expected int, got str"),
        (_question_edit("D_process_ordering",
                        lambda row: row["question"]["steps"][0].__setitem__("inputs", "x")),
         "OrderingStep.inputs: expected list[str], got str"),
        (_question_edit("C1_tool_selection", _set("condition_key", "temperature")),
         "StepQuestion: unknown keys ['condition_key']"),
        (_question_edit("A1_route_retrieval", lambda row: row.__setitem__("task", "Z_bogus")),
         "task 'Z_bogus' is not one of A1_route_retrieval"),
        (_question_edit("B1_condition_prediction", _set("step_index", 99)),
         "ConditionQuestion.step_index: 99 is outside [0, "),
        (_question_edit("C1_tool_selection", _set("step_index", -1)),
         "StepQuestion.step_index: -1 is outside [0, "),
        (_question_edit("A2_missing_step", _set("masked_index", -1)),
         "MaskedQuestion: unknown keys ['masked_index']; re-run genbench"),
        (_question_edit("A3_next_activity", lambda row: row.__setitem__("gold_index", 4)),
         "BenchItem.gold_index: 4 is outside [0, 4)"),
        (_question_edit("A3_next_activity", lambda row: row["options"].extend("efghi")),
         "BenchItem.options: 9 options, expected 2 to 8"),
        (_question_edit("A3_next_activity", lambda row: row["options"].__delitem__(slice(1, None))),
         "BenchItem.options: 1 options, expected 2 to 8"),
        (_question_edit("A3_next_activity",
                        lambda row: row["options"].__setitem__(row["gold_index"] - 1,
                                                               row["options"][row["gold_index"]])),
         "BenchItem.options: "),
        (_question_edit("C1_tool_selection", _set("activity", "not an activity")),
         "StepQuestion: unknown keys ['activity']; re-run genbench"),
        (_question_edit("B1_condition_prediction", _set("activity", "not an activity")),
         "ConditionQuestion: unknown keys ['activity']; re-run genbench"),
        (_question_edit("A2_missing_step",
                        lambda row: row["question"]["route_with_mask"].__setitem__(
                            row["question"]["route_with_mask"].index("?"), "mix")),
         "MaskedQuestion.route_with_mask: holds 0 '?', expected 1"),
        (_question_edit("A2_missing_step", lambda row: row["question"]["route_with_mask"].append("?")),
         "MaskedQuestion.route_with_mask: holds 2 '?', expected 1"),
    ],
    ids=["empty-question", "missing-key", "text-step-index", "text-step-inputs",
         "key-of-another-task", "unknown-task", "step-index-past-route", "negative-step-index",
         "negative-masked-index", "gold-index-past-options", "nine-options", "one-option",
         "repeated-option", "activity-off-the-route", "condition-activity-off-the-route",
         "no-mask", "two-masks"],
)
def test_eval_refuses_a_malformed_question_naming_its_row(tmp_path, capsys, edit, message):
    path = _edited(tmp_path, "bench", edit)
    argv = eval_argv(pipeline(), "argmax_hybrid", tmp_path / "log.ndjson")
    argv[argv.index("--bench") + 1] = str(path)
    code = cli.dispatch(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"error: {path}: row {edit.row}: item {edit.item!r}: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "log.ndjson").exists()


FACT_EDITS = {"doi": lambda v: v + "-other", "year": lambda v: (v or 2019) + 3,
              "material_class": lambda v: "magnetic" if v != "magnetic" else "battery"}


def _disagreeing(fact):
    """Every second item of the first graph with two or more items gets
    another ``fact``; records the graph id."""
    def edit(header, rows):
        graph_ids = [row["graph_id"] for row in rows]
        edit.graph = next(gid for gid in graph_ids if graph_ids.count(gid) > 1)
        for row in [r for r in rows if r["graph_id"] == edit.graph][1::2]:
            row[fact] = FACT_EDITS[fact](row[fact])

    return edit


@pytest.mark.parametrize("fact", sorted(FACT_EDITS))
@pytest.mark.parametrize("command", ["split", "build-memory", "eval"])
def test_a_graph_whose_items_disagree_on_a_fact_exits_3_naming_the_graph(tmp_path, capsys, command,
                                                                         fact):
    paths, edit = pipeline(), _disagreeing(fact)
    bench, out = _edited(tmp_path, "bench", edit), tmp_path / "out.ndjson"
    argv = {
        "split": ["split", "--bench", str(bench), "--out", str(out), "--protocol", "year"],
        "build-memory": ["build-memory", "--graphs", str(paths["graphs"]), "--bench", str(bench),
                         "--split", str(paths["split"]), "--out", str(out)],
        "eval": eval_argv(paths, "argmax_hybrid", out),
    }[command]
    if command == "eval":
        argv[argv.index("--bench") + 1] = str(bench)
    assert cli.dispatch(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bench}: graph {edit.graph!r}: item ") and "re-run genbench" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "ablate"])
def test_a_graph_aligned_split_refuses_a_memory_of_an_evaluated_graph(tmp_path, capsys, command):
    # a type split in which one train item of a graph with other train items
    # is moved to test, and a memory built from it (a type split is not
    # re-derived when read: its file lacks the held-out class and dev ratio)
    paths = pipeline()
    split, memory, out = (tmp_path / f"{name}.ndjson" for name in ("split", "memory", "out"))
    assert cli.dispatch(["split", "--bench", str(paths["bench"]), "--out", str(split),
                         "--protocol", "type"]) == 0
    header, rows = read_ndjson(split)
    graph_of = {row["item_id"]: row["item_id"].split(":")[0] for row in rows}
    train = [row for row in rows if row["partition"] == "train"]
    moved = next(row for row in train
                 if sum(graph_of[r["item_id"]] == graph_of[row["item_id"]] for r in train) > 1)
    moved["partition"] = "test"
    write_ndjson(split, header, rows)
    assert cli.dispatch(["build-memory", "--graphs", str(paths["graphs"]), "--bench",
                         str(paths["bench"]), "--split", str(split), "--out", str(memory)]) == 0
    argv = _memory_argv(command, memory, out)
    argv[argv.index("--split") + 1] = str(split)
    assert cli.dispatch(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {memory} holds 1 of ") and repr(graph_of[moved["item_id"]]) in err
    assert f"items in partition 'test' of {split}" in err and "'type' split" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def _moved_train_items(split: Path, n: int) -> list[str]:
    """Moves ``n`` train items of the first graph holding that many to dev
    in the split file at ``split``; returns their ids, in bench order."""
    header, rows = read_ndjson(split)
    train = [row for row in rows if row["partition"] == "train"]
    graph_ids = [row["item_id"].split(":")[0] for row in train]
    graph_id = next(gid for gid in graph_ids if graph_ids.count(gid) >= n)
    moved = [row for row in train if row["item_id"].split(":")[0] == graph_id][:n]
    for row in moved:
        row["partition"] = "dev"
    write_ndjson(split, header, rows)
    ids = {row["item_id"] for row in moved}
    return [row["item_id"] for row in read_ndjson(pipeline()["bench"])[1] if row["item_id"] in ids]


@pytest.mark.parametrize("command", ["build-memory", "eval", "ablate"])
@pytest.mark.parametrize("protocol", ["year", "dual"])
def test_a_split_its_protocol_does_not_give_exits_3_naming_it(tmp_path, capsys, command, protocol):
    # the memory is the one of the split before the edit, which keeps the moved
    # items' graph in train and out of test
    paths = dict(pipeline())
    paths["split"], paths["memory"] = _split_and_memory(tmp_path, "--protocol", protocol)
    moved = _moved_train_items(paths["split"], 3)
    split, out = paths["split"], tmp_path / "out.ndjson"
    argv = {"build-memory": ["build-memory", "--graphs", str(paths["graphs"]), "--bench",
                             str(paths["bench"]), "--split", str(split), "--out", str(out)],
            "eval": _without_memory(eval_argv(paths, "zero_shot", out)),
            "ablate": ablate_argv(paths, out, axes="scoring")}[command]
    assert cli.dispatch(argv) == 3
    err = capsys.readouterr().err
    assert err == (f"error: {split}: 3 items are not in the partition a {protocol!r} split gives"
                   f" them, e.g. {moved}; re-run split\n")
    assert not out.exists()


@pytest.mark.parametrize("held_out_class", ["battery", "magnetic", "no-such-class"])
def test_a_dual_split_of_any_held_out_class_is_its_protocol_s(tmp_path, capsys, held_out_class):
    # the file does not name its held-out class: build-memory and eval read it as
    # the dual split of the class it agrees with
    paths = dict(pipeline())
    paths["split"], paths["memory"] = _split_and_memory(
        tmp_path, "--protocol", "dual", "--held-out-class", held_out_class)
    out = tmp_path / "report.ndjson"
    code = cli.dispatch([*eval_argv(paths, "argmax_hybrid", out), "--partition", "dev"])
    capsys.readouterr()
    assert code == 0


def _other_corpus_memory(root: Path) -> Path:
    """The pipeline's stages on the synth corpus of another seed, whose graphs
    take the same ids, up to a memory of its ``random`` split."""
    paths = {name: root / f"{name}.ndjson" for name in ("raw", "graphs", "bench", "split", "memory")}
    for argv in (
        ["synth", "--out", str(paths["raw"]), "--n", "16", "--seed", "8"],
        ["compile", "--in", str(paths["raw"]), "--out", str(paths["graphs"])],
        ["genbench", "--graphs", str(paths["graphs"]), "--out", str(paths["bench"]), "--seed", "3"],
        ["split", "--bench", str(paths["bench"]), "--out", str(paths["split"]), "--protocol",
         "random", "--seed", "5"],
        ["build-memory", "--graphs", str(paths["graphs"]), "--bench", str(paths["bench"]),
         "--split", str(paths["split"]), "--out", str(paths["memory"])],
    ):
        assert cli.dispatch(argv) == 0, argv
    return paths["memory"]


@pytest.mark.parametrize("command", ["eval", "ablate"])
def test_a_memory_of_another_corpus_exits_3_naming_a_graph_and_an_item(tmp_path, capsys, command):
    memory, out = _other_corpus_memory(tmp_path), tmp_path / "out.ndjson"
    capsys.readouterr()
    routes = {p.graph_id: p.route for p in load_memory(memory).processes}
    differing = {}
    for row in read_ndjson(pipeline()["bench"])[1]:
        graph_id = row["graph_id"]
        if (row["task"][:2] in ("B1", "B2", "C1") and graph_id in routes
                and row["question"]["route"] != routes[graph_id]):
            differing.setdefault(graph_id, row["item_id"])
    assert differing
    graph_id, item_id = next(iter(differing.items()))
    assert cli.dispatch(_memory_argv(command, memory, out)) == 3
    err = capsys.readouterr().err
    assert err == (f"error: {memory} holds {len(differing)} of {len(routes)} processes whose route"
                   f" differs from the one items of {pipeline()['bench']} show, e.g. process"
                   f" {graph_id!r} against item {item_id!r}; build the memory from this question"
                   " set's graphs\n")
    assert not out.exists()


def _older_memory(header, rows):
    """The pipeline's memory as an older version wrote it: each step row with
    its route context, and the prefix index stored as rows."""
    memory = load_memory(pipeline()["memory"])
    for row in _steps(rows):
        at = StepQuery.at(memory.by_graph_id[row["graph_id"]].route, row["position"])
        row.update(activity=at.activity, norm_position=at.norm_position,
                   prev_activity=at.prev_activity, next_activity=at.next_activity)
    rows.extend({"kind": "prefix", "prefix": list(window), "next": dict(counts)}
                for window, counts in sorted(memory.prefix_index.items()))


@pytest.mark.parametrize("command", ["eval", "ablate"])
@pytest.mark.parametrize("rows_kept", ["every-row", "without-step-rows"])
def test_a_memory_an_older_version_wrote_exits_3_saying_to_rebuild(tmp_path, capsys, command,
                                                                    rows_kept):
    def edit(header, rows):
        _older_memory(header, rows)
        if rows_kept == "without-step-rows":  # then the first prefix row is refused
            rows[:] = [row for row in rows if row["kind"] != "step"]
        edit.row = 1 + next(n for n, row in enumerate(rows) if row["kind"] in ("step", "prefix"))

    path, out = _edited(tmp_path, "memory", edit), tmp_path / "out.ndjson"
    assert cli.dispatch(_memory_argv(command, path, out)) == 3
    refusal = {"every-row": "StepEntry: unknown keys ['activity', 'next_activity', 'norm_position',"
                            " 'prev_activity']",
               "without-step-rows": "kind 'prefix' is not one of process, step, transition"}
    assert capsys.readouterr().err == (f"error: {path}: row {edit.row}: {refusal[rows_kept]};"
                                       " rebuild with build-memory\n")
    assert not out.exists()


@pytest.mark.parametrize("name", ["graphs", "bench"])
def test_compile_refuses_an_artifact_that_is_not_raw_records(tmp_path, capsys, name):
    path = pipeline()[name]
    out = tmp_path / "graphs.ndjson"
    assert cli.dispatch(["compile", "--in", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: format ") and "expected 'matproc-raw-prov'" in err
    assert "Traceback" not in err
    assert not out.exists()


# --- strict JSON on every read -------------------------------------------------------------


UNDECODABLE_LINES = {
    "invalid-utf8": b'{"item_id": "\xff"}',
    "5000-digit-int": b'{"n": 1' + b"0" * 5000 + b"}",
    "100000-deep-array": b"[" * 100_000 + b"]" * 100_000,
    "1000000-deep-array": b"[" * 1_000_000 + b"]" * 1_000_000,
}


@pytest.mark.parametrize("line", UNDECODABLE_LINES.values(), ids=UNDECODABLE_LINES)
def test_an_undecodable_line_exits_3_naming_the_file_and_line(tmp_path, line):
    bench = tmp_path / "bench.ndjson"
    header_and_first_row = pipeline()["bench"].read_bytes().splitlines(keepends=True)[:2]
    bench.write_bytes(b"".join(header_and_first_row) + line + b"\n")
    out = tmp_path / "split.ndjson"
    done = _matproc("split", "--bench", bench, "--out", out)
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith(f"error: {bench}: line 3: invalid JSON")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert not out.exists()


NON_RFC_8259_LINES = {
    "nan": b'{"@graph": [], "x": NaN}',
    "infinity": b'{"@graph": [Infinity]}',
    "minus-infinity": b'{"x": -Infinity}',
    "lone-surrogate": b'{"@id": "\\ud800"}',
}


@pytest.mark.parametrize("line", NON_RFC_8259_LINES.values(), ids=NON_RFC_8259_LINES)
def test_compile_refuses_a_raw_line_that_is_not_strict_json_naming_it(tmp_path, capsys, line):
    raw = tmp_path / "raw.ndjson"
    good = to_prov_document(generate_synthetic_corpus(SynthParams(n_records=1), seed=3)[0])
    raw.write_bytes(b'{"format": "matproc-raw-prov"}\n' + json.dumps(good).encode() + b"\n"
                    + line + b"\n")
    out = tmp_path / "graphs.ndjson"
    assert cli.dispatch(["compile", "--in", str(raw), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {raw}: line 3: invalid JSON") and "Traceback" not in err
    assert not out.exists()


def test_a_stored_number_past_float_range_exits_3_naming_the_line(tmp_path, capsys):
    lines = pipeline()["memory"].read_bytes().splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if b'"kind":"process"' in line)
    lines[n], edits = re.subn(rb'("struct":\[)[^,\]]+', rb"\g<1>1e400", lines[n], count=1)
    assert edits == 1
    path = tmp_path / "memory.ndjson"
    path.write_bytes(b"".join(lines))
    log = tmp_path / "log.ndjson"
    code = cli.dispatch(eval_argv(pipeline(), "argmax_hybrid", log, memory=path))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"error: {path}: line {n + 1}: invalid JSON") and "Traceback" not in err
    assert not log.exists()


def _typed(value):
    """``value`` with every scalar paired with its type, and floats as their bits."""
    if type(value) is dict:
        return {key: _typed(v) for key, v in value.items()}
    if type(value) is list:
        return [_typed(v) for v in value]
    return type(value), value.hex() if type(value) is float else value


def test_every_pipeline_artifact_line_decodes_as_the_stdlib_decoder_reads_it():
    for name, path in pipeline().items():
        for n, line in enumerate(path.read_bytes().splitlines(), start=1):
            assert _typed(loads(line)) == _typed(json.loads(line)), f"{name} line {n}"


@pytest.mark.parametrize("argv", [["eval", "--config"], ["compile", "--field-map"]],
                         ids=["eval-config", "compile-field-map"])
def test_a_config_file_that_cannot_be_read_exits_2_naming_it(tmp_path, capsys, argv):
    missing, out = tmp_path / "missing.json", tmp_path / "out.ndjson"
    extra = {"eval": ["--report", str(out)], "compile": ["--in", str(pipeline()["raw"]),
                                                           "--out", str(out)]}[argv[0]]
    assert cli.dispatch([*argv, str(missing), *extra]) == 2
    assert capsys.readouterr().err == (f"error: config file {missing} cannot be read:"
                                       " No such file or directory\n")
    assert not out.exists()


@pytest.mark.parametrize("content", [b"{not json", b'{"seed": NaN}', b'{"seed": "\xff"}'],
                         ids=["not-json", "nan", "invalid-utf8"])
def test_a_config_file_that_is_not_strict_json_exits_2_naming_it(tmp_path, capsys, content):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_bytes(content)
    out = tmp_path / "split.ndjson"
    code = cli.dispatch(["split", "--config", str(cfg_path), "--bench", str(pipeline()["bench"]),
                         "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: config file {cfg_path} is not JSON") and "Traceback" not in err
    assert not out.exists()
