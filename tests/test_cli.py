"""RunConfig merging/hashing and the file-to-file CLI pipeline."""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from matproc import __version__
from matproc import cli
from matproc.config import PATH_KEYS, RunConfig, load_config_file
from matproc.errors import ConfigConflict
from matproc.jsonio import read_ndjson, write_ndjson
from matproc.memory import load_memory
from matproc.provgraph import SynthParams, generate_synthetic_corpus, to_prov_document
from matproc.runner import DEFAULT_BUDGETS, POLICIES

from helpers import LoopbackEndpoint, count_thread_pools


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


# SHA-256 of the pipeline's artifacts that hold no stored vector. The memory,
# eval and ablation files stay out: their floats depend on the BLAS build.
# Every header carries the tool version, so a version bump changes these too.
PINNED_DIGESTS = {
    "graphs": "61f1014be0fe3d6485c1e41e100c264c53f5a48543932b72ae94a1b845999925",
    "bench": "34173bd42285ced50dbeeff226ffe81e1c940d57e94e40b5be1d7bd42d6163a5",
    "skips": "7792dde37b0f6b2f7ffe09f51313374b83fc4877b4e26739eaed798c88d018c5",
    "split": "96b42d8423dc01cbefa349d2076361b926e553b05dc3676ead874455466e5e9a",
    "audit": "3e2a6be11c3f9c6d79b4c7e216bf58b24d1430c4c9d4ce1b5a1cb459ce113d69",
}


def test_vector_free_artifacts_keep_their_pinned_bytes():
    paths = pipeline()
    digests = {name: hashlib.sha256(paths[name].read_bytes()).hexdigest() for name in PINNED_DIGESTS}
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
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


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
    assert err.startswith(f"error: k_options must lie in 2..8, got {k}") and "Traceback" not in err
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


def test_python_dash_m_matproc_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    )}
    done = subprocess.run(
        [sys.executable, "-m", "matproc", "--help"], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "usage: matproc" in done.stdout


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
        ("split", _drop_last_item, "no partition for item"),
        ("split", _numeric_protocol, "header protocol: expected str, got int"),
        ("split", _text_seed, "header seed: expected int | None, got str"),
    ],
    ids=["transition-no-count", "row-no-kind", "string-vector", "text-max-prefix-len",
         "split-misses-an-item", "numeric-protocol", "text-seed"],
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
    """An edit of the first ``task`` item's row; records the row's number."""
    def apply(header, rows):
        n, row = next((n, r) for n, r in enumerate(rows, start=1) if r["task"] == task)
        edit(row)
        apply.row = n

    return apply


def _set(key, value):
    return lambda row: row["question"].__setitem__(key, value)


@pytest.mark.parametrize(
    "edit, message",
    [
        (_question_edit("A3_next_activity", lambda row: row["question"].clear()),
         "PrefixQuestion: missing keys ['precursors', 'prefix', 'product']"),
        (_question_edit("A2_missing_step", lambda row: row["question"].pop("masked_index")),
         "MaskedQuestion: missing keys ['masked_index']"),
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
         "MaskedQuestion.masked_index: -1 is outside [0, "),
        (_question_edit("A3_next_activity", lambda row: row.__setitem__("gold_index", 4)),
         "BenchItem.gold_index: 4 is outside [0, 4)"),
        (_question_edit("A3_next_activity", lambda row: row["options"].extend("efghi")),
         "BenchItem.options: 9 options, expected 2 to 8"),
        (_question_edit("A3_next_activity", lambda row: row["options"].__delitem__(slice(1, None))),
         "BenchItem.options: 1 options, expected 2 to 8"),
    ],
    ids=["empty-question", "missing-key", "text-step-index", "text-step-inputs",
         "key-of-another-task", "unknown-task", "step-index-past-route", "negative-step-index",
         "negative-masked-index", "gold-index-past-options", "nine-options", "one-option"],
)
def test_eval_refuses_a_malformed_question_naming_its_row(tmp_path, capsys, edit, message):
    path = _edited(tmp_path, "bench", edit)
    argv = eval_argv(pipeline(), "argmax_hybrid", tmp_path / "log.ndjson")
    argv[argv.index("--bench") + 1] = str(path)
    code = cli.dispatch(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"error: {path}: row {edit.row}: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "log.ndjson").exists()


@pytest.mark.parametrize("name", ["graphs", "bench"])
def test_compile_refuses_an_artifact_that_is_not_raw_records(tmp_path, capsys, name):
    path = pipeline()[name]
    out = tmp_path / "graphs.ndjson"
    assert cli.dispatch(["compile", "--in", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: format ") and "expected 'matproc-raw-prov'" in err
    assert "Traceback" not in err
    assert not out.exists()
