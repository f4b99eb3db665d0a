"""Harness tests on a tiny corpus. Run with: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from pathlib import Path

import pytest

from checks import (check_build, check_eval, eval_reference, read_ndjson, summarize_build)
from run import ENDPOINT_VARS, run_child, summarize
from stats import highest_percentile, percentile
from tracing import Tracer, aggregate, layer_value, load_spans
from workloads import build_stages, synth_argv

EVAL_ARGV = ["eval", "--bench", "bench.ndjson", "--split", "split.ndjson", "--memory",
             "memory.ndjson", "--partition", "test", "--policy", "argmax_hybrid",
             "--report", "report.ndjson", "--log", "log.ndjson", "--jobs", "1"]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """synth --n 20, the whole build pipeline, and an eval of its test partition."""
    from matproc.cli import dispatch

    for var in ENDPOINT_VARS:
        os.environ.pop(var, None)
    d = tmp_path_factory.mktemp("tiny")
    cwd = os.getcwd()
    os.chdir(d)
    try:
        for argv in [synth_argv(20, 11), *(a for _, a in build_stages()), EVAL_ARGV]:
            with contextlib.redirect_stdout(io.StringIO()):
                assert dispatch(argv) == 0, argv
    finally:
        os.chdir(cwd)
    return d


def _copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def _rewrite(path: Path, edit) -> None:
    header, rows = read_ndjson(path)
    edit(rows)
    path.write_text("".join(json.dumps(r) + "\n" for r in [header, *rows]))


def _eval_ref(d: Path):
    _, log = read_ndjson(d / "log.ndjson")
    _, (report,) = read_ndjson(d / "report.ndjson")
    ref = {"policy": report["policy"], "split_id": report["split_id"], "items": eval_reference(log)}
    return ref, list(ref["items"])


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 5.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    inner = tracer.wrap("inner", lambda: leaf())
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    agg = aggregate(tracer.rows())
    # outer [0,10]; inner [1,3] and [4,6]; leaf [1.5,2] and [4.5,5] inside them
    assert agg["outer"]["s"] == 10.0 and agg["outer"]["self_s"] == 6.0
    assert agg["inner"]["calls"] == 2 and agg["inner"]["s"] == 4.0
    assert agg["inner"]["self_s"] == 3.0
    assert agg["leaf"]["calls"] == 2 and agg["leaf"]["self_s"] == 1.0
    assert agg["outer"]["children"] == {"inner": 4.0}


def test_spans_inside_an_item_share_its_id():
    class Item:
        item_id = "x:1"

    tracer = Tracer()
    child = tracer.wrap("retrieval.retrieve", lambda: None)
    answer = tracer.wrap("runner.answer_item", lambda item: child())
    answer(Item())
    child()
    assert [r["item"] for r in tracer.rows()] == ["x:1", "x:1", None]


def test_percentile_rule():
    assert highest_percentile(19) is None
    assert highest_percentile(20) == 50
    assert highest_percentile(99) == 50
    assert highest_percentile(100) == 90
    assert highest_percentile(999) == 90
    assert highest_percentile(1000) == 99
    assert highest_percentile(10_000) == 99.9
    values = list(range(1, 101))
    assert percentile(values, 50) == 50 and percentile(values, 90) == 90
    agg = {"retrieval.retrieve": {"calls": 100, "durations": [v / 1000 for v in values]}}
    assert layer_value(agg, "retrieval.retrieve.top_pct", 100) == 90
    assert layer_value(agg, "retrieval.retrieve.ms_top", 100) == pytest.approx(90)
    assert layer_value(agg, "retrieval.retrieve.ms_p50", 100) == pytest.approx(50)
    assert layer_value(agg, "retrieval.retrieve.calls_per_item", 4) == 25
    assert layer_value(agg, "taskgen.render_route.calls", 4) == 0


def test_build_check_catches_a_perturbed_vector_and_gold_index(tiny, tmp_path):
    ref = summarize_build(tiny)
    assert check_build(summarize_build(tiny), ref).mismatched == 0

    nudged = _copy(tiny, tmp_path / "nudged")

    def nudge(rows):
        rows[0]["embeddings"]["struct"][7] += 1e-6

    _rewrite(nudged / "memory.ndjson", nudge)
    result = check_build(summarize_build(nudged), ref)
    assert result.mismatched == 1 and "struct" in result.notes[0]

    regold = _copy(tiny, tmp_path / "regold")
    _rewrite(regold / "bench.ndjson", lambda rows: rows[0].update(gold_index=(rows[0]["gold_index"] + 1) % 4))
    assert check_build(summarize_build(regold), ref).mismatched == 1


def test_eval_check_catches_a_changed_answer_but_not_last_bit_noise(tiny, tmp_path):
    ref, ids = _eval_ref(tiny)
    assert ids, "the tiny corpus must have test items"
    clean = check_eval(tiny, ref, ids)
    assert (clean.mismatched, clean.failed) == (0, 0)

    noisy = _copy(tiny, tmp_path / "noisy")
    _rewrite(noisy / "log.ndjson", lambda rows: rows[0]["scores"]["fused"].__setitem__(0, rows[0]["scores"]["fused"][0] + 1e-12))
    assert check_eval(noisy, ref, ids).mismatched == 0

    moved = _copy(tiny, tmp_path / "moved")
    _rewrite(moved / "log.ndjson", lambda rows: rows[0]["scores"]["fused"].__setitem__(0, rows[0]["scores"]["fused"][0] + 1e-6))
    assert check_eval(moved, ref, ids).mismatched == 1

    flipped = _copy(tiny, tmp_path / "flipped")
    _rewrite(flipped / "log.ndjson", lambda rows: rows[0].update(answer_index=(rows[0]["answer_index"] + 1) % 4))
    assert check_eval(flipped, ref, ids).mismatched == 1


def test_injected_item_error_counts_in_failed_frac(tiny, tmp_path):
    ref, ids = _eval_ref(tiny)
    broken = _copy(tiny, tmp_path / "broken")
    _rewrite(broken / "log.ndjson", lambda rows: rows[0].update(flags=["item_error:DataError"]))
    check = check_eval(broken, ref, ids)
    assert check.failed == 1
    rep = {"traced": False, "ok": True, "setup_s": 0.5, "wall_s": 2.0, "child_s": 3.0,
           "stages": {"eval": 2.0}, "rss_mb": 50.0, "artifacts": {"log.ndjson": 10}, "check": check}
    metrics, extras = summarize({"units": len(ids)}, [rep], [0.5])
    assert extras["failed_frac"] == pytest.approx(1 / len(ids))
    assert metrics["items_per_s"] == pytest.approx(len(ids) / 2.0)


def test_traced_child_hooks_every_layer_it_runs(tiny, tmp_path):
    d = _copy(tiny, tmp_path / "traced")
    for name in ("log.ndjson", "report.ndjson"):
        (d / name).unlink()
    run_child({"setup": [], "stages": [("eval", EVAL_ARGV)], "trace": True}, d, 120)
    spans, counts, missing = load_spans(d / "spans.ndjson")
    assert missing == []
    agg = aggregate(spans, counts)
    _, ids = _eval_ref(tiny)
    assert agg["retrieval.retrieve"]["calls"] == len(ids)
    assert agg["runner.evaluate"]["calls"] == 1 and agg["cli.eval"]["calls"] == 1
    answered = {s["item"] for s in spans if s["name"] == "runner.answer_item"}
    assert answered == set(ids)
    assert all(s["item"] in answered for s in spans if s["name"] == "retrieval.retrieve")
    assert {"retrieval.embed", "retrieval.embed_structure"} <= set(agg["retrieval.retrieve"]["children"])


def test_every_per_layer_metric_names_a_hooked_span_and_a_known_field():
    from matproc.cli import COMMANDS
    from tracing import COUNT_HOOKS, FUNCTION_HOOKS, METHOD_HOOKS

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    spans = {h[0] for h in (*FUNCTION_HOOKS, *METHOD_HOOKS, *COUNT_HOOKS)}
    spans |= {f"cli.{c}" for c in COMMANDS}
    fields = {"calls", "s", "self_s", "calls_per_item", "ms_p50", "ms_top", "top_pct",
              "entries_scanned", "pairs_scored", "unparseable", "flagged", "bytes", "rows", "texts"}
    for m in spec["per_layer"]:
        span, _, fld = m["name"].rpartition(".")
        if span == "trace":
            continue
        assert span in spans and fld in fields, m["name"]
