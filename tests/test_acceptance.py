"""Acceptance gate: one test per release criterion.

Criteria 1-3 check the pipeline against the real published corpus and
only run when that corpus is present (see the environment variables
below); they skip — never fake a pass — when it is not. Criteria 4-7
run entirely on the seeded synthetic corpus with no network access.

Environment:
  MATPROC_REAL_BENCH  processed benchmark items (tool NDJSON schema),
                      produced by compile+genbench from the public dump
  MATPROC_REAL_RAW    raw provenance records NDJSON (one document per line)
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

import numpy as np
import pytest

from matproc import cli
from matproc.memory import build_memory
from matproc.provgraph import (
    SynthParams,
    assign_roles,
    compile_graph,
    generate_synthetic_corpus,
    infer_precedence,
    parse_record,
)
from matproc.retrieval import (
    BuiltinTextEmbedder,
    RetrievalQuery,
    RetrievalWeights,
    embed_structure,
    retrieve,
)
from matproc.runner import PolicyConfig, ablation_grid, evaluate, run_ablation
from matproc.scoring import ScoringConfig, fuse_scores, OptionScores
from matproc.splits import contamination_matrix, split_items, split_report
from matproc.taskgen import generate_benchmark
from matproc.taskgen.store import load_items
from matproc.memory import ProcessMemory, ProcessSummary

from gold_oracle import validate_item
from helpers import chain_graph, compiled, orthogonal_to, random_graph

REAL_BENCH = os.environ.get("MATPROC_REAL_BENCH", "")
REAL_RAW = os.environ.get("MATPROC_REAL_RAW", "")

needs_real_bench = pytest.mark.skipif(
    not REAL_BENCH,
    reason="real processed benchmark not available; set MATPROC_REAL_BENCH",
)
needs_real_raw = pytest.mark.skipif(
    not REAL_RAW,
    reason="real raw provenance records not available; set MATPROC_REAL_RAW",
)

# Published reference numbers for the real corpus.
DUAL_SIZES = {"train": 23_654, "dev": 2_970, "test": 2_479, "excluded": 5_872}
TASK_COUNTS = {
    "A1_route_retrieval": 1_938,
    "A2_missing_step": 6_231,
    "A3_next_activity": 7_299,
    "B1_condition_prediction": 12_339,
    "B2_full_condition_set": 1_087,
    "C1_tool_selection": 4_390,
    "D_process_ordering": 1_691,
}
TOTAL_ITEMS = 34_975


# --- criterion 1: dual-split partition exactness on the real benchmark -------------------


@needs_real_bench
def test_criterion_1_dual_split_sizes_and_purity():
    items = load_items(REAL_BENCH)
    assignment = split_items(items, "dual")
    assert assignment.counts() == {**DUAL_SIZES}
    report = split_report(assignment, items)
    train, dev, test = (report["partitions"][p] for p in ("train", "dev", "test"))
    assert train["class_pct"].get("battery", 0.0) == 0.0
    assert dev["class_pct"].get("battery", 0.0) == 0.0
    assert test["class_pct"].get("battery", 0.0) == 100.0
    assert (train["year_min"], train["year_max"]) == (1982, 2019)
    assert (dev["year_min"], dev["year_max"]) == (2020, 2020)
    assert (test["year_min"], test["year_max"]) == (2021, 2024)


# --- criterion 2: zero contamination on the real corpus ----------------------------------


@needs_real_bench
def test_criterion_2_contamination_is_exactly_zero():
    items = load_items(REAL_BENCH)
    assignments = [split_items(items, p) for p in ("dual", "type", "year")]
    matrix = contamination_matrix(assignments, items)
    for test_of in ("dual", "type", "year"):
        assert matrix.entries[("dual", test_of)] == 0.0


# --- criterion 3: benchmark regeneration within published proportions --------------------


@needs_real_raw
def test_criterion_3_regenerated_benchmark_matches_published_mix():
    from matproc.jsonio import read_ndjson

    graphs = []
    for row in read_ndjson(REAL_RAW)[1]:
        try:
            graphs.append(compile_graph(parse_record(row)))
        except Exception:
            continue  # malformed/cyclic records are excluded upstream too
    items, _ = generate_benchmark(graphs, k_options=4, seed=0)
    assert abs(len(items) - TOTAL_ITEMS) <= 0.10 * TOTAL_ITEMS
    by_task = {t: 0 for t in TASK_COUNTS}
    for it in items:
        by_task[it.task] += 1
    for task, published in TASK_COUNTS.items():
        got_share = by_task[task] / len(items)
        published_share = published / TOTAL_ITEMS
        assert abs(got_share - published_share) <= 0.05, task


# --- criterion 4: planted-regularity properties on the synthetic corpus ------------------


@functools.lru_cache(maxsize=None)
def synthetic_world():
    corpus = generate_synthetic_corpus(SynthParams(n_records=200), seed=11)
    items, _ = generate_benchmark(corpus, k_options=4, seed=4)
    assignment = split_items(items, "year")
    train_ids = {it.graph_id for it in assignment.items_in(items, "train")}
    train_graphs = [g for g in corpus if g.record_id in train_ids]
    memory = build_memory(train_graphs, split_id="year")
    test_items = assignment.items_in(items, "test")
    return corpus, items, memory, test_items


def test_criterion_4_policy_accuracy_properties():
    corpus, items, memory, test_items = synthetic_world()
    assert len(corpus) >= 200
    assert len(items) >= 2_000
    assert all(len(it.options) == 4 for it in items)

    chance, _ = evaluate(items, config=PolicyConfig(policy="uniform_random"))
    assert 0.22 <= chance.accuracy <= 0.28  # (a) 25% +/- 3 points

    oracle, _ = evaluate(items, config=PolicyConfig(policy="gold_oracle"))
    assert oracle.accuracy == 1.0  # (b)

    symbolic, _ = evaluate(
        test_items, memory, PolicyConfig(policy="argmax_symbolic"), jobs=2
    )
    chance_test, _ = evaluate(test_items, config=PolicyConfig(policy="uniform_random"))
    assert symbolic.accuracy >= chance_test.accuracy + 0.20  # (c)

    flattened, _ = evaluate(
        test_items,
        memory,
        PolicyConfig(
            policy="argmax_symbolic", scoring=ScoringConfig(uniform_transitions=True)
        ),
        jobs=2,
    )
    assert symbolic.accuracy > flattened.accuracy  # (d) strictly better


# --- criterion 5: independent brute-force oracles -----------------------------------------


def test_criterion_5_oracle_equivalence_suite():
    # Role assignment on random graphs of <= 8 activities, by definition.
    for seed in range(30):
        g = assign_roles(random_graph(seed, n_activities=(seed % 8) + 1))
        used_out = {src for src, _ in g.usage_edges}
        generated_in = {dst for _, dst in g.generation_edges}
        for node in g.material_entities:
            expect = (
                "intermediate"
                if node.id in used_out and node.id in generated_in
                else "precursor"
                if node.id in used_out
                else "product"
                if node.id in generated_in
                else "unconnected"
            )
            assert node.role == expect
        assert all(t.role == "tool" for t in g.tool_entities)

    # Topological validity of the compiled activity order (networkx oracle).
    import networkx as nx

    corpus = generate_synthetic_corpus(SynthParams(n_records=40), seed=9)
    for g in corpus:
        pairs = infer_precedence(g)
        dag = nx.DiGraph(pairs)
        dag.add_nodes_from(a.id for a in g.activities)
        assert nx.is_directed_acyclic_graph(dag)
        position = {aid: i for i, aid in enumerate(g.ordered_activity_ids)}
        assert all(position[a] < position[b] for a, b in pairs)

    # Gold recoverability: every emitted item's gold is re-derivable by rule.
    items, _ = generate_benchmark(corpus, seed=2)
    by_id = {g.record_id: g for g in corpus}
    assert items
    for it in items:
        assert validate_item(it, by_id[it.graph_id]).ok, it.item_id

    # Transition-count conservation against route lengths.
    from matproc.provgraph import graph_view

    memory = build_memory(corpus, split_id="oracle")
    assert sum(memory.transition_table.values()) == sum(
        max(len(graph_view(g).route) - 1, 0) for g in corpus
    )

    # Retrieval fusion hand fixture: the stored rows are built around the
    # query's own vectors, so every cosine is 1 or 0. p1's text row and p2's
    # struct row are the query's vectors; the other two are orthogonal to them.
    query = RetrievalQuery(
        summary=ProcessSummary(
            graph_id="q", route=["mill"], precursors=["x"], products=["u"], tools=[]
        ),
        text="precursors: x | route: mill | product: u",
        context_graph=compiled(chain_graph(["mill"], record_id="q", precursors=("x",))),
    )
    text = BuiltinTextEmbedder().embed([query.text])[0]
    struct = embed_structure([query.context_graph])[0]
    memory = ProcessMemory(
        split_id="hand",
        processes=[
            ProcessSummary(graph_id="p1", route=["mill"], precursors=["x"], products=["u"], tools=[]),
            ProcessSummary(
                graph_id="p2", route=["anneal", "sinter"], precursors=["y"], products=["v"], tools=[]
            ),
        ],
        vectors={"text": np.array([text, orthogonal_to(text)]),
                 "struct": np.array([orthogonal_to(struct), struct])},
    )
    ranked = retrieve(query, memory, RetrievalWeights(), k=2)
    # p1: 0.4*1.0 + 0.3*0.5 + 0.3*1.0 = 0.85   (text hit, neutral struct cos 0, heuristic 1)
    # p2: 0.4*0.5 + 0.3*1.0 + 0.3*(1/6) = 0.55 (struct hit; heuristic (0 + 1/2 + 0)/3)
    assert [p.graph_id for p in ranked] == ["p1", "p2"]
    assert ranked[0].s_ret == pytest.approx(0.85, abs=1e-12)
    assert ranked[1].s_ret == pytest.approx(0.55, abs=1e-12)

    # Score-fusion hand fixture at lambda = 0.7.
    sym = OptionScores(item_id="q:A1_route_retrieval:0", raw_sym=[2.0, 4.0, 6.0])
    neu = OptionScores(item_id="q:A1_route_retrieval:0", raw_neu=[1.0, 1.0, 3.0])
    fused = fuse_scores(sym, neu, 0.7)
    assert fused.norm_sym == pytest.approx([0.0, 0.5, 1.0])
    assert fused.norm_neu == pytest.approx([0.0, 0.0, 1.0])
    assert fused.fused == pytest.approx([0.0, 0.35, 1.0])


# --- criterion 6: byte-identical pipeline reruns ------------------------------------------


def _run_pipeline(root: Path) -> dict[str, Path]:
    paths = {
        name: root / f"{name}.ndjson"
        for name in ("raw", "graphs", "bench", "split", "memory", "report", "log")
    }
    steps = [
        ["synth", "--out", str(paths["raw"]), "--n", "20", "--seed", "13"],
        ["compile", "--in", str(paths["raw"]), "--out", str(paths["graphs"])],
        ["genbench", "--graphs", str(paths["graphs"]), "--out", str(paths["bench"]), "--seed", "2"],
        ["split", "--bench", str(paths["bench"]), "--out", str(paths["split"]),
         "--protocol", "random", "--seed", "6"],
        ["build-memory", "--graphs", str(paths["graphs"]), "--bench", str(paths["bench"]),
         "--split", str(paths["split"]), "--out", str(paths["memory"])],
        ["eval", "--bench", str(paths["bench"]), "--split", str(paths["split"]),
         "--memory", str(paths["memory"]), "--partition", "test",
         "--policy", "provmind_llm", "--report", str(paths["report"]),
         "--log", str(paths["log"])],
    ]
    for argv in steps:
        assert cli.dispatch(argv) == 0, argv
    return paths


def test_criterion_6_pipeline_determinism(tmp_path):
    paths = _run_pipeline(tmp_path)
    first = {name: path.read_bytes() for name, path in paths.items()}
    again = _run_pipeline(tmp_path)  # overwrites every artifact in place
    for name in first:
        assert again[name].read_bytes() == first[name], name


# --- criterion 7: ablation grid shape and lambda=1 equivalence ----------------------------


def test_criterion_7_grid_shape_and_lambda_one_equivalence():
    rows = ablation_grid(PolicyConfig())
    counts: dict[str, int] = {}
    for block, _, _ in rows:
        counts[block] = counts.get(block, 0) + 1
    assert counts == {"module": 4, "scoring": 5, "retrieval": 7, "fusion": 4, "top_k": 5}

    _, items, memory, test_items = synthetic_world()
    sample = test_items[:120]
    lambda_one = next(
        config for block, label, config in rows
        if block == "scoring" and label == "lambda=1.0"
    )
    _, grid_rows = evaluate(sample, memory, lambda_one)
    _, symbolic_rows = evaluate(sample, memory, PolicyConfig(policy="argmax_symbolic"))
    for grid_row, symbolic_row in zip(grid_rows, symbolic_rows):
        assert grid_row["answer_index"] == symbolic_row["answer_index"], grid_row["item_id"]

    # The full grid runs end to end with the mock client on a small slice.
    results = run_ablation(sample[:24], memory, axes=["module", "scoring"])
    assert len(results) == 9
    by_label = {r.label: r.report for r in results}
    symbolic_small, _ = evaluate(sample[:24], memory, PolicyConfig(policy="argmax_symbolic"))
    assert by_label["lambda=1.0"].overall == symbolic_small.overall
