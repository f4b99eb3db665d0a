"""NDJSON stores (header checks, streaming reads, error locations), the
encoder and the typed loader."""

from __future__ import annotations

import ast
import dataclasses
import functools
import json
import sys
from pathlib import Path

import pytest

import matproc
from matproc.chat import ChatExchange, MockChatClient
from matproc.config import RunConfig
from matproc.errors import ConfigConflict, MalformedDocument
from matproc.jsonio import (
    Record,
    check_fields,
    dumps_line,
    read_artifact,
    read_header,
    read_ndjson,
    write_ndjson,
)
from matproc.memory import PrefixRow, ProcessRow, ProcessSummary, StepEntry, TransitionRow, build_memory
from matproc.provgraph import (
    ActivityNode,
    EntityNode,
    FieldMap,
    ProcessGraph,
    SynthParams,
    compile_graph,
    generate_synthetic_corpus,
    parse_record,
    to_prov_document,
)
from matproc.retrieval import (
    RetrievalWeights,
    RetrievedPrecedent,
    query_from_item,
    retrieve,
)
from matproc.runner import AblationRow, EvalReport, PolicyConfig, Tally, evaluate
from matproc.scoring import (
    OptionScores,
    ScoringConfig,
    fuse_scores,
    score_options_neural,
    score_options_symbolic,
)
from matproc.splits import AuditRow, SplitRow, split_items
from matproc.taskgen import BenchItem, GenCaps, generate_benchmark


def test_round_trip_and_streaming_agree(tmp_path):
    path = tmp_path / "store.ndjson"
    rows = [{"b": 2, "a": 1}, {"x": [1.5, None]}]
    assert write_ndjson(path, {"format": "demo", "version": 1}, rows) == 2
    header, read_rows = read_ndjson(path)
    assert header == {"format": "demo", "version": 1}
    assert read_rows == rows
    assert read_ndjson(path, lambda header: lambda row: row) == (header, rows)


def test_read_ndjson_names_the_bad_line(tmp_path):
    path = tmp_path / "store.ndjson"
    path.write_text('{"format": "demo"}\n{"a": 1}\n\n{"b": \n{"c": 3}\n')
    with pytest.raises(MalformedDocument, match=r"line 4: invalid JSON"):
        read_ndjson(path)


def test_read_ndjson_builds_rows_before_reading_further(tmp_path):
    path = tmp_path / "store.ndjson"
    path.write_text('{"format": "demo"}\n{"a": 1}\nnot json\n')
    built = []
    with pytest.raises(MalformedDocument, match="line 3"):
        read_ndjson(path, lambda header: built.append)
    assert built == [{"a": 1}]  # built before the bad line is parsed


@pytest.mark.parametrize(
    "text, message",
    [("", "empty file"), ("\n\n", "empty file"), ('{"a": 1}\n', "missing format header")],
)
def test_both_readers_check_the_header(tmp_path, text, message):
    path = tmp_path / "store.ndjson"
    path.write_text(text)
    with pytest.raises(MalformedDocument, match=message):
        read_ndjson(path)
    with pytest.raises(MalformedDocument, match=message):
        read_ndjson(path, lambda header: lambda row: row)


def test_read_artifact_checks_the_format_the_header_and_every_row(tmp_path):
    path = tmp_path / "store.ndjson"
    rows = [{"alpha": 1, "beta": 0, "gamma": 0}, {"alpha": 0.5, "beta": 0.5, "gamma": 0}]
    write_ndjson(path, {"format": "demo", "seed": 3}, rows)
    assert read_header(path) == {"format": "demo", "seed": 3}
    header, records = read_artifact(path, "demo", RetrievalWeights, seed=int | None, protocol=str)
    assert header["seed"] == 3 and records == [RetrievalWeights(1, 0, 0), RetrievalWeights(0.5, 0.5, 0)]
    with pytest.raises(MalformedDocument, match=r"store\.ndjson: format 'demo', expected 'other'"):
        read_artifact(path, "other", RetrievalWeights)
    with pytest.raises(MalformedDocument, match=r"store\.ndjson: header seed: expected str, got int"):
        read_artifact(path, "demo", RetrievalWeights, seed=str)
    write_ndjson(path, {"format": "demo"}, [*rows, {"alpha": True, "beta": 0, "gamma": 0}])
    with pytest.raises(MalformedDocument,
                       match=r"store\.ndjson: row 3: RetrievalWeights\.alpha: expected float, got bool"):
        read_artifact(path, "demo", RetrievalWeights)


def test_read_artifact_groups_tagged_rows_by_kind(tmp_path):
    def tagged(kind, record):
        return {"kind": kind, **record.to_dict()}

    path = tmp_path / "store.ndjson"
    kinds = {"weights": RetrievalWeights, "caps": GenCaps}
    write_ndjson(path, {"format": "demo"},
                 [tagged("caps", GenCaps(b1=8)), tagged("weights", RetrievalWeights()), tagged("caps", GenCaps())])
    _, records = read_artifact(path, "demo", kinds)
    assert records == {"weights": [RetrievalWeights()], "caps": [GenCaps(b1=8), GenCaps()]}
    for bad in ({"alpha": 1}, {"kind": "nope"}, {"kind": ["caps"]}, [1]):
        write_ndjson(path, {"format": "demo"}, [tagged("caps", GenCaps()), bad])
        with pytest.raises(MalformedDocument, match=r"store\.ndjson: row 2: kind .* is not one of weights, caps"):
            read_artifact(path, "demo", kinds)


# --- the encoder and the typed loader -------------------------------------------------


PERSISTED = (EntityNode, ActivityNode, ProcessGraph, ProcessSummary, StepEntry, BenchItem, GenCaps,
             FieldMap, RetrievalWeights, RetrievedPrecedent, ScoringConfig, OptionScores,
             PolicyConfig, EvalReport, ChatExchange, RunConfig, Tally, AblationRow, SplitRow,
             AuditRow, ProcessRow, TransitionRow, PrefixRow)


@functools.lru_cache(maxsize=None)
def run_objects() -> dict[type, list]:
    """One object or more of every persisted class, from a small pipeline run."""
    docs = [to_prov_document(g) for g in generate_synthetic_corpus(SynthParams(n_records=12), seed=5)]
    graphs = [compile_graph(parse_record(doc)) for doc in docs]
    items, _ = generate_benchmark(graphs, seed=3)
    memory = build_memory(graphs, split_id="jsonio-tests")
    precedents = retrieve(query_from_item(items[0]), memory, k=3)
    sym = score_options_symbolic(items[0], precedents, memory)
    neu = score_options_neural(items[0], precedents, memory)
    cfg = RunConfig().merged({"lam": 1, "runner": {"budgets": {"answer": 10}},
                              "scoring": {"top_m": 4}, "endpoints": {"chat_url": "http://x"},
                              "axes": ["module"], "caps": {"b1": 8}})
    config = cfg.policy_config()
    report, _ = evaluate(items[:6], memory, config)
    exchange = MockChatClient().complete([{"role": "user", "content": "q"}], max_new_tokens=16)
    return {
        EntityNode: graphs[0].entities(),
        ActivityNode: graphs[0].activities,
        ProcessGraph: graphs,
        ProcessSummary: memory.processes,
        StepEntry: memory.step_library,
        BenchItem: items,
        GenCaps: [GenCaps(), GenCaps(b1=8)],
        FieldMap: [FieldMap(), FieldMap(label_keys=("name",))],
        RetrievalWeights: [RetrievalWeights(), RetrievalWeights(1, 0, 0)],
        RetrievedPrecedent: precedents,
        ScoringConfig: [ScoringConfig(), config.scoring],
        OptionScores: [sym, neu, fuse_scores(sym, neu, 0.5)],
        PolicyConfig: [PolicyConfig(), config],
        EvalReport: [report],
        ChatExchange: [exchange],
        RunConfig: [RunConfig(), cfg],
        Tally: [report.overall, *report.per_task.values()],
        AblationRow: [AblationRow("scoring", "lambda=0.5", dataclasses.replace(report, wall_clock_s=0.0))],
        SplitRow: [SplitRow(*pair) for pair in split_items(items, "year").mapping.items()],
        AuditRow: [AuditRow("dual", "year", 0.25), AuditRow("random", "random", 1)],
        ProcessRow: [ProcessRow(**p.to_dict(),
                                embeddings={kind: m[i].tolist() for kind, m in memory.vectors.items()})
                     for i, p in enumerate(memory.processes)],
        TransitionRow: [TransitionRow(a, b, c) for (a, b), c in memory.transition_table.items()],
        PrefixRow: [PrefixRow(window, dict(counts)) for window, counts in memory.prefix_index.items()],
    }


def _persisted_only(x):
    """``x`` as a round trip returns it: transient fields back at their defaults."""
    if isinstance(x, ProcessGraph):
        return dataclasses.replace(x, warnings=[])
    if isinstance(x, EvalReport):
        return dataclasses.replace(x, wall_clock_s=0.0)
    return x


@pytest.mark.parametrize("cls", PERSISTED, ids=lambda c: c.__name__)
def test_every_persisted_class_round_trips(cls):
    objects = run_objects()[cls]
    assert objects
    for x in objects:
        back, want = cls.from_dict(json.loads(dumps_line(x))), _persisted_only(x)
        assert back == want
        assert x.to_dict() == json.loads(dumps_line(x))


def test_every_record_class_is_covered():
    def subclasses(c):
        return {c, *(s for sub in c.__subclasses__() for s in subclasses(sub))}

    assert subclasses(Record) - {Record} == set(PERSISTED) == set(run_objects())


def test_transient_fields_are_neither_written_nor_read():
    g = ProcessGraph(record_id="g1", warnings=["dangling edge"])
    assert "warnings" not in json.loads(dumps_line(g))
    with pytest.raises(MalformedDocument, match=r"ProcessGraph: unknown keys \['warnings'\]"):
        ProcessGraph.from_dict({"record_id": "g1", "warnings": []})
    report = EvalReport(split_id="s", policy={}, per_task={}, overall={}, wall_clock_s=2.5)
    assert "wall_clock_s" not in report.to_dict()


def test_dataclasses_nest_and_tuples_become_lists_on_the_write_path():
    config = PolicyConfig(weights=RetrievalWeights(1, 0, 0))
    row = json.loads(dumps_line({"kind": "policy", "config": config}))
    assert row["config"]["weights"] == {"alpha": 1, "beta": 0, "gamma": 0}
    assert row["config"]["scoring"]["two_way"] == [0.5, 0.5]
    with pytest.raises(TypeError):
        dumps_line({"x": object()})


def test_loader_keeps_ints_for_floats_and_never_takes_bools_for_numbers():
    weights = RetrievalWeights.from_dict({"alpha": 1, "beta": 0, "gamma": 0.0})
    assert type(weights.alpha) is int and type(weights.gamma) is float
    with pytest.raises(MalformedDocument, match=r"ActivityNode\.source_position: expected int, got bool"):
        ActivityNode.from_dict({"id": "a", "label": "mix", "source_position": True})
    with pytest.raises(MalformedDocument, match=r"RetrievalWeights\.alpha: expected float, got bool"):
        RetrievalWeights.from_dict({"alpha": True, "beta": 0, "gamma": 0})
    with pytest.raises(MalformedDocument, match=r"StepEntry\.position: expected int, got float"):
        StepEntry.from_dict({"graph_id": "g", "activity": "a", "position": 1.0,
                             "norm_position": 0.0})


def test_loader_converts_only_lists_to_tuples_and_objects_to_dataclasses():
    g = ProcessGraph.from_dict({"record_id": "g", "usage_edges": [["e", "a"]],
                                "activities": [{"id": "a", "label": "mix"}]})
    assert g.usage_edges == [("e", "a")]
    assert g.activities == [ActivityNode(id="a", label="mix")]
    assert FieldMap.from_dict({"label_keys": ["name"]}).label_keys == ("name",)
    with pytest.raises(MalformedDocument, match=r"FieldMap\.label_keys: expected tuple\[str, \.\.\.\], got str"):
        FieldMap.from_dict({"label_keys": "name"})
    row = {"graph_id": "g", "route": ("a",), "precursors": [], "products": [], "tools": []}
    with pytest.raises(MalformedDocument, match=r"ProcessSummary\.route: expected list\[str\], got tuple"):
        check_fields(ProcessSummary, row)


def test_loader_interns_every_string_and_dict_key():
    def fresh(text):  # an equal string that is not the interned one
        return "".join(list(text))

    row = json.loads(json.dumps({
        "graph_id": "g1", "activity": "mill", "position": 0, "norm_position": 0.0,
        "prev_activity": "weigh", "tools": ["ball mill"], "conditions": {"speed": "300 rpm"},
    }))
    entry = StepEntry.from_dict(row)
    strings = [entry.graph_id, entry.activity, entry.prev_activity, *entry.tools,
               *entry.conditions, *entry.conditions.values()]
    assert strings == ["g1", "mill", "weigh", "ball mill", "speed", "300 rpm"]
    assert all(s is sys.intern(fresh(s)) for s in strings)
    prefix = PrefixRow.from_dict(json.loads('{"prefix": ["mill", "sinter"], "next": {"anneal": 2}}'))
    assert all(s is sys.intern(fresh(s)) for s in [*prefix.prefix, *prefix.next])


@pytest.mark.parametrize(
    "row, message",
    [
        ([], r"ProcessGraph: expected an object, got list"),
        ({}, r"ProcessGraph: missing keys \['record_id'\]"),
        ({"record_id": "g", "galaxy": 1}, r"ProcessGraph: unknown keys \['galaxy'\]"),
        ({"record_id": "g", "year": "2019"}, r"ProcessGraph\.year: expected int \| None, got str"),
        ({"record_id": "g", "usage_edges": [["e"]]},
         r"ProcessGraph\.usage_edges: expected list\[tuple\[str, str\]\], got list"),
        ({"record_id": "g", "activities": [{"id": "a", "label": "x", "galaxy": 1}]},
         r"ActivityNode: unknown keys \['galaxy'\]"),
        ({"record_id": "g", "activities": [{"id": "a", "label": "x", "conditions": {"t": 5}}]},
         r"ActivityNode\.conditions: expected dict\[str, str\], got dict"),
        ({"record_id": "g", "tool_entities": [3]},
         r"ProcessGraph\.tool_entities: expected list\[EntityNode\], got list"),
    ],
)
def test_loader_errors_name_the_class_the_key_and_the_type(row, message):
    with pytest.raises(MalformedDocument, match=message):
        ProcessGraph.from_dict(row)


def test_configuration_classes_raise_a_usage_error():
    with pytest.raises(ConfigConflict, match=r"ScoringConfig\.top_m: expected int, got str"):
        RunConfig.from_dict({"scoring": {"top_m": "x"}})
    with pytest.raises(ConfigConflict, match=r"GenCaps: unknown keys \['z'\]"):
        GenCaps.from_dict({"z": 1})


def _src_trees() -> dict[Path, ast.Module]:
    root = Path(matproc.__file__).parent
    return {p.relative_to(root): ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(root.rglob("*.py"))}


def test_no_class_but_the_shared_base_writes_its_own_serializer():
    offenders = [
        f"{path}:{node.name}.{item.name}"
        for path, tree in _src_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name != "Record"
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name in ("to_dict", "from_dict")
    ]
    assert offenders == []


def test_nothing_writes_through_dataclasses_asdict():
    uses = [
        str(path)
        for path, tree in _src_trees().items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "asdict")
        or (isinstance(node, ast.alias) and node.name == "asdict")
    ]
    assert uses == []
