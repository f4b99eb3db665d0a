"""NDJSON stores (header checks, streaming reads, error locations), the
encoder and the typed loader."""

from __future__ import annotations

import ast
import dataclasses
import functools
import json
import math
import re
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matproc
from matproc.chat import ChatExchange, MockChatClient
from matproc.config import RunConfig
from matproc.errors import ConfigConflict, InvalidParams, MalformedDocument
from matproc.jsonio import (
    MAX_DEPTH,
    Record,
    _nesting,
    check_fields,
    dumps_line,
    loads,
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



# --- the decoder -------------------------------------------------------------------


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
     1.7976931348623157e308, 1e-05, 1e16, 0.1 + 0.2])


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.lists(FINITE_FLOATS, min_size=1, max_size=20))
def test_every_finite_float_reads_back_to_the_bits_it_was_written_from(values):
    back = loads(dumps_line(values))
    assert [struct.pack("<d", x) for x in back] == [struct.pack("<d", x) for x in values]
    assert all(type(x) is float for x in back)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_the_writer_refuses_a_non_finite_float_instead_of_writing_it(tmp_path, value):
    for row in ({"x": value}, {"x": [1.0, value]}, np.array([0.5, value])):
        with pytest.raises(ValueError, match="Out of range float"):
            dumps_line(row)
    path = tmp_path / "store.ndjson"
    with pytest.raises(MalformedDocument, match=f"{re.escape(str(path))}: row 2: Out of range float"):
        write_ndjson(path, {"format": "demo"}, [{"x": 1.0}, {"x": value}])
    assert list(tmp_path.iterdir()) == []  # no file, and no partial one
    write_ndjson(path, {"format": "demo"}, [{"x": 2.0}])
    earlier = path.read_bytes()
    with pytest.raises(MalformedDocument, match=f"{re.escape(str(path))}: row 2: Out of range float"):
        write_ndjson(path, {"format": "demo"}, [{"x": 1.0}, {"x": value}])
    with pytest.raises(MalformedDocument, match=f"{re.escape(str(path))}: header: Out of range float"):
        write_ndjson(path, {"format": "demo", "x": value}, [])
    assert path.read_bytes() == earlier  # the earlier file, whole
    assert list(tmp_path.iterdir()) == [path]


def test_a_write_that_fails_part_way_leaves_the_earlier_file_and_no_other(tmp_path):
    path = tmp_path / "out" / "store.ndjson"
    write_ndjson(path, {"format": "demo"}, [{"x": 1}])
    earlier = path.read_bytes()

    def rows():
        yield {"x": 2}
        raise KeyboardInterrupt  # an interrupt between rows

    with pytest.raises(KeyboardInterrupt):
        write_ndjson(path, {"format": "demo"}, rows())
    assert path.read_bytes() == earlier
    assert list(path.parent.iterdir()) == [path]
    assert write_ndjson(path, {"format": "demo"}, [{"x": 3}, {"x": 4}]) == 2
    assert read_ndjson(path) == ({"format": "demo"}, [{"x": 3}, {"x": 4}])
    assert list(path.parent.iterdir()) == [path]


def test_an_artifact_is_written_with_the_mode_open_gives_a_new_file(tmp_path):
    path = tmp_path / "store.ndjson"
    write_ndjson(path, {"format": "demo"}, [])
    with open(tmp_path / "plain.ndjson", "w"):
        pass
    assert path.stat().st_mode == (tmp_path / "plain.ndjson").stat().st_mode


# --- the writer --------------------------------------------------------------------


ASCII_TEXT = st.text(st.characters(max_codepoint=0x7F), max_size=6)
ANY_TEXT = ASCII_TEXT | st.text(max_size=6)  # no lone surrogate
SCORES = st.lists(FINITE_FLOATS, max_size=4)
SAMPLES = st.builds(OptionScores, ANY_TEXT, SCORES, SCORES, SCORES, SCORES, SCORES, FINITE_FLOATS)
WRITTEN_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**63, 2**64 - 1) | FINITE_FLOATS | ANY_TEXT | SAMPLES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(ANY_TEXT, inner, max_size=4),
    max_leaves=20,
)
WRITTEN_ROWS = st.dictionaries(ANY_TEXT, WRITTEN_VALUES, max_size=5) | SAMPLES


def _bits(value):
    """The decoded ``value`` with each float replaced by its IEEE bytes, so
    ``==`` tells floats apart to the bit and never equates 1 with 1.0."""
    if type(value) is float:
        return struct.pack("<d", value)
    if type(value) is list:
        return list(map(_bits, value))
    if type(value) is dict:
        return {key: _bits(v) for key, v in value.items()}
    return value


def _spelled_alike(value) -> bool:
    """Whether both encoders spell the decoded ``value`` alike: all its text
    is ASCII and no float in it prints in exponent form."""
    if type(value) is float:
        return "e" not in repr(value)
    if type(value) is str:
        return value.isascii()
    if type(value) is list:
        return all(map(_spelled_alike, value))
    if type(value) is dict:
        return all(key.isascii() and _spelled_alike(v) for key, v in value.items())
    return True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(WRITTEN_ROWS, max_size=4))
def test_every_written_line_reads_back_as_its_canonical_encoding(rows):
    header = {"format": "demo", "note": "°"}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.ndjson"
        assert write_ndjson(path, header, rows) == len(rows)
        lines = path.read_bytes().split(b"\n")
    assert lines.pop() == b"" and len(lines) == len(rows) + 1
    for row, line in zip([header, *rows], lines):
        canonical = dumps_line(row)
        assert _bits(loads(line)) == _bits(loads(canonical))
        if _spelled_alike(loads(canonical)):
            assert line == canonical.encode("ascii")


def test_the_file_spells_exponent_floats_and_non_ascii_text_as_orjson_does(tmp_path):
    row = {"t": "800 \u00b0C", "x": [1e-05, 1e16, 5e-324, 0.5]}
    path = tmp_path / "store.ndjson"
    write_ndjson(path, {"format": "demo"}, [row])
    line = path.read_bytes().splitlines()[1]
    assert line == '{"t":"800 °C","x":[0.00001,1e16,5e-324,0.5]}'.encode("utf-8")
    assert dumps_line(row) == '{"t":"800 \\u00b0C","x":[1e-05,1e+16,5e-324,0.5]}'
    assert loads(line) == loads(dumps_line(row)) == row  # both spellings read back alike


@pytest.mark.parametrize(
    "row, line",
    [({"s": "a\ud800"}, b'{"s":"a\\ud800"}'),
     ({"n": 2**64}, b'{"n":18446744073709551616}'),
     ({"n": -2**63 - 1}, b'{"n":-9223372036854775809}'),
     ({1: "a", "b": None}, None),  # the stdlib cannot sort an int key among strings
     ({1: "a", 2: [0.5]}, b'{"1":"a","2":[0.5]}'),
     ({(1, 2): 0}, None)],
    ids=["lone-surrogate", "int-past-64-bits", "int-below-64-bits", "mixed-keys", "int-keys",
         "tuple-key"],
)
def test_a_row_orjson_refuses_is_written_or_refused_as_the_stdlib_encoder_does(tmp_path, row, line):
    path = tmp_path / "store.ndjson"
    if line is None:
        with pytest.raises(TypeError):
            write_ndjson(path, {"format": "demo"}, [row])
        assert list(tmp_path.iterdir()) == []
    else:
        write_ndjson(path, {"format": "demo"}, [row])
        assert path.read_bytes() == b'{"format":"demo"}\n' + line + b"\n"


def test_the_decoder_keeps_64_bit_ints_and_reads_wider_ones_as_floats():
    for n in (0, -1, -2**63, 2**63 - 1, 2**64 - 1):
        assert type(loads(str(n))) is int and loads(str(n)) == n
    assert type(loads(str(2**64))) is float
    with pytest.raises(ValueError):
        loads("1" + "0" * 400)  # past float range


def _depth(value) -> int:
    if type(value) in (list, dict):
        return 1 + max(map(_depth, value.values() if type(value) is dict else value), default=0)
    return 0


BRACKETY_TEXT = st.text(alphabet='[]{}"\\,:ab\u00e9', max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.integers() | FINITE_FLOATS | BRACKETY_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(BRACKETY_TEXT, inner, max_size=3),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(JSON_VALUES, st.booleans())
def test_the_nesting_bound_counts_no_bracket_inside_a_string(value, ensure_ascii):
    assert _nesting(json.dumps(value, ensure_ascii=ensure_ascii).encode()) == _depth(value)


def test_the_decoder_refuses_nesting_past_its_bound():
    assert loads(b"[" * MAX_DEPTH + b"]" * MAX_DEPTH)
    assert loads(json.dumps(["[" * 5000, "{" * 5000]))  # brackets in strings do not nest
    for deep in (b"[" * (MAX_DEPTH + 1) + b"]" * (MAX_DEPTH + 1),
                 b'{"a":' * (MAX_DEPTH + 1) + b"1" + b"}" * (MAX_DEPTH + 1),
                 b"[" * 1_000_000):
        with pytest.raises(ValueError, match=f"nest deeper than {MAX_DEPTH}"):
            loads(deep)

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
    header, records = read_artifact(path, "demo", RetrievalWeights.from_dict, seed=int | None,
                                    protocol=str)
    assert header["seed"] == 3 and records == [RetrievalWeights(1, 0, 0), RetrievalWeights(0.5, 0.5, 0)]
    with pytest.raises(MalformedDocument, match=r"store\.ndjson: format 'demo', expected 'other'"):
        read_artifact(path, "other", RetrievalWeights.from_dict)
    with pytest.raises(MalformedDocument, match=r"store\.ndjson: header seed: expected str, got int"):
        read_artifact(path, "demo", RetrievalWeights.from_dict, seed=str)
    write_ndjson(path, {"format": "demo"}, [*rows, {"alpha": True, "beta": 0, "gamma": 0}])
    with pytest.raises(MalformedDocument,
                       match=r"store\.ndjson: row 3: RetrievalWeights\.alpha: expected float, got bool"):
        read_artifact(path, "demo", RetrievalWeights.from_dict)


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
    if isinstance(x, EntityNode):
        return dataclasses.replace(x, role=None)
    if isinstance(x, ProcessGraph):
        return dataclasses.replace(x, warnings=[], ordered_activity_ids=[],
                                   material_entities=list(map(_persisted_only, x.material_entities)),
                                   tool_entities=list(map(_persisted_only, x.tool_entities)))
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


def test_a_declared_range_is_checked_however_the_record_is_built():
    outside = r"^ScoringConfig\.top_m: 0 is outside \[1, inf\)$"
    with pytest.raises(InvalidParams, match=outside):
        ScoringConfig(top_m=0)
    with pytest.raises(InvalidParams, match=outside):
        dataclasses.replace(ScoringConfig(), top_m=0)
    with pytest.raises(InvalidParams, match=outside):
        ScoringConfig.from_dict({"top_m": 0})
    with pytest.raises(InvalidParams, match=outside):
        RunConfig().merged({"scoring": {"top_m": 0}})
    with pytest.raises(InvalidParams, match=r"^SynthParams\.p_branch: 1\.5 is outside \[0, 1\]$"):
        SynthParams(p_branch=1.5)
    with pytest.raises(InvalidParams, match=r"^SynthParams\.class_mix\['battery'\]: -0\.1 is outside"):
        SynthParams(class_mix={"battery": -0.1, "magnetic": 1.0})
    with pytest.raises(InvalidParams, match=r"^GenCaps\.d: -1 is outside \[0, inf\)$"):
        GenCaps(d=-1)
    with pytest.raises(InvalidParams, match=r"^PolicyConfig\.lam: nan is outside \[0, 1\]$"):
        PolicyConfig(lam=float("nan"))


def test_the_ends_of_a_range_are_in_it_and_an_open_end_is_not():
    assert RunConfig(dev_ratio=0.0, k_options=2).k_options == 2
    assert RunConfig(k_options=8, ratios=(1, 0, 0)).ratios == (1.0, 0.0, 0.0)
    assert PolicyConfig(lam=0).lam == 0 and PolicyConfig(lam=1.0).lam == 1.0
    with pytest.raises(InvalidParams, match=r"^RunConfig\.dev_ratio: 1\.0 is outside \[0, 1\)$"):
        RunConfig(dev_ratio=1.0)
    assert SynthParams(year_range=(-5, 10**6), route_length_range=(1, 1)).year_range == (-5, 10**6)


def test_public_functions_check_raw_values_against_the_declared_ranges():
    with pytest.raises(InvalidParams, match=r"^PolicyConfig\.lam: 1\.5 is outside \[0, 1\]$"):
        fuse_scores(None, None, lam=1.5)


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
