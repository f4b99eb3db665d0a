"""Property tests: on any JSON document, parsing plus compiling either raises a
DataError subclass or returns a graph that passes ``validate_graph``."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matproc.errors import DataError, MalformedDocument
from matproc.provgraph import compile_graph, parse_record, validate_graph

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

IDS = st.sampled_from(["e1", "e2", "e3", "a1", "a2", "t1"])
KEYS = st.sampled_from([
    "@graph", "@id", "@type", "id", "type", "entity", "activity", "used", "prov:used",
    "wasGeneratedBy", "prov:wasGeneratedBy", "qualifiedUsage", "prov:entity", "prov:activity",
    "prov:label", "label", "name", "doi", "year", "material_class", "metadata", "category",
    "tool", "is_tool", "temperature", "duration", "atmosphere", "form", "@value", "$",
]) | st.text(max_size=4)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.text(max_size=8)
    | IDS
    | st.sampled_from(["inf", "-inf", "nan", "1e400", "2019", " 300 C ", "tool", "prov:Entity",
                      "prov:Activity", "prov:Usage", "prov:Generation", "battery"])
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=12,
)
REF = IDS | st.fixed_dictionaries({"@id": IDS}) | st.fixed_dictionaries({"$": IDS}) | JSON
TYPES = st.sampled_from(["prov:Entity", "prov:Activity", "prov:Usage", "prov:Generation",
                         "Entity", "activity", "equipment"])
NODE = st.fixed_dictionaries(
    {"@id": IDS | JSON, "@type": TYPES | st.lists(TYPES, max_size=2) | JSON},
    optional={
        "prov:label": SCALARS | JSON,
        "used": REF | st.lists(REF, max_size=3),
        "wasGeneratedBy": REF | st.lists(REF, max_size=3),
        "prov:entity": REF,
        "prov:activity": REF,
        "temperature": SCALARS,
        "category": SCALARS,
        "tool": SCALARS,
    },
)
RELATION = st.fixed_dictionaries({"prov:entity": REF, "prov:activity": REF}) | JSON
META = {"@id": JSON, "doi": JSON, "year": SCALARS | JSON, "material_class": JSON,
        "metadata": st.dictionaries(KEYS, SCALARS, max_size=3) | JSON}
JSONLD = st.fixed_dictionaries(
    {"@graph": st.lists(NODE | JSON, max_size=8) | JSON}, optional=META
)
FLAT = st.fixed_dictionaries(
    {},
    optional={
        "entity": st.dictionaries(IDS, NODE | JSON, max_size=4) | JSON,
        "activity": st.dictionaries(IDS, NODE | JSON, max_size=4) | JSON,
        "used": st.dictionaries(st.text(max_size=3), RELATION, max_size=4) | JSON,
        "wasGeneratedBy": st.dictionaries(st.text(max_size=3), RELATION, max_size=4) | JSON,
        **META,
    },
)


def parses_or_rejects(document) -> None:
    try:
        g = compile_graph(parse_record(document))
    except DataError:
        return
    validate_graph(g)


@PROPERTY
@given(JSON)
def test_arbitrary_json_parses_or_raises_data_error(doc):
    parses_or_rejects(doc)
    parses_or_rejects(json.dumps(doc))


@PROPERTY
@given(JSONLD)
def test_jsonld_shaped_documents_parse_or_raise_data_error(doc):
    parses_or_rejects(doc)


@PROPERTY
@given(FLAT)
def test_flat_shaped_documents_parse_or_raise_data_error(doc):
    parses_or_rejects(doc)


@pytest.mark.parametrize("document", [None, [1, 2], 3, 2.5, True, "null", "[1, 2]", b"7"])
def test_non_object_documents_are_malformed(document):
    with pytest.raises(MalformedDocument):
        parse_record(document)
