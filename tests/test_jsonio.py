"""NDJSON stores: header checks, streaming reads, and error locations."""

from __future__ import annotations

import pytest

from matproc.errors import MalformedDocument
from matproc.jsonio import iter_ndjson, read_ndjson, write_ndjson


def test_round_trip_and_streaming_agree(tmp_path):
    path = tmp_path / "store.ndjson"
    rows = [{"b": 2, "a": 1}, {"x": [1.5, None]}]
    assert write_ndjson(path, {"format": "demo", "version": 1}, rows) == 2
    header, read_rows = read_ndjson(path)
    assert header == {"format": "demo", "version": 1}
    assert read_rows == rows
    assert list(iter_ndjson(path)) == rows


def test_read_ndjson_names_the_bad_line(tmp_path):
    path = tmp_path / "store.ndjson"
    path.write_text('{"format": "demo"}\n{"a": 1}\n\n{"b": \n{"c": 3}\n')
    with pytest.raises(MalformedDocument, match=r"line 4: invalid JSON"):
        read_ndjson(path)


def test_iter_ndjson_yields_rows_before_reading_further(tmp_path):
    path = tmp_path / "store.ndjson"
    path.write_text('{"format": "demo"}\n{"a": 1}\nnot json\n')
    rows = iter_ndjson(path)
    assert next(rows) == {"a": 1}  # served before the bad line is parsed
    with pytest.raises(MalformedDocument, match="line 3"):
        next(rows)


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
        next(iter_ndjson(path))
