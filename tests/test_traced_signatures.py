"""The argument positions that perfbench's tracer reads.

``perfbench/tracing.py`` reads some arguments of the functions it wraps by
position (its ``_arg(args, kwargs, index, name)``): re-signing one of them
would silently empty its metric, so each position is pinned here.
"""

from __future__ import annotations

import inspect

import pytest

from matproc import jsonio, memory, retrieval, runner

# (function, index, name), as the tracer reads them
READ_BY_POSITION = [
    (retrieval.retrieve, 1, "memory"),
    (memory.match_steps, 0, "memory"),
    (jsonio.read_ndjson, 0, "path"),
    (runner._answer_item, 0, "item"),
    (retrieval.BuiltinTextEmbedder.embed, 1, "texts"),
]


@pytest.mark.parametrize("function, index, name", READ_BY_POSITION,
                         ids=[f.__qualname__ for f, _, _ in READ_BY_POSITION])
def test_the_tracer_reads_each_argument_at_its_position(function, index, name):
    params = list(inspect.signature(function).parameters.values())
    assert len(params) > index and params[index].name == name
    assert params[index].kind in (params[index].POSITIONAL_ONLY, params[index].POSITIONAL_OR_KEYWORD)
