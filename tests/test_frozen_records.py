"""The records graphs and memories are made of are values.

Every dataclass of ``matproc.provgraph.model``, and the memory's
``ProcessSummary`` and ``StepEntry``, is frozen and annotates no ``list``,
``dict`` or ``set`` at any depth: its sequences are tuples and its mappings
read-only, so nothing it holds can change once it is built.
"""

from __future__ import annotations

import dataclasses
import inspect
import typing
from collections.abc import Mapping

import pytest

from matproc.memory import ProcessSummary, StepEntry
from matproc.provgraph import model

VALUE_RECORDS = [cls for _, cls in inspect.getmembers(model, inspect.isclass)
                 if dataclasses.is_dataclass(cls) and cls.__module__ == model.__name__]
VALUE_RECORDS += [ProcessSummary, StepEntry]


def mutable_containers(tp) -> list[type]:
    """The list, dict and set types annotation ``tp`` names, at any depth."""
    origin = typing.get_origin(tp) or tp
    found = [origin] if origin in (list, dict, set) else []
    return found + [c for arg in typing.get_args(tp) for c in mutable_containers(arg)]


def test_the_check_sees_a_mutable_container_at_any_depth():
    assert mutable_containers(list) == [list]
    assert mutable_containers(list[str]) == [list]
    assert mutable_containers(tuple[dict[str, str], ...]) == [dict]
    assert mutable_containers(dict[str, set[int]] | None) == [dict, set]
    assert mutable_containers(tuple[tuple[str, str], ...]) == []
    assert mutable_containers(Mapping[str, str]) == []


def test_the_value_records_are_the_graph_and_memory_records():
    assert sorted(cls.__name__ for cls in VALUE_RECORDS) == [
        "ActivityNode", "EntityNode", "ProcessGraph", "ProcessSummary", "StepEntry"]


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=lambda cls: cls.__name__)
def test_a_value_record_is_frozen_and_annotates_no_mutable_container(cls):
    assert cls.__dataclass_params__.frozen
    hints = typing.get_type_hints(cls)
    assert {f.name: hints[f.name] for f in dataclasses.fields(cls)
            if mutable_containers(hints[f.name])} == {}
