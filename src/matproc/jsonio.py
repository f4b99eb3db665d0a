"""Newline-delimited JSON stores with a self-describing header line, and
the one encoder and typed loader every persisted dataclass goes through.

Every artifact file the pipeline emits uses this layout:

    {"format": "<name>", "version": 1, ...header fields...}
    {...record...}
    {...record...}

Writers are deterministic (sorted keys) so identical inputs produce
byte-identical files. A :class:`Record` dataclass is written as its
persisted fields and read back by ``from_dict``, which checks every value
against the field's annotation; :func:`read_artifact` reads every
artifact that way, after checking its header.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from . import __version__
from .errors import MalformedDocument

FORMAT_VERSION = 1

# Field metadata for state kept in memory but never written or read.
TRANSIENT = {"persist": False}


@functools.cache
def _persisted(cls) -> tuple[dataclasses.Field, ...]:
    return tuple(f for f in dataclasses.fields(cls) if f.metadata.get("persist", True))


def record_fields(obj) -> dict:
    """The persisted fields of a dataclass by name: the writer's ``default=``
    hook, so nested records and tuples need no conversion first. Raises
    TypeError for anything else, as the hook must."""
    return {f.name: getattr(obj, f.name) for f in _persisted(type(obj))}


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=record_fields)


def dumps_line(obj: Any) -> str:
    """Compact, sorted-key JSON; dataclasses are written as their persisted fields."""
    return _ENCODER.encode(obj)


class Record:
    """Base of every persisted dataclass."""

    # what a malformed row raises; configuration classes raise a usage error
    load_error: type[Exception] = MalformedDocument

    def to_dict(self) -> dict:
        """The row :func:`write_ndjson` writes, as plain JSON values."""
        return json.loads(dumps_line(self))

    @classmethod
    def from_dict(cls, d: dict):
        """``cls`` built from one JSON row; raises ``cls.load_error`` when the
        row does not fit (see :func:`check_fields`)."""
        try:
            return cls(**check_fields(cls, d))
        except MalformedDocument as exc:
            raise cls.load_error(str(exc)) from None


# --- typed loading ---------------------------------------------------------------


class _Mismatch(Exception):
    """A value does not have its field's declared type."""


_STR = frozenset({str})


def _plan(tp) -> tuple[frozenset, Callable[[Any], Any] | None]:
    """For annotation ``tp``: the exact JSON types a value may have (a bool
    is never a number; an int is a float, kept as given), and a check of
    what lies inside that makes lists tuples and objects dataclasses where
    declared, or None when there is nothing inside to check."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return frozenset({dict}), lambda v: tp(**check_fields(tp, v))
    if origin is types.UnionType:  # only `X | None` occurs
        accepted, inner = _plan(args[0])
        return accepted | {type(None)}, inner and (lambda v: None if v is None else inner(v))
    if origin is None:
        return frozenset({int, float} if tp is float else {tp}), None
    # list[X], dict[str, X], tuple[X, ...] or a fixed-length tuple[X, X, ...]
    item_types, item_inner = _plan(args[-1] if origin is dict else args[0])
    length = len(args) if origin is tuple and args[-1] is not Ellipsis else None

    def check(v):
        items = v.values() if origin is dict else v
        if (not item_types.issuperset(map(type, items)) or length not in (None, len(v))
                or (origin is dict and not _STR.issuperset(map(type, v)))):
            raise _Mismatch
        if item_inner is not None:
            return dict(zip(v, map(item_inner, items))) if origin is dict else origin(map(item_inner, v))
        return v if type(v) is origin else origin(v)

    return frozenset({list, tuple} if origin is tuple else {origin}), check


@functools.cache
def _class_plan(cls) -> tuple[dict[str, tuple], frozenset[str]]:
    """Per persisted field, its :func:`_plan` and written annotation; and
    the fields a row must hold."""
    hints = typing.get_type_hints(cls)
    fields = _persisted(cls)
    plans = {f.name: (*_plan(hints[f.name]), f.type) for f in fields}
    required = {f.name for f in fields
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING}
    return plans, frozenset(required)


def check_fields(cls, row) -> dict:
    """The keyword arguments of ``cls`` that ``row`` holds, each checked
    against its annotation. Unknown and missing keys raise
    :class:`MalformedDocument`; JSON lists become tuples where a tuple is
    declared and objects become nested dataclasses; nothing else converts."""
    plans, required = _class_plan(cls)
    where = cls.__name__
    if type(row) is not dict:
        raise MalformedDocument(f"{where}: expected an object, got {type(row).__name__}")
    if not row.keys() <= plans.keys():
        raise MalformedDocument(f"{where}: unknown keys {sorted(row.keys() - plans.keys())}")
    if not required <= row.keys():
        raise MalformedDocument(f"{where}: missing keys {sorted(required - row.keys())}")
    kwargs = dict(row)
    for key, value in row.items():
        accepted, inner, expected = plans[key]
        try:
            if type(value) not in accepted:
                raise _Mismatch
            if inner is not None:
                kwargs[key] = inner(value)
        except _Mismatch:
            got = "null" if value is None else type(value).__name__
            raise MalformedDocument(f"{where}.{key}: expected {expected}, got {got}") from None
    return kwargs


# --- NDJSON files ------------------------------------------------------------------


def artifact_header(fmt: str, **fields) -> dict:
    """The header line of an artifact of format ``fmt``."""
    return {"format": fmt, "version": FORMAT_VERSION, "tool_version": __version__, **fields}


def write_ndjson(path: str | Path, header: dict, rows: Iterable) -> int:
    """Write header + rows (dicts or dataclasses); returns the number of rows written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with path.open("w", encoding="utf-8") as fh:
        fh.write(dumps_line(header) + "\n")
        for row in rows:
            fh.write(dumps_line(row) + "\n")
            n += 1
    return n


def _records(path: Path, fh) -> Iterator[dict]:
    """Header, then rows, parsed one line at a time; blank lines skipped."""
    for lineno, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedDocument(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
        yield record


def _header(path: Path, records: Iterator[dict]) -> dict:
    header = next(records, None)
    if header is None:
        raise MalformedDocument(f"{path}: empty file")
    if not isinstance(header, dict) or "format" not in header:
        raise MalformedDocument(f"{path}: missing format header line")
    return header


def read_ndjson(path: str | Path) -> tuple[dict, list[dict]]:
    """Read header + rows. Raises MalformedDocument, naming the line, on
    non-JSON lines."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        records = _records(path, fh)
        return _header(path, records), list(records)


def read_header(path: str | Path) -> dict:
    """The header line alone."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        return _header(path, _records(path, fh))


def read_artifact(path: str | Path, fmt: str, row_type, **header_types) -> tuple[dict, list | dict]:
    """Header and records of the artifact at ``path``: its ``format`` must be
    ``fmt``, each header field in ``header_types`` must have that type where
    present, and each row is built by ``row_type.from_dict``. In a file of
    several row types, ``row_type`` maps each row's ``kind`` to the type of
    its other fields, and the records come back as one list per kind.
    Raises :class:`MalformedDocument` naming the file and the row."""
    header, rows = read_ndjson(path)
    if header["format"] != fmt:
        raise MalformedDocument(f"{path}: format {header['format']!r}, expected {fmt!r}")
    for key, tp in header_types.items():
        if key in header and type(header[key]) not in _plan(tp)[0]:
            raise MalformedDocument(
                f"{path}: header {key}: expected {getattr(tp, '__name__', tp)}, "
                f"got {type(header[key]).__name__}"
            )
    kinds = row_type if isinstance(row_type, dict) else None
    records: list | dict = [] if kinds is None else {kind: [] for kind in kinds}
    for n, row in enumerate(rows, start=1):
        try:
            if kinds is None:
                records.append(row_type.from_dict(row))
                continue
            kind = row.pop("kind", None) if type(row) is dict else None
            if type(kind) is not str or kind not in kinds:
                raise MalformedDocument(f"kind {kind!r} is not one of {', '.join(kinds)}")
            records[kind].append(kinds[kind].from_dict(row))
        except MalformedDocument as exc:
            raise MalformedDocument(f"{path}: row {n}: {exc}") from None
    return header, records


def iter_ndjson(path: str | Path) -> Iterator[dict]:
    """Stream rows (header checked, then skipped) one line at a time."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        records = _records(path, fh)
        _header(path, records)
        yield from records
