"""Newline-delimited JSON stores with a self-describing header line, and
the one encoder and typed loader every persisted dataclass goes through.

Every artifact file the pipeline emits uses this layout:

    {"format": "<name>", "version": 1, ...header fields...}
    {...record...}
    {...record...}

orjson writes every file (:func:`write_ndjson`) and reads it back
(:func:`loads`). Writers are deterministic (sorted keys) so identical
inputs produce byte-identical files. Every line is strict RFC 8259 JSON in
UTF-8: the writer refuses NaN and infinities, and :func:`loads`, the one
decoder, refuses them too, as it does lone surrogates and bytes that are
not UTF-8. A :class:`Record` dataclass is written as its persisted fields
and read back by ``from_dict``, which checks every value against the
field's annotation; :func:`read_artifact` reads every artifact that way,
after checking its header.

:func:`dumps_line`, the stdlib encoder, is the canonical spelling that
hashes are taken over (``canon.stable_hash``: every ``config_hash``,
``prompt_sha`` and ``response_sha``). Its spelling differs from the
files' in two ways, and both read back to equal values: it writes
exponent-form floats as Python prints them (``1e-05`` where a file holds
``0.00001``) and non-ASCII text as ``\\uXXXX`` escapes where a file holds
UTF-8. It also writes the rows orjson refuses (see :func:`_file_line`).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import secrets
import types
import typing
from pathlib import Path
from sys import intern
from typing import Any, Callable, Iterable, Iterator

import numpy as np
import orjson

from . import __version__
from .errors import InvalidParams, MalformedDocument

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


def _encode_default(obj) -> dict | list:
    # an array is written as its list, whose floats have the same repr
    return obj.tolist() if type(obj) is np.ndarray else record_fields(obj)


# the stdlib encoder: the canonical spelling hashes are taken over
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False,
                            default=_encode_default)


def dumps_line(obj: Any) -> str:
    """Compact, sorted-key, ASCII JSON; dataclasses are written as their
    persisted fields and arrays as lists. Raises ValueError on a NaN or an
    infinity."""
    return _ENCODER.encode(obj)


_ORJSON_OPTIONS = orjson.OPT_SORT_KEYS | orjson.OPT_PASSTHROUGH_DATACLASS | orjson.OPT_APPEND_NEWLINE


def _file_line(obj: Any) -> bytes:
    """One line of an artifact file: ``obj`` encoded by orjson, as
    :func:`dumps_line` would encode it up to the spelling of exponent-form
    floats and non-ASCII text. A value orjson refuses (an integer past 64
    bits, a key that is not a string, a lone surrogate) and a line holding
    ``null``, which is how orjson writes NaN and infinities, are encoded by
    :func:`dumps_line` instead, which writes them or raises as it always has."""
    try:
        line = orjson.dumps(obj, default=_encode_default, option=_ORJSON_OPTIONS)
        if b"null" not in line:
            return line
    except TypeError:
        pass
    return (dumps_line(obj) + "\n").encode("ascii")


# How deep arrays and objects may nest in a decoded value. The decoder
# recurses on the C stack, so a line nesting some 40 000 deep would crash
# the process; no artifact or record comes near this bound.
MAX_DEPTH = 1024
_NOT_BRACKETS = bytes(sorted(set(range(256)) - set(b"[]{}")))
_DEPTH_STEPS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")


def _nesting(text: bytes) -> int:
    """How deep arrays and objects nest in the JSON text ``text``: its
    brackets outside strings, once escaped backslashes and quotes are gone."""
    outside = text.replace(b"\\\\", b"").replace(b'\\"', b"").split(b'"')[::2]
    steps = b"".join(outside).translate(_DEPTH_STEPS, _NOT_BRACKETS)
    return int(np.frombuffer(steps, np.int8).cumsum().max(initial=0))


def loads(text: bytes | str) -> Any:
    """The value of one JSON text, read as :func:`write_ndjson` or
    :func:`dumps_line` wrote it (every float to the same bits). Raises
    ValueError, a :class:`json.JSONDecodeError` for invalid JSON, unless
    ``text`` is strict RFC 8259 JSON in UTF-8 that nests arrays and objects
    at most :data:`MAX_DEPTH` deep."""
    if type(text) is str:
        text = text.encode("utf-8", "surrogatepass")  # a lone surrogate stays invalid
    if (len(text) > MAX_DEPTH and text.count(b"[") + text.count(b"{") > MAX_DEPTH
            and _nesting(text) > MAX_DEPTH):
        raise ValueError(f"arrays and objects nest deeper than {MAX_DEPTH}")
    return orjson.loads(text)


class Record:
    """Base of every persisted dataclass."""

    # what a malformed row raises; configuration classes raise a usage error
    load_error: type[Exception] = MalformedDocument

    def to_dict(self) -> dict:
        """The row :func:`write_ndjson` writes, as plain JSON values."""
        return loads(_file_line(self))

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
    declared, or None when there is nothing inside to check. Strings,
    dict keys included, come back interned: the labels and graph ids a
    store repeats are then held once."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return frozenset({dict}), lambda v: tp(**check_fields(tp, v))
    if origin is types.UnionType and type(None) not in args:
        return frozenset({dict}), None  # a union of records: the owner builds the right one
    if origin is types.UnionType:  # `X | None`
        accepted, inner = _plan(args[0])
        return accepted | {type(None)}, inner and (lambda v: None if v is None else inner(v))
    if origin is None:
        return frozenset({int, float} if tp is float else {tp}), intern if tp is str else None
    # list[X], dict[str, X], tuple[X, ...] or a fixed-length tuple[X, X, ...]
    item_types, item_inner = _plan(args[-1] if origin is dict else args[0])
    length = len(args) if origin is tuple and args[-1] is not Ellipsis else None

    def check(v):
        items = v.values() if origin is dict else v
        if (not item_types.issuperset(map(type, items)) or length not in (None, len(v))
                or (origin is dict and not _STR.issuperset(map(type, v)))):
            raise _Mismatch
        if origin is dict:
            return dict(zip(map(intern, v), items if item_inner is None else map(item_inner, items)))
        if item_inner is not None:
            return origin(map(item_inner, v))
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
    declared and objects become nested dataclasses; strings are interned;
    nothing else converts."""
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


def knob(default, bounds: str = "(-inf, inf)"):
    """A dataclass field of a number, or of a tuple or dict of numbers, that
    declares the interval each of them must lie in, such as ``"[0, 1)"``."""
    if type(default) is dict:  # every instance gets its own copy
        return dataclasses.field(default_factory=lambda: dict(default), metadata={"range": bounds})
    return dataclasses.field(default=default, metadata={"range": bounds})


@functools.cache
def _ranges(cls) -> dict[str, tuple[float, float, str]]:
    return {f.name: (*map(float, f.metadata["range"][1:-1].split(",")), f.metadata["range"])
            for f in dataclasses.fields(cls) if "range" in f.metadata}


# the integers the decoder reads back as integers; it reads wider ones as floats
INT_WINDOW = "[-2**63, 2**64)"


def check_ranges(obj, **values) -> None:
    """Raise :class:`InvalidParams`, naming the class, field and range, unless each number in
    every :func:`knob` of ``obj`` (or in ``values``, for the class ``obj``) lies in its range,
    and each integer among them also in :data:`INT_WINDOW`."""
    cls = obj if isinstance(obj, type) else type(obj)
    for name, value in (values or {name: getattr(obj, name) for name in _ranges(cls)}).items():
        lo, hi, bounds = _ranges(cls)[name]
        numbers = (value.items() if isinstance(value, dict) else
                   enumerate(value) if isinstance(value, (tuple, list)) else [(None, value)])
        for key, v in numbers:
            if type(v) is int and not -2**63 <= v < 2**64:
                outside = INT_WINDOW
            elif not lo <= v <= hi or v == lo and bounds[0] == "(" or v == hi and bounds[-1] == ")":
                outside = bounds
            else:
                continue
            at = "" if key is None else f"[{key!r}]"
            raise InvalidParams(f"{cls.__name__}.{name}{at}: {v!r} is outside {outside}")


# --- NDJSON files ------------------------------------------------------------------


def artifact_header(fmt: str, **fields) -> dict:
    """The header line of an artifact of format ``fmt``."""
    return {"format": fmt, "version": FORMAT_VERSION, "tool_version": __version__, **fields}


def write_ndjson(path: str | Path, header: dict, rows: Iterable) -> int:
    """Write header + rows (dicts or dataclasses), one :func:`_file_line`
    each; returns the number of rows written. A new file beside ``path``
    replaces it once every line is written, so a failed write leaves the
    earlier file or none. Raises :class:`MalformedDocument` naming the row
    the encoder refuses."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    part = path.with_name(f".{path.name}.{secrets.token_hex(8)}.part")
    fh = part.open("xb")  # created as open() creates any file
    try:
        with fh:
            for n, row in enumerate(itertools.chain([header], rows)):
                try:
                    line = _file_line(row)
                except ValueError as exc:
                    raise MalformedDocument(f"{path}: {f'row {n}' if n else 'header'}: {exc}") from None
                fh.write(line)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    return n


def _records(path: Path, fh) -> Iterator[dict]:
    """Header, then rows, parsed one line at a time from the binary file
    ``fh``; blank lines skipped."""
    for lineno, line in enumerate(fh, start=1):
        if line.isspace():
            continue
        try:
            record = loads(line)
        except ValueError as exc:
            raise MalformedDocument(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
        yield record


def _header(path: Path, records: Iterator[dict]) -> dict:
    header = next(records, None)
    if header is None:
        raise MalformedDocument(f"{path}: empty file")
    if not isinstance(header, dict) or "format" not in header:
        raise MalformedDocument(f"{path}: missing format header line")
    return header


def read_ndjson(path: str | Path, build: Callable[[dict], Callable[[dict], Any]] | None = None
                ) -> tuple[dict, list]:
    """Header and rows of the file at ``path``, parsed one line at a time.
    With ``build``, ``build(header)`` is called once the header is read and
    returns the function that turns each row into what is kept, so every
    row is built before the next line is parsed. Raises MalformedDocument
    naming the line on a non-JSON line, naming the row when building it
    raises one, and naming both numbers when the header's ``count`` is not
    the number of rows (a truncated file)."""
    path = Path(path)
    with path.open("rb") as fh:
        records = _records(path, fh)
        header = _header(path, records)
        if build is None:
            rows = list(records)
        else:
            build_row = build(header)
            rows = []
            for n, row in enumerate(records, start=1):
                try:
                    rows.append(build_row(row))
                except MalformedDocument as exc:
                    raise MalformedDocument(f"{path}: row {n}: {exc}") from None
    count = header.get("count", len(rows))
    if type(count) is not int or count != len(rows):
        raise MalformedDocument(f"{path}: the header counts {count!r} rows, the file holds {len(rows)}")
    return header, rows


def read_header(path: str | Path) -> dict:
    """The header line alone."""
    path = Path(path)
    with path.open("rb") as fh:
        return _header(path, _records(path, fh))


def read_artifact(path: str | Path, fmt: str, read_row, **header_types) -> tuple[dict, list]:
    """Header and records of the artifact at ``path``: its ``format`` must be
    ``fmt``, each header field in ``header_types`` must have that type where
    present, and ``read_row`` builds the record of each row as it is read
    (a :class:`Record`'s ``from_dict``). Raises :class:`MalformedDocument`
    naming the file and the row."""

    def build(header):
        if header["format"] != fmt:
            raise MalformedDocument(f"{path}: format {header['format']!r}, expected {fmt!r}")
        for key, tp in header_types.items():
            if key in header and type(header[key]) not in _plan(tp)[0]:
                raise MalformedDocument(
                    f"{path}: header {key}: expected {getattr(tp, '__name__', tp)}, "
                    f"got {type(header[key]).__name__}"
                )
        return read_row

    return read_ndjson(path, build)
