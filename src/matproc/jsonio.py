"""Newline-delimited JSON stores with a self-describing header line.

Every artifact file the pipeline emits uses this layout:

    {"format": "<name>", "version": 1, ...header fields...}
    {...record...}
    {...record...}

Writers are deterministic (sorted keys) so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Iterator

from .errors import MalformedDocument

FORMAT_VERSION = 1


def dumps_line(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_ndjson(path: str | Path, header: dict, rows: Iterable[dict]) -> int:
    """Write header + rows; returns the number of rows written."""
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


def iter_ndjson(path: str | Path) -> Iterator[dict]:
    """Stream rows (header checked, then skipped) one line at a time."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        records = _records(path, fh)
        _header(path, records)
        yield from records
