"""Benchmark file: one item per line under a generator header."""

from __future__ import annotations

from pathlib import Path

from ..errors import MalformedDocument
from ..jsonio import artifact_header, read_artifact, write_ndjson
from .model import BenchItem

BENCH_FORMAT = "matproc-bench"
SKIP_FORMAT = "matproc-bench-skips"
_RERUN = "re-run genbench to rewrite the question set"


def write_benchmark(
    path: str | Path,
    items: list[BenchItem],
    seed: int,
    k_options: int,
    config_hash: str = "",
    skip_log: list[dict] | None = None,
    skips_path: str | Path | None = None,
) -> int:
    header = artifact_header(
        BENCH_FORMAT, config_hash=config_hash, seed=seed, k_options=k_options, count=len(items)
    )
    n = write_ndjson(path, header, items)
    if skips_path is not None:
        write_ndjson(skips_path, artifact_header(SKIP_FORMAT), skip_log or [])
    return n


def _read_item(row: dict) -> BenchItem:
    try:
        return BenchItem.from_dict(row)
    except MalformedDocument as exc:
        raise MalformedDocument(f"{exc}; {_RERUN}") from None


def read_benchmark(path: str | Path) -> tuple[dict, list[BenchItem]]:
    """Header and items; each item's question is built as its task's type.
    Raises :class:`MalformedDocument` naming the file and the row for a row
    that does not fit an item, and naming the file and the graph for a
    graph whose items disagree on its DOI, year or material class: the
    facts of one record, which the split protocols assign by."""
    header, items = read_artifact(path, BENCH_FORMAT, _read_item)
    facts: dict[str, tuple] = {}
    for it in items:
        fact = (it.doi, it.year, it.material_class)
        first = facts.setdefault(it.graph_id, fact)
        if fact != first:
            raise MalformedDocument(
                f"{path}: graph {it.graph_id!r}: item {it.item_id!r} has DOI, year and class"
                f" {fact}, an earlier item of the graph {first}; {_RERUN}")
    return header, items


def load_items(path: str | Path) -> list[BenchItem]:
    return read_benchmark(path)[1]
