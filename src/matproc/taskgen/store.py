"""Benchmark file: one item per line under a generator header."""

from __future__ import annotations

from pathlib import Path

from ..errors import MalformedDocument
from ..jsonio import artifact_header, check_fields, read_artifact, write_ndjson
from .model import QUESTION_TYPES, TASKS, BenchItem

BENCH_FORMAT = "matproc-bench"
SKIP_FORMAT = "matproc-bench-skips"


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


def read_benchmark(path: str | Path) -> tuple[dict, list[BenchItem]]:
    """Header and items; each item's question must have its task's shape."""
    header, items = read_artifact(path, BENCH_FORMAT, BenchItem)
    for n, item in enumerate(items, start=1):
        try:
            if item.task not in QUESTION_TYPES:
                raise MalformedDocument(f"task {item.task!r} is not one of {', '.join(TASKS)}")
            check_fields(QUESTION_TYPES[item.task], item.question)
        except MalformedDocument as exc:
            raise MalformedDocument(f"{path}: row {n}: {exc}") from None
    return header, items


def load_items(path: str | Path) -> list[BenchItem]:
    return read_benchmark(path)[1]
