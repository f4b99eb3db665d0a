"""Benchmark file: one item per line under a generator header."""

from __future__ import annotations

from pathlib import Path

from ..jsonio import artifact_header, read_artifact, write_ndjson
from .model import BenchItem

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
    return read_artifact(path, BENCH_FORMAT, BenchItem)


def load_items(path: str | Path) -> list[BenchItem]:
    return read_benchmark(path)[1]
