"""Compiled-graph store: newline-delimited graphs with a version header."""

from __future__ import annotations

from pathlib import Path

from ..jsonio import artifact_header, read_ndjson, write_ndjson
from .model import ProcessGraph

GRAPH_FORMAT = "matproc-graphs"


def write_graph_store(path: str | Path, graphs: list[ProcessGraph], config_hash: str = "") -> int:
    header = artifact_header(GRAPH_FORMAT, config_hash=config_hash, count=len(graphs))
    return write_ndjson(path, header, graphs)


def read_graph_store(path: str | Path) -> tuple[dict, list[ProcessGraph]]:
    header, rows = read_ndjson(path)
    return header, [ProcessGraph.from_dict(r) for r in rows]


def load_graphs(path: str | Path) -> list[ProcessGraph]:
    return read_graph_store(path)[1]
