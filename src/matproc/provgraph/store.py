"""Compiled-graph store: newline-delimited graphs with a version header."""

from __future__ import annotations

from pathlib import Path

from ..errors import MalformedDocument
from ..jsonio import artifact_header, read_artifact, write_ndjson
from .model import ProcessGraph, validate_graph

GRAPH_FORMAT = "matproc-graphs"


def write_graph_store(path: str | Path, graphs: list[ProcessGraph], config_hash: str = "") -> int:
    header = artifact_header(GRAPH_FORMAT, config_hash=config_hash, count=len(graphs))
    return write_ndjson(path, header, graphs)


def _check_compiled(g: ProcessGraph) -> None:
    """What ``compile`` guarantees of a graph: the structural invariants,
    entity kinds it knows, and an ordering of all the graph's activities."""
    validate_graph(g)
    for e in g.entities():
        if e.kind not in ("material", "tool"):
            raise MalformedDocument(f"{g.record_id}: entity {e.id!r} has kind {e.kind!r}")
    if sorted(g.ordered_activity_ids) != sorted(a.id for a in g.activities):
        raise MalformedDocument(f"{g.record_id}: ordered_activity_ids is not a permutation"
                                " of the activity ids")


def read_graph_store(path: str | Path) -> tuple[dict, list[ProcessGraph]]:
    """Raises MalformedDocument naming the file and the graph for a graph
    ``compile`` would not have written, and for a record id two graphs hold."""
    header, graphs = read_artifact(path, GRAPH_FORMAT, ProcessGraph.from_dict)
    seen = set()
    for g in graphs:
        try:
            _check_compiled(g)
            if g.record_id in seen:
                raise MalformedDocument(f"{g.record_id}: the record id of an earlier graph")
        except MalformedDocument as exc:
            raise MalformedDocument(f"{path}: graph {exc}") from None
        seen.add(g.record_id)
    return header, graphs


def load_graphs(path: str | Path) -> list[ProcessGraph]:
    return read_graph_store(path)[1]
