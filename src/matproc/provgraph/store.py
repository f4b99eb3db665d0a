"""Compiled-graph store: newline-delimited graphs with a version header.

A row holds what ``compile`` parsed: the record's facts, nodes and edges.
Material roles and the activity order follow from the edges, so no row or
graph holds them. :func:`read_graph_store` checks each graph with
:func:`~.analyze.compile_graph`, the check ``compile`` ran. A row that
holds either (a store an older version wrote) is refused; re-running
``compile`` rewrites the store.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import DataError, MalformedDocument
from ..jsonio import artifact_header, read_artifact, write_ndjson
from .analyze import compile_graph
from .model import ProcessGraph

GRAPH_FORMAT = "matproc-graphs"
_RERUN = "re-run compile to rewrite the graph store"


def write_graph_store(path: str | Path, graphs: list[ProcessGraph], config_hash: str = "") -> int:
    header = artifact_header(GRAPH_FORMAT, config_hash=config_hash, count=len(graphs))
    return write_ndjson(path, header, graphs)


def _read_graph(row: dict) -> ProcessGraph:
    try:
        return ProcessGraph.from_dict(row)
    except MalformedDocument as exc:
        graph = f"graph {row['record_id']!r}: " if type(row) is dict and "record_id" in row else ""
        raise MalformedDocument(f"{graph}{exc}; {_RERUN}") from None


def read_graph_store(path: str | Path) -> tuple[dict, list[ProcessGraph]]:
    """Header and graphs, each checked by ``compile_graph``. Raises
    :class:`DataError` naming the file and the graph for a graph ``compile``
    would not have written (a cyclic one, or one whose node kind contradicts
    its list, among them), and for a record id two graphs hold."""
    header, graphs = read_artifact(path, GRAPH_FORMAT, _read_graph)
    seen = set()
    for g in graphs:
        try:
            compile_graph(g)
            if g.record_id in seen:
                raise MalformedDocument(f"{g.record_id}: the record id of an earlier graph")
        except DataError as exc:
            raise type(exc)(f"{path}: graph {exc}; {_RERUN}") from None
        seen.add(g.record_id)
    return header, graphs


def load_graphs(path: str | Path) -> list[ProcessGraph]:
    return read_graph_store(path)[1]
