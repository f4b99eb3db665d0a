"""Heterogeneous process-graph types.

A record is a directed graph over material entities, tool entities and
activities. Usage edges run entity -> activity (consumption); generation
edges run activity -> entity (production). A graph is a value: its records
are frozen, its node and edge lists tuples and its conditions and attributes
read-only mappings, so a builder assembles its lists and makes the graph
once. Roles and the activity order are derived from the edges, not held.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from ..errors import MalformedDocument
from ..jsonio import TRANSIENT, ReadOnlyMapping, Record

MATERIAL_CLASSES = ("battery", "thermoelectric", "magnetic", "other")


@dataclass(frozen=True)
class EntityNode(Record):
    id: str
    label: str
    kind: str  # "material" | "tool"
    attributes: Mapping[str, str] = field(default_factory=ReadOnlyMapping)


@dataclass(frozen=True)
class ActivityNode(Record):
    id: str
    label: str
    conditions: Mapping[str, str] = field(default_factory=ReadOnlyMapping)
    source_position: int = 0


@dataclass(frozen=True)
class ProcessGraph(Record):
    """One synthesis record as a typed heterogeneous directed graph."""

    record_id: str
    doi: str = ""
    year: int | None = None
    material_class: str = "other"
    material_entities: tuple[EntityNode, ...] = ()
    tool_entities: tuple[EntityNode, ...] = ()
    activities: tuple[ActivityNode, ...] = ()
    usage_edges: tuple[tuple[str, str], ...] = ()  # (entity, activity)
    generation_edges: tuple[tuple[str, str], ...] = ()  # (activity, entity)
    warnings: tuple[str, ...] = field(default=(), metadata=TRANSIENT)  # parse-time diagnostics

    # --- lookups -------------------------------------------------------------

    def entities(self) -> tuple[EntityNode, ...]:
        return self.material_entities + self.tool_entities


def validate_graph(g: ProcessGraph) -> None:
    """Check the structural invariants; raises MalformedDocument on violation.

    - node ids unique across materials, tools and activities
    - a material entity has kind "material" and a tool entity kind "tool"
    - usage edges run (material|tool) -> activity
    - generation edges run activity -> (material|tool)
    - every edge endpoint resolves to an existing node
    """
    ids: set[str] = set()
    for node in [*g.entities(), *g.activities]:
        if node.id in ids:
            raise MalformedDocument(f"{g.record_id}: duplicate node id {node.id!r}")
        ids.add(node.id)
    for kind, nodes in (("material", g.material_entities), ("tool", g.tool_entities)):
        for e in nodes:
            if e.kind != kind:
                raise MalformedDocument(f"{g.record_id}: {kind} entity {e.id!r} has kind {e.kind!r}")
    entity_ids = {e.id for e in g.entities()}
    activity_ids = {a.id for a in g.activities}
    for src, dst in g.usage_edges:
        if src not in entity_ids or dst not in activity_ids:
            raise MalformedDocument(
                f"{g.record_id}: usage edge ({src!r}, {dst!r}) must run entity -> activity"
            )
    for src, dst in g.generation_edges:
        if src not in activity_ids or dst not in entity_ids:
            raise MalformedDocument(
                f"{g.record_id}: generation edge ({src!r}, {dst!r}) must run activity -> entity"
            )
    positions = [a.source_position for a in g.activities]
    if len(set(positions)) != len(positions):
        raise MalformedDocument(f"{g.record_id}: duplicate activity source positions")
