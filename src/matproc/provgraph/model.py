"""Heterogeneous process-graph types.

A record is a directed graph over material entities, tool entities and
activities. Usage edges run entity -> activity (consumption); generation
edges run activity -> entity (production). Nothing writes to a graph once
built: roles and the activity order are derived from the edges, not held.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import MalformedDocument
from ..jsonio import TRANSIENT, Record

MATERIAL_CLASSES = ("battery", "thermoelectric", "magnetic", "other")


@dataclass
class EntityNode(Record):
    id: str
    label: str
    kind: str  # "material" | "tool"
    attributes: dict[str, str] = field(default_factory=dict)


@dataclass
class ActivityNode(Record):
    id: str
    label: str
    conditions: dict[str, str] = field(default_factory=dict)
    source_position: int = 0


@dataclass
class ProcessGraph(Record):
    """One synthesis record as a typed heterogeneous directed graph."""

    record_id: str
    doi: str = ""
    year: int | None = None
    material_class: str = "other"
    material_entities: list[EntityNode] = field(default_factory=list)
    tool_entities: list[EntityNode] = field(default_factory=list)
    activities: list[ActivityNode] = field(default_factory=list)
    usage_edges: list[tuple[str, str]] = field(default_factory=list)  # (entity, activity)
    generation_edges: list[tuple[str, str]] = field(default_factory=list)  # (activity, entity)
    warnings: list[str] = field(default_factory=list, metadata=TRANSIENT)  # parse-time diagnostics

    # --- lookups -------------------------------------------------------------

    def entities(self) -> list[EntityNode]:
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
