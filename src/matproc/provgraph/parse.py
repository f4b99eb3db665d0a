"""PROV-JSONLD record parsing.

Two envelope shapes are accepted, covering the common serializations of
provenance documents:

* JSON-LD: a document with an ``@graph`` list of typed node objects
  (``prov:Entity`` / ``prov:Activity``) whose usage/generation links appear
  either as node properties (``used``, ``wasGeneratedBy``) or as standalone
  qualified relation objects.
* Flat PROV-JSON: top-level ``entity`` / ``activity`` maps and relation
  maps under the usage and generation keys (``used``, ``wasGeneratedBy``).

The concrete key vocabulary is not hardcoded: a FieldMap declares which keys
carry labels, conditions, tool markers, DOI, year and material class, so
schema drift in a source dump is a configuration change. The defaults match
the common prov-prefixed vocabulary.

Unparseable optional fields are dropped, never invented; structural problems
are either fatal (MalformedDocument, EmptyRecord) or recorded on the graph's
warning list (dangling edge references, generation edges targeting tools).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..canon import canon_label
from ..errors import EmptyRecord, MalformedDocument
from ..jsonio import ReadOnlyMapping, Record, loads
from .model import MATERIAL_CLASSES, ActivityNode, EntityNode, ProcessGraph, validate_graph


@dataclass
class FieldMap(Record):
    """Declares which document keys carry what.

    All matching is exact on the key after stripping a namespace prefix is
    NOT attempted; list every accepted spelling instead.
    """

    entity_types: tuple[str, ...] = ("prov:Entity", "Entity", "entity")
    activity_types: tuple[str, ...] = ("prov:Activity", "Activity", "activity")
    usage_keys: tuple[str, ...] = ("used", "prov:used", "qualifiedUsage", "prov:qualifiedUsage")
    generation_keys: tuple[str, ...] = (
        "wasGeneratedBy",
        "prov:wasGeneratedBy",
        "qualifiedGeneration",
        "prov:qualifiedGeneration",
    )
    label_keys: tuple[str, ...] = ("prov:label", "rdfs:label", "label", "name")
    # entity attribute keys (or @type markers) that flag a tool
    tool_type_values: tuple[str, ...] = ("tool", "equipment", "instrument", "apparatus")
    tool_attr_keys: tuple[str, ...] = ("tool", "is_tool", "entity_kind", "category", "type")
    # relation-object keys pointing at the entity / activity side
    relation_entity_keys: tuple[str, ...] = ("prov:entity", "entity")
    relation_activity_keys: tuple[str, ...] = ("prov:activity", "activity")
    # document-level metadata
    doi_keys: tuple[str, ...] = ("doi", "prov:doi", "dcterms:identifier")
    year_keys: tuple[str, ...] = ("year", "publication_year", "dcterms:issued")
    class_keys: tuple[str, ...] = ("material_class", "class", "category")
    record_id_keys: tuple[str, ...] = ("@id", "record_id", "id")
    # attribute keys never copied into entity attributes / activity conditions
    reserved_keys: tuple[str, ...] = ("@id", "@type", "id", "type")


def _first(d: dict, keys: tuple[str, ...]):
    for k in keys:
        if k in d and d[k] is not None:
            return d[k]
    return None


def _as_text(value) -> str | None:
    """Scalar or {"@value": ...} -> plain string; structures are dropped."""
    if isinstance(value, dict):
        value = value.get("@value")
    if isinstance(value, (str, int, float)):
        return str(value)
    return None


def record_id_of(doc: dict, field_map: FieldMap | None = None) -> str:
    """The document's record id under ``field_map.record_id_keys``, looked
    up on the document and then on its ``metadata`` object; "" when neither
    names one."""
    fm = field_map or FieldMap()
    meta = doc.get("metadata") if isinstance(doc.get("metadata"), dict) else doc
    return _as_text(_first(doc, fm.record_id_keys)) or _as_text(_first(meta, fm.record_id_keys)) or ""


def _type_list(node: dict) -> list[str]:
    t = node.get("@type", node.get("type"))
    if t is None:
        return []
    if isinstance(t, list):
        return [str(x) for x in t]
    return [str(t)]


def _is_tool(node: dict, fm: FieldMap) -> bool:
    marks = {v.lower() for v in fm.tool_type_values}
    for t in _type_list(node):
        if t.lower() in marks or t.split(":")[-1].lower() in marks:
            return True
    for key in fm.tool_attr_keys:
        raw = node.get(key)
        text = _as_text(raw)
        if text is not None and text.lower() in marks:
            return True
        if raw is True and key in ("tool", "is_tool"):
            return True
    return False


def _ref_id(value) -> str | None:
    """Relation endpoints may be an id string or an {"@id"/"$": ...} object."""
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        for k in ("@id", "$", "id"):
            if k in value:
                return str(value[k])
    return None


def parse_record(raw_document: bytes | str | dict, field_map: FieldMap | None = None) -> ProcessGraph:
    """Parse one provenance document into a ProcessGraph.

    Node and edge counts equal the counts of parseable entities, activities
    and relations. Raises MalformedDocument when the envelope is not valid,
    EmptyRecord when no activity survives parsing. The graph holds no roles
    and no order, which follow from its edges; compile_graph checks it.
    """
    fm = field_map or FieldMap()
    doc = _load_document(raw_document)

    if "@graph" in doc:
        nodes, relations = _collect_jsonld(doc, fm)
    elif any(k in doc for k in ("entity", "activity")):
        nodes, relations = _collect_flat(doc, fm)
    else:
        raise MalformedDocument("document has neither an @graph list nor entity/activity maps")

    g = _build_graph(doc, nodes, relations, fm)
    validate_graph(g)
    if not g.activities:
        raise EmptyRecord(f"{g.record_id}: zero activities after parsing")
    return g


def _load_document(raw: bytes | str | dict) -> dict:
    if isinstance(raw, dict):
        return raw
    if not isinstance(raw, (bytes, str)):
        raise MalformedDocument(f"document must be a JSON object, not {type(raw).__name__}")
    try:
        doc = loads(raw)
    except ValueError as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument("top-level JSON value must be an object")
    return doc


def _collect_jsonld(doc: dict, fm: FieldMap):
    """@graph list: typed nodes with inline or qualified relations."""
    graph = doc.get("@graph")
    if not isinstance(graph, list):
        raise MalformedDocument("@graph must be a list")
    nodes: dict[str, dict] = {}
    relations: list[tuple[str, str, str]] = []  # (kind, entity_id, activity_id)
    for obj in graph:
        if not isinstance(obj, dict):
            continue
        types = [t.split(":")[-1].lower() for t in _type_list(obj)]
        node_id = _as_text(_first(obj, fm.record_id_keys))
        if "usage" in types or "generation" in types:
            ent = _ref_id(_first(obj, fm.relation_entity_keys))
            act = _ref_id(_first(obj, fm.relation_activity_keys))
            if ent and act:
                relations.append(("usage" if "usage" in types else "generation", ent, act))
            continue
        if node_id is None:
            continue
        if any(t in ("entity", "agent") for t in types) or _matches(obj, fm.entity_types):
            nodes[node_id] = {"kind": "entity", "obj": obj}
        elif "activity" in types or _matches(obj, fm.activity_types):
            nodes[node_id] = {"kind": "activity", "obj": obj}
        else:
            continue
        # inline relation properties on the node itself
        for key in fm.usage_keys:
            for ref in _ref_list(obj.get(key)):
                if nodes[node_id]["kind"] == "activity":
                    relations.append(("usage", ref, node_id))
                else:
                    relations.append(("usage", node_id, ref))
        for key in fm.generation_keys:
            for ref in _ref_list(obj.get(key)):
                if nodes[node_id]["kind"] == "entity":
                    relations.append(("generation", node_id, ref))
                else:
                    relations.append(("generation", ref, node_id))
    return nodes, relations


def _matches(obj: dict, type_names: tuple[str, ...]) -> bool:
    stated = set(_type_list(obj))
    return bool(stated & set(type_names))


def _ref_list(value) -> list[str]:
    if value is None:
        return []
    items = value if isinstance(value, list) else [value]
    out = []
    for item in items:
        ref = _ref_id(item)
        if ref is not None:
            out.append(ref)
    return out


def _collect_flat(doc: dict, fm: FieldMap):
    """PROV-JSON: entity/activity maps plus relation maps under the field
    map's usage and generation keys."""
    nodes: dict[str, dict] = {}
    relations: list[tuple[str, str, str]] = []
    for kind in ("entity", "activity"):
        for node_id, obj in _objects(doc.get(kind)):
            nodes[node_id] = {"kind": kind, "obj": obj}
    for kind, keys in (("usage", fm.usage_keys), ("generation", fm.generation_keys)):
        for key in keys:
            for _, rel in _objects(doc.get(key)):
                ent = _ref_id(_first(rel, fm.relation_entity_keys))
                act = _ref_id(_first(rel, fm.relation_activity_keys))
                if ent and act:
                    relations.append((kind, ent, act))
    return nodes, relations


def _objects(value) -> list[tuple[str, dict]]:
    """The object-valued entries of a map; like non-object @graph members,
    anything else is skipped."""
    if not isinstance(value, dict):
        return []
    return [(k, v) for k, v in value.items() if isinstance(v, dict)]


def _build_graph(doc: dict, nodes: dict, relations: list, fm: FieldMap) -> ProcessGraph:
    meta = doc.get("metadata") if isinstance(doc.get("metadata"), dict) else doc
    record_id = record_id_of(doc, fm)
    doi = _as_text(_first(meta, fm.doi_keys)) or ""
    year_text = _as_text(_first(meta, fm.year_keys))
    year: int | None = None
    if year_text is not None:
        try:
            year = int(float(year_text))
        except (ValueError, OverflowError):
            year = None  # unparseable optional field: dropped
    raw_class = (_as_text(_first(meta, fm.class_keys)) or "other").strip().lower()
    material_class = raw_class if raw_class in MATERIAL_CLASSES else "other"
    if not record_id:
        record_id = doi or "record"

    materials, tools, activities = [], [], []
    for node_id, entry in nodes.items():
        obj = entry["obj"]
        label = _as_text(_first(obj, fm.label_keys)) or node_id
        attrs: dict[str, str] = {}
        for k, v in obj.items():
            if k in fm.reserved_keys or k in fm.label_keys:
                continue
            if k in fm.usage_keys or k in fm.generation_keys:
                continue
            text = _as_text(v)
            if text is not None:
                attrs[k] = text
        if entry["kind"] == "activity":
            conditions = ReadOnlyMapping((k, canon_label(v)) for k, v in attrs.items())
            activities.append(ActivityNode(id=node_id, label=label, conditions=conditions,
                                           source_position=len(activities)))
        else:
            kind = "tool" if _is_tool(obj, fm) else "material"
            node = EntityNode(id=node_id, label=label, kind=kind, attributes=ReadOnlyMapping(attrs))
            (tools if kind == "tool" else materials).append(node)

    entity_ids = {e.id for e in [*materials, *tools]}
    activity_ids = {a.id for a in activities}
    tool_ids = {t.id for t in tools}
    usage, generation, warnings = [], [], []
    for kind, ent, act in relations:
        if ent not in entity_ids or act not in activity_ids:
            warnings.append(f"dangling {kind} edge ({ent!r}, {act!r}) dropped")
            continue
        if kind == "usage":
            usage.append((ent, act))
        else:
            if ent in tool_ids:
                # kept, but flagged: noisy extractions sometimes "generate" tools
                warnings.append(f"generation edge targets tool {ent!r} (kept)")
            generation.append((act, ent))
    return ProcessGraph(record_id=record_id, doi=doi, year=year, material_class=material_class,
                        material_entities=tuple(materials), tool_entities=tuple(tools),
                        activities=tuple(activities), usage_edges=tuple(usage),
                        generation_edges=tuple(generation), warnings=tuple(warnings))
