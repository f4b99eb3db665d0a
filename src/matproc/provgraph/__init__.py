"""Typed provenance process graphs: parsing, roles, precedence, ordering."""

from .model import ActivityNode, EntityNode, ProcessGraph, validate_graph
from .parse import FieldMap, parse_record, record_id_of
from .analyze import assign_roles, compile_graph, infer_precedence, order_activities
from .synth import SynthParams, generate_synthetic_corpus, to_prov_document
from .store import load_graphs, read_graph_store, write_graph_store
from .views import (
    final_product_label,
    precursor_labels,
    product_labels,
    route_labels,
    step_material_inputs,
    step_material_outputs,
    step_tool_labels,
)

__all__ = [
    "ActivityNode",
    "EntityNode",
    "ProcessGraph",
    "FieldMap",
    "SynthParams",
    "assign_roles",
    "compile_graph",
    "final_product_label",
    "generate_synthetic_corpus",
    "infer_precedence",
    "load_graphs",
    "order_activities",
    "parse_record",
    "precursor_labels",
    "product_labels",
    "read_graph_store",
    "record_id_of",
    "route_labels",
    "step_material_inputs",
    "step_material_outputs",
    "step_tool_labels",
    "to_prov_document",
    "validate_graph",
    "write_graph_store",
]
