"""Typed provenance process graphs: parsing, roles, precedence, ordering."""

from .model import ActivityNode, EntityNode, ProcessGraph, validate_graph
from .parse import FieldMap, parse_record, record_id_of
from .analyze import assign_roles, compile_graph, infer_precedence, order_activities
from .synth import SynthParams, generate_synthetic_corpus, to_prov_document
from .store import load_graphs, read_graph_store, write_graph_store
from .views import GraphView, StepView, graph_view

__all__ = [
    "ActivityNode",
    "EntityNode",
    "ProcessGraph",
    "FieldMap",
    "GraphView",
    "StepView",
    "SynthParams",
    "assign_roles",
    "compile_graph",
    "generate_synthetic_corpus",
    "graph_view",
    "infer_precedence",
    "load_graphs",
    "order_activities",
    "parse_record",
    "read_graph_store",
    "record_id_of",
    "to_prov_document",
    "validate_graph",
    "write_graph_store",
]
