"""Computational-graph intermediate representation.

A workload (Inception-V3, GNMT, BERT, ...) is represented as a DAG of
:class:`OpNode` operations carrying the attributes the paper's encoder
consumes (op type, shapes) plus the cost attributes the simulator needs
(FLOPs, parameter bytes, activation bytes).
"""

from repro.graph.node import OpNode
from repro.graph.graph import CompGraph
from repro.graph.features import FeatureExtractor, OpTypeVocabulary
from repro.graph.adjacency import normalized_adjacency, adjacency_matrix
from repro.graph.partition import topological_groups, group_contiguous
from repro.graph.io import (
    save_graph,
    load_graph,
    graph_to_dict,
    graph_from_dict,
    document_fingerprint,
)

__all__ = [
    "save_graph",
    "load_graph",
    "graph_to_dict",
    "graph_from_dict",
    "document_fingerprint",
    "OpNode",
    "CompGraph",
    "FeatureExtractor",
    "OpTypeVocabulary",
    "normalized_adjacency",
    "adjacency_matrix",
    "topological_groups",
    "group_contiguous",
]
