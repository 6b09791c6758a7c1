"""Computational-graph (de)serialization.

Graphs round-trip through a simple JSON document so users can persist
custom workloads or import graphs produced by external tracers::

    {"name": ..., "nodes": [{"name", "op_type", "output_shape", "flops",
     "param_bytes", "activation_bytes", "cpu_only", "colocation_group"}...],
     "edges": [[src_name, dst_name], ...]}

:func:`document_fingerprint` hashes such a document without building the
graph; it is the one implementation of :meth:`CompGraph.fingerprint`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Tuple, Union

from repro.graph.graph import CompGraph
from repro.graph.node import OpNode


def graph_to_dict(graph: CompGraph) -> dict:
    return {
        "name": graph.name,
        "nodes": [
            {
                "name": n.name,
                "op_type": n.op_type,
                "output_shape": list(n.output_shape),
                "flops": n.flops,
                "param_bytes": n.param_bytes,
                "activation_bytes": n.activation_bytes,
                "cpu_only": n.cpu_only,
                "colocation_group": n.colocation_group,
            }
            for n in graph.nodes
        ],
        "edges": [[graph.nodes[u].name, graph.nodes[v].name] for u, v in graph.edges()],
    }


def document_fingerprint(doc: dict) -> Tuple[str, Any]:
    """``(graph_from_dict(doc).fingerprint(), graph name)`` without
    building the graph.

    Each node is normalized exactly as ``graph_to_dict(graph_from_dict(doc))``
    would: omitted fields take their defaults, ``output_shape`` entries
    become ``int``, extra keys are dropped, and every other value passes
    through as given. Edges name their endpoints as the nodes do and
    repeated edges count once. The hex SHA-256 is over the JSON with
    nodes sorted by name, edges sorted by endpoint names and keys sorted,
    so it does not depend on document order or on Python's per-process
    ``hash()`` salt.

    Hashing does not validate: a document ``graph_from_dict`` rejects for
    its content (a duplicate name, a cycle, a negative cost) still gets a
    hash. A document too malformed to normalize (a node without a name,
    an edge to an unknown node) raises ``KeyError``, ``TypeError`` or
    ``ValueError``.
    """
    nodes = []
    names = {}
    for spec in doc["nodes"]:
        name = spec["name"]
        names.setdefault(name, name)
        get = spec.get
        # Keys in sorted order, so the encoder need not sort them.
        nodes.append(
            {
                "activation_bytes": get("activation_bytes", 0.0),
                "colocation_group": get("colocation_group"),
                "cpu_only": get("cpu_only", False),
                "flops": get("flops", 0.0),
                "name": name,
                "op_type": spec["op_type"],
                "output_shape": [int(s) for s in get("output_shape", ())],
                "param_bytes": get("param_bytes", 0.0),
            }
        )
    edges = {(names[src], names[dst]) for src, dst in doc.get("edges", ())}
    graph_name = doc.get("name", "graph")
    canonical = {
        "edges": sorted(edges),
        "name": graph_name,
        "nodes": sorted(nodes, key=lambda n: n["name"]),
    }
    payload = json.dumps(canonical, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest(), graph_name


def graph_from_dict(doc: dict) -> CompGraph:
    graph = CompGraph(doc.get("name", "graph"))
    names = set()
    for i, spec in enumerate(doc["nodes"]):
        name = spec["name"]
        if name in names:
            raise ValueError(
                f"graph document {graph.name!r}: duplicate node name {name!r} "
                f"(nodes[{i}])"
            )
        names.add(name)
        graph.add_node(
            OpNode(
                name=name,
                op_type=spec["op_type"],
                output_shape=tuple(spec.get("output_shape", ())),
                flops=spec.get("flops", 0.0),
                param_bytes=spec.get("param_bytes", 0.0),
                activation_bytes=spec.get("activation_bytes", 0.0),
                cpu_only=spec.get("cpu_only", False),
                colocation_group=spec.get("colocation_group"),
            )
        )
    for i, edge in enumerate(doc.get("edges", ())):
        if len(edge) != 2:
            raise ValueError(
                f"graph document {graph.name!r}: edges[{i}] must be a "
                f"[src, dst] pair, got {list(edge)!r}"
            )
        src, dst = edge
        for endpoint in (src, dst):
            if endpoint not in names:
                raise ValueError(
                    f"graph document {graph.name!r}: edge "
                    f"[{src!r}, {dst!r}] references unknown node {endpoint!r}"
                )
        graph.add_edge(src, dst)
    graph.validate()
    return graph


def save_graph(graph: CompGraph, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_dict(graph), fh)


def load_graph(source: Union[str, dict]) -> CompGraph:
    if isinstance(source, dict):
        return graph_from_dict(source)
    with open(source) as fh:
        return graph_from_dict(json.load(fh))
