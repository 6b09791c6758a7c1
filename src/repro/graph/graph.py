"""The computational-graph container (a DAG of :class:`OpNode`)."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.node import OpNode


class CompGraph:
    """A directed acyclic graph of operations.

    Node indices are assigned in insertion order, which for all built-in
    workload generators is already a valid topological order — the paper's
    placers consume ops as a topologically ordered sequence.
    """

    def __init__(self, name: str = "graph"):
        self.name = name
        self.nodes: List[OpNode] = []
        self._index: Dict[str, int] = {}
        self._succ: List[List[int]] = []
        self._pred: List[List[int]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: OpNode, inputs: Sequence[str] = ()) -> int:
        """Add ``node``; ``inputs`` are names of already-added producers."""
        if node.name in self._index:
            raise ValueError(f"duplicate node name {node.name!r}")
        idx = len(self.nodes)
        self.nodes.append(node)
        self._index[node.name] = idx
        self._succ.append([])
        self._pred.append([])
        for producer in inputs:
            self.add_edge(producer, node.name)
        return idx

    def add_edge(self, src: str, dst: str) -> None:
        """Data-flow edge ``src -> dst``; both nodes must already exist."""
        try:
            u, v = self._index[src], self._index[dst]
        except KeyError as exc:
            raise KeyError(f"unknown node in edge {src!r} -> {dst!r}") from exc
        if u == v:
            raise ValueError(f"self-loop on {src!r}")
        if v not in self._succ[u]:
            self._succ[u].append(v)
            self._pred[v].append(u)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self._succ)

    def __len__(self) -> int:
        return len(self.nodes)

    def index_of(self, name: str) -> int:
        return self._index[name]

    def node(self, name: str) -> OpNode:
        return self.nodes[self._index[name]]

    def successors(self, idx: int) -> List[int]:
        return self._succ[idx]

    def predecessors(self, idx: int) -> List[int]:
        return self._pred[idx]

    def edges(self) -> Iterable[Tuple[int, int]]:
        for u, succ in enumerate(self._succ):
            for v in succ:
                yield (u, v)

    def in_degrees(self) -> np.ndarray:
        return np.array([len(p) for p in self._pred], dtype=np.int64)

    def out_degrees(self) -> np.ndarray:
        return np.array([len(s) for s in self._succ], dtype=np.int64)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def topological_order(self) -> List[int]:
        """Kahn's algorithm; raises if the graph has a cycle."""
        indeg = self.in_degrees().copy()
        frontier = [i for i in range(self.num_nodes) if indeg[i] == 0]
        order: List[int] = []
        while frontier:
            # Pop smallest index for determinism.
            frontier.sort(reverse=True)
            u = frontier.pop()
            order.append(u)
            for v in self._succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    frontier.append(v)
        if len(order) != self.num_nodes:
            raise ValueError(f"graph {self.name!r} contains a cycle")
        return order

    def is_topologically_indexed(self) -> bool:
        """True if insertion order is already a topological order."""
        return all(u < v for u, v in self.edges())

    def validate(self) -> None:
        """Raise ``ValueError`` on structural problems (cycles, dangling)."""
        self.topological_order()  # raises on cycles
        for node in self.nodes:
            if node.output_shape and any(s <= 0 for s in node.output_shape):
                raise ValueError(f"non-positive dim in {node.name}: {node.output_shape}")

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    def total_flops(self) -> float:
        return float(sum(n.flops for n in self.nodes))

    def total_param_bytes(self) -> float:
        return float(sum(n.param_bytes for n in self.nodes))

    def total_activation_bytes(self) -> float:
        return float(sum(n.activation_bytes for n in self.nodes))

    def colocation_groups(self) -> Dict[str, List[int]]:
        groups: Dict[str, List[int]] = {}
        for i, node in enumerate(self.nodes):
            if node.colocation_group is not None:
                groups.setdefault(node.colocation_group, []).append(i)
        return groups

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash of the graph (hex sha256).

        :func:`repro.graph.io.document_fingerprint` of the canonical
        serialization (``graph_to_dict``): nodes sorted by name and edges
        by endpoint names, so the hash is independent of insertion order
        and of Python's per-process ``hash()`` salting. The same graph
        content always produces the same fingerprint, in any process, on
        any platform. Any change to the name, a node attribute, or the
        edge set changes the hash.

        This is the cache identity the serving layer keys results by
        (``repro.serve``, docs/serving.md): two requests carrying
        semantically identical graphs never re-run inference, and a
        request's document is hashed to the same value without building
        the graph.
        """
        from repro.graph.io import document_fingerprint, graph_to_dict

        return document_fingerprint(graph_to_dict(self))[0]

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export to a ``networkx.DiGraph`` for analysis/visualization."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        for i, node in enumerate(self.nodes):
            g.add_node(i, name=node.name, op_type=node.op_type, flops=node.flops)
        g.add_edges_from(self.edges())
        return g

    def summary(self) -> str:
        gflops = self.total_flops() / 1e9
        params_mb = self.total_param_bytes() / 2**20
        act_mb = self.total_activation_bytes() / 2**20
        return (
            f"{self.name}: {self.num_nodes} ops, {self.num_edges} edges, "
            f"{gflops:.1f} GFLOPs/step, {params_mb:.0f} MB params, "
            f"{act_mb:.0f} MB activations"
        )

    def __repr__(self) -> str:
        return f"CompGraph({self.name!r}, nodes={self.num_nodes}, edges={self.num_edges})"
