"""Placement representation and constraint resolution."""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.graph import CompGraph
from repro.sim.cluster import ClusterSpec


class Placement:
    """An assignment op-index -> device-index for a specific graph/cluster."""

    def __init__(self, devices: Sequence[int], graph: CompGraph, cluster: ClusterSpec):
        arr = np.asarray(devices, dtype=np.int64)
        if arr.shape != (graph.num_nodes,):
            raise ValueError(
                f"placement length {arr.shape} != num ops ({graph.num_nodes},)"
            )
        if arr.size and (arr.min() < 0 or arr.max() >= cluster.num_devices):
            raise ValueError("device index out of range")
        self.devices = arr
        self.graph = graph
        self.cluster = cluster
        self._hash: Optional[int] = None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Placement) and np.array_equal(self.devices, other.devices)

    def __hash__(self) -> int:
        # Stable across processes: the measurement protocol seeds its noise
        # from this hash, so Python's per-process salting of `hash(bytes)`
        # (PYTHONHASHSEED) would make seeded runs irreproducible between
        # processes — and would break crash-safe resume, which must replay
        # the exact noisy measurements of the interrupted run.
        if self._hash is None:
            digest = hashlib.blake2b(
                np.ascontiguousarray(self.devices).tobytes(), digest_size=8
            ).digest()
            self._hash = int.from_bytes(digest, "little") & ((1 << 63) - 1)
        return self._hash

    def device_of(self, op_index: int) -> int:
        return int(self.devices[op_index])

    def num_cut_edges(self) -> int:
        """Edges crossing devices — proxy for communication volume."""
        return sum(
            1 for u, v in self.graph.edges() if self.devices[u] != self.devices[v]
        )

    def describe(self) -> str:
        counts = np.bincount(self.devices, minlength=self.cluster.num_devices)
        parts = [
            f"{dev.name}={int(c)}"
            for dev, c in zip(self.cluster.devices, counts)
            if c > 0
        ]
        return f"Placement({', '.join(parts)}, cut={self.num_cut_edges()})"


class PlacementConstraints:
    """The environment-side constraints the real TF runtime enforces,
    lowered to index arrays once per (graph, cluster):

    * colocation groups land on the device chosen for their first member
      (``devices[members] = devices[leaders]``), then
    * ``cpu_only`` ops run on the CPU regardless of the agent's action
      (mirrors "GPU incompatible operations run on CPU", Section 4.1), so
      a ``cpu_only`` op inside a group goes to the CPU alone.

    :class:`repro.sim.env.PlacementEnv` builds one and resolves every
    placement it measures through it.
    """

    __slots__ = ("graph", "cluster", "members", "leaders", "cpu_only")

    def __init__(self, graph: CompGraph, cluster: ClusterSpec):
        members: List[int] = []
        leaders: List[int] = []
        cpu_only: List[int] = []
        first: Dict[str, int] = {}
        for i, node in enumerate(graph.nodes):
            if node.colocation_group is not None:
                members.append(i)
                leaders.append(first.setdefault(node.colocation_group, i))
            if node.cpu_only:
                cpu_only.append(i)
        self.graph = graph
        self.cluster = cluster
        self.members = np.array(members, dtype=np.intp)
        self.leaders = np.array(leaders, dtype=np.intp)
        self.cpu_only = np.array(cpu_only, dtype=np.intp)

    def resolve(self, actions: Sequence[int]) -> Placement:
        """Turn raw agent actions into a *feasible* placement."""
        devices = np.array(actions, dtype=np.int64)
        if devices.shape != (self.graph.num_nodes,):
            raise ValueError("actions length mismatch")
        devices[self.members] = devices[self.leaders]
        devices[self.cpu_only] = self.cluster.cpu_index
        return Placement(devices, self.graph, self.cluster)


def resolve_placement(
    actions: Sequence[int], graph: CompGraph, cluster: ClusterSpec
) -> Placement:
    """Turn raw agent actions into a *feasible* placement (see
    :class:`PlacementConstraints`)."""
    return PlacementConstraints(graph, cluster).resolve(actions)
