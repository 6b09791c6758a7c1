"""Critical-path analysis of a placed (or unplaced) graph."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.graph import CompGraph
from repro.sim import ClusterSpec, CostModel, Placement


def _longest_paths(
    graph: CompGraph,
    cluster: ClusterSpec,
    placement: Optional[Placement],
    cost_model: Optional[CostModel],
) -> Tuple[np.ndarray, List[int]]:
    """Per-op longest-path-to value and the predecessor that realizes it
    (``-1`` for sources)."""
    cm = cost_model or CostModel()
    times_matrix = cm.op_time_matrix(graph, cluster)
    if placement is not None:
        devices = placement.devices.tolist()
        op_times = times_matrix[np.arange(graph.num_nodes), placement.devices]
    else:
        op_times = times_matrix.min(axis=1)

    order = (
        range(graph.num_nodes)
        if graph.is_topologically_indexed()
        else graph.topological_order()
    )
    longest = np.zeros(graph.num_nodes)
    parent = [-1] * graph.num_nodes
    for op in order:
        best = 0.0
        for pred in graph.predecessors(op):
            t = longest[pred]
            if placement is not None and devices[pred] != devices[op]:
                t += cm.transfer_time(
                    graph.nodes[pred].output_bytes, cluster, devices[pred], devices[op]
                )
            if parent[op] < 0 or t > best:
                best, parent[op] = t, pred
        longest[op] = best + op_times[op]
    return longest, parent


def critical_path(
    graph: CompGraph,
    cluster: ClusterSpec,
    placement: Optional[Placement] = None,
    cost_model: Optional[CostModel] = None,
) -> Tuple[float, np.ndarray]:
    """Longest dependency chain length and per-op longest-path-to value.

    With a ``placement``, op times are taken on the assigned devices and
    cut edges add :meth:`CostModel.transfer_time` on their link — the
    charge the scheduler makes, so on a contention-free graph (a chain)
    the total plus ``cluster.step_overhead`` is the simulated makespan.
    Without one, each op takes its best-device time and communication is
    ignored (a placement-independent lower bound on any makespan, less
    the step overhead).
    """
    longest, _ = _longest_paths(graph, cluster, placement, cost_model)
    total = float(longest.max()) if graph.num_nodes else 0.0
    return total, longest


def critical_path_ops(
    graph: CompGraph,
    cluster: ClusterSpec,
    placement: Optional[Placement] = None,
    cost_model: Optional[CostModel] = None,
) -> List[int]:
    """The op indices along one longest chain, returned source-first."""
    if graph.num_nodes == 0:
        return []
    longest, parent = _longest_paths(graph, cluster, placement, cost_model)
    path = [int(np.argmax(longest))]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    return list(reversed(path))
