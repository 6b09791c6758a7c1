"""Per-op execution and transfer cost model (roofline style).

The time of a training-step execution of one op on one device is::

    launch_overhead + max(compute_time, memory_time)

with ``compute_time = backward_factor * flops / (peak * efficiency)`` and
``memory_time`` derived from the bytes the op touches. ``backward_factor``
accounts for the backward pass (~2x forward) executed in the same step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph import CompGraph
from repro.sim.cluster import ClusterSpec
from repro.sim.device import DeviceSpec


@dataclass(frozen=True)
class CostModel:
    """Maps (op, device) -> seconds and (tensor, link) -> seconds."""

    backward_factor: float = 3.0  # fwd + bwd ≈ 3x fwd FLOPs
    memory_traffic_factor: float = 3.0  # activations are read/written ~3x per step

    def op_time(self, node, device: DeviceSpec) -> float:
        eff = device.efficiency_for(node.op_type)
        compute = self.backward_factor * node.flops / (device.peak_flops * eff)
        touched = self.memory_traffic_factor * node.activation_bytes + 2.0 * node.param_bytes
        memory = touched / device.mem_bandwidth
        return device.launch_overhead + max(compute, memory)

    def op_time_matrix(self, graph: CompGraph, cluster: ClusterSpec) -> np.ndarray:
        """Precomputed ``(num_ops, num_devices)`` time table.

        Vectorized over ops per device — same IEEE-754 operations in the
        same per-element order as :meth:`op_time`, so the table is
        bit-identical to the scalar loop it replaced. A subclass that
        overrides ``op_time`` gets the scalar loop (the closed form below
        would silently disagree with it).
        """
        n, d = graph.num_nodes, cluster.num_devices
        out = np.empty((n, d))
        if type(self).op_time is not CostModel.op_time:
            for j, dev in enumerate(cluster.devices):
                for i, node in enumerate(graph.nodes):
                    out[i, j] = self.op_time(node, dev)
            return out
        nodes = graph.nodes
        scaled_flops = self.backward_factor * np.array(
            [node.flops for node in nodes], dtype=np.float64
        )
        touched = np.array(
            [
                self.memory_traffic_factor * node.activation_bytes
                + 2.0 * node.param_bytes
                for node in nodes
            ],
            dtype=np.float64,
        )
        # Efficiency lookups dedupe through op-type ids: one dict probe
        # per distinct op type per device instead of one per op.
        type_index: dict = {}
        type_ids = np.array(
            [type_index.setdefault(node.op_type, len(type_index)) for node in nodes],
            dtype=np.intp,
        )
        for j, dev in enumerate(cluster.devices):
            eff = np.array(
                [dev.efficiency_for(t) for t in type_index], dtype=np.float64
            )[type_ids]
            compute = scaled_flops / (dev.peak_flops * eff)
            memory = touched / dev.mem_bandwidth
            out[:, j] = dev.launch_overhead + np.maximum(compute, memory)
        return out

    def transfer_time(
        self, nbytes: float, cluster: ClusterSpec, src: int, dst: int
    ) -> float:
        # Gradient of the tensor flows back across the same edge during the
        # backward pass, so a cut edge pays the transfer twice per step.
        return cluster.link_latency + 2.0 * nbytes / cluster.bandwidth_between(src, dst)

    def transfer_time_table(self, nbytes: np.ndarray, cluster: ClusterSpec) -> np.ndarray:
        """Precomputed ``(num_devices, num_devices, len(nbytes))`` table:
        entry ``[src, dst, i]`` is :meth:`transfer_time` of ``nbytes[i]``
        on the ``src``->``dst`` link (zero on the diagonal: nothing ships).

        One vectorized call per device pair — elementwise the same
        IEEE-754 operations as the scalar formula, so the table is
        bit-identical to it. A subclass that overrides ``transfer_time``
        gets one scalar call per entry, as for :meth:`op_time_matrix`.
        """
        d = cluster.num_devices
        out = np.zeros((d, d, len(nbytes)))
        vectorized = type(self).transfer_time is CostModel.transfer_time
        for src in range(d):
            for dst in range(d):
                if src == dst:
                    continue
                if vectorized:
                    out[src, dst] = self.transfer_time(nbytes, cluster, src, dst)
                else:
                    out[src, dst] = [
                        self.transfer_time(b, cluster, src, dst) for b in nbytes.tolist()
                    ]
        return out
