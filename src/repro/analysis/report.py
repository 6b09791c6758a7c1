"""Aggregate placement diagnostics.

:func:`analyze_placement` simulates one placement and compiles a
:class:`PlacementReport` (per-device busy time/utilization/memory,
communication breakdown, cut edges, OOM check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.sim import CostModel, MemoryModel, Placement, Scheduler


@dataclass
class PlacementReport:
    """Everything measurable about one placement on one cluster."""

    makespan: float
    device_busy: Dict[str, float]
    device_utilization: Dict[str, float]
    device_memory_gb: Dict[str, float]
    device_op_counts: Dict[str, int]
    comm_time: float
    comm_bytes: float
    cut_edges: int
    fits_memory: bool

    def summary(self) -> str:
        lines = [f"step time {self.makespan * 1e3:.2f} ms, "
                 f"{self.cut_edges} cut edges, "
                 f"{self.comm_bytes / 2**20:.1f} MB shipped "
                 f"({self.comm_time * 1e3:.2f} ms on links)"]
        if not self.fits_memory:
            lines.append("WARNING: placement exceeds device memory (OOM)")
        for name in self.device_busy:
            lines.append(
                f"  {name}: {self.device_op_counts[name]} ops, "
                f"busy {self.device_busy[name] * 1e3:.2f} ms "
                f"({self.device_utilization[name]:.0%} of step), "
                f"{self.device_memory_gb[name]:.2f} GB"
            )
        return "\n".join(lines)


def analyze_placement(
    placement: Placement,
    cost_model: Optional[CostModel] = None,
    memory_model: Optional[MemoryModel] = None,
) -> PlacementReport:
    """Run the simulator once and compile a :class:`PlacementReport`."""
    cluster = placement.cluster
    scheduler = Scheduler(cost_model)
    result = scheduler.run_step(placement)
    memory = (memory_model or MemoryModel()).check(placement)

    names = [d.name for d in cluster.devices]
    counts = np.bincount(placement.devices, minlength=cluster.num_devices)
    busy = {n: float(result.device_busy[i]) for i, n in enumerate(names)}
    util = {
        n: float(result.device_busy[i] / result.makespan) if result.makespan else 0.0
        for i, n in enumerate(names)
    }
    mem = {n: float(memory.usage[i] / 2**30) for i, n in enumerate(names)}
    ops = {n: int(counts[i]) for i, n in enumerate(names)}
    return PlacementReport(
        makespan=result.makespan,
        device_busy=busy,
        device_utilization=util,
        device_memory_gb=mem,
        device_op_counts=ops,
        comm_time=result.comm_time,
        comm_bytes=result.comm_bytes,
        cut_edges=placement.num_cut_edges(),
        fits_memory=memory.fits,
    )

