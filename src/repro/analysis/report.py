"""Aggregate placement diagnostics.

:func:`analyze_placement` attributes one traced step
(:func:`repro.sim.attribution.attribute_schedule`: busy time, op counts,
communication) and adds what the schedule does not hold — per-device
memory, the OOM check and cut edges — into a :class:`PlacementReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim import CostModel, MemoryModel, Placement, Scheduler, attribute_schedule


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
    """Attribute one traced step and compile a :class:`PlacementReport`."""
    attr = attribute_schedule(
        placement, Scheduler(cost_model).run_step(placement, trace=True)
    )
    memory = (memory_model or MemoryModel()).check(placement)
    names, makespan = attr.device_names, attr.makespan
    busy = attr.device_busy.tolist()
    return PlacementReport(
        makespan=makespan,
        device_busy=dict(zip(names, busy)),
        device_utilization={
            n: b / makespan if makespan else 0.0 for n, b in zip(names, busy)
        },
        device_memory_gb=dict(zip(names, (memory.usage / 2**30).tolist())),
        device_op_counts=dict(zip(names, attr.device_op_counts.tolist())),
        comm_time=attr.comm_time,
        comm_bytes=attr.comm_bytes,
        cut_edges=placement.num_cut_edges(),
        fits_memory=memory.fits,
    )
