"""Cluster topology: devices plus interconnect."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.sim.device import GB, DeviceSpec


@dataclass(frozen=True)
class ClusterSpec:
    """The machine the workload is placed on.

    The interconnect is modeled as dedicated full-duplex PCIe-class links
    between every device pair; each unordered pair is one serialized
    resource (transfers between the same two devices queue up, transfers on
    disjoint pairs proceed in parallel).
    """

    devices: Tuple[DeviceSpec, ...]
    # Effective inter-device throughput of TF 1.x tensor transfers is far
    # below PCIe line rate (serialization + grpc/send-recv overheads).
    link_bandwidth: float = 3.0 * GB
    link_latency: float = 5.0e-5
    step_overhead: float = 5.0e-3  # session/iterator overhead per train step
    #: Optional per-pair bandwidth overrides (NVLink-style topologies):
    #: ``((device_index_a, device_index_b, bytes_per_second), ...)``.
    link_overrides: Tuple[Tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("cluster needs at least one device")
        names = [d.name for d in self.devices]
        if len(set(names)) != len(names):
            raise ValueError("duplicate device names")
        if not any(d.kind == "cpu" for d in self.devices):
            raise ValueError("cluster needs a CPU for host-only ops")

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def gpu_indices(self) -> List[int]:
        return [i for i, d in enumerate(self.devices) if d.is_gpu]

    @property
    def cpu_index(self) -> int:
        for i, d in enumerate(self.devices):
            if d.kind == "cpu":
                return i
        raise RuntimeError("unreachable: validated in __post_init__")

    def signature(self) -> str:
        """Stable content hash of the cluster (hex sha256, truncated).

        Covers everything that affects a placement measurement: per-device
        capabilities, link bandwidth/latency, step overhead and link
        overrides. Used by the serving layer (``repro.serve``) to key
        result caches — the same graph on a different machine must not
        share cache entries.
        """
        import hashlib
        import json

        doc = {
            "devices": [
                {
                    "name": d.name,
                    "kind": d.kind,
                    "peak_flops": d.peak_flops,
                    "mem_bandwidth": d.mem_bandwidth,
                    "memory": d.memory,
                    "launch_overhead": d.launch_overhead,
                    "efficiency": dict(sorted(d.efficiency.items())),
                }
                for d in self.devices
            ],
            "link_bandwidth": self.link_bandwidth,
            "link_latency": self.link_latency,
            "step_overhead": self.step_overhead,
            "link_overrides": sorted(
                (min(a, b), max(a, b), bw) for a, b, bw in self.link_overrides
            ),
        }
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def bandwidth_between(self, a: int, b: int) -> float:
        """Effective bandwidth of the ``a``-``b`` link (order-insensitive)."""
        for x, y, bw in self.link_overrides:
            if {x, y} == {a, b}:
                return bw
        return self.link_bandwidth

    @classmethod
    def default(cls, num_gpus: int = 4, gpu_memory_gb: float = 12.0) -> "ClusterSpec":
        """The paper's machine: 4x P100 12GB + Xeon host."""
        gpus = tuple(DeviceSpec.p100(i, gpu_memory_gb) for i in range(num_gpus))
        return cls(devices=gpus + (DeviceSpec.xeon(0),))

    @classmethod
    def nvlink(
        cls,
        num_gpus: int = 4,
        gpu_memory_gb: float = 12.0,
        nvlink_bandwidth: float = 20.0 * GB,
    ) -> "ClusterSpec":
        """Like :meth:`default` but adjacent GPU pairs share an NVLink-class
        fast link (GPU 0-1, 2-3, ...), as on DGX-style boxes."""
        gpus = tuple(DeviceSpec.p100(i, gpu_memory_gb) for i in range(num_gpus))
        overrides = tuple(
            (i, i + 1, nvlink_bandwidth) for i in range(0, num_gpus - 1, 2)
        )
        return cls(devices=gpus + (DeviceSpec.xeon(0),), link_overrides=overrides)
