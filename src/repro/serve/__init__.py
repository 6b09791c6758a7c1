"""Placement-as-a-service: query trained placers on demand.

The offline experiment runners train agents; this package is the online
half — the amortized-inference mode that makes a learned placer pay off
(Placeto/GDP's argument): a trained policy, queried cheaply on unseen
graphs. See docs/serving.md for the guide.

Layers, bottom up:

* :class:`FingerprintCache` — the one keyed cache: a thread-safe LRU
  (+ optional TTL) of futures whose pending entries make identical
  concurrent lookups share one computation. The registry's agents, the
  service's environments and its results each live in one.
* :class:`PolicyRegistry` — scans a checkpoint directory's sidecars,
  indexes agents by ``(agent_kind, workload, num_devices)``, rebuilds
  them lazily with :func:`repro.core.load_agent`, hot-reloads on refresh.
* :class:`PlacementService` — the programmatic API: request in (graph
  JSON or workload name + cluster spec + refinement budget), response
  out (placement, predicted step time, policy id, cache status, latency);
  greedy fast path, bounded refinement via ``evaluate_batch``, and a
  fingerprint result cache that also coalesces identical in-flight
  requests. :meth:`PlacementService.submit` adds admission control: at
  most ``workers`` requests compute at once, a bounded line waits for a
  slot, and overload is the typed :class:`ServiceOverloaded` error.
* :class:`PlacementServer` — the stdlib HTTP endpoint, whose handler
  threads compute their own requests through ``submit``; ``python -m
  repro.serve`` runs it standalone.

Quickstart::

    from repro.serve import PolicyRegistry, PlacementService, PlacementRequest

    registry = PolicyRegistry("checkpoints/")
    service = PlacementService(registry)
    response = service.handle(PlacementRequest(workload="vgg16", budget=8))
    print(response.placement, response.predicted_step_time)
"""

from repro.serve.cache import CacheStats, FingerprintCache
from repro.serve.http import PlacementServer
from repro.serve.registry import LoadedPolicy, PolicyRegistry, PolicySpec
from repro.serve.service import (
    BadRequest,
    PlacementRequest,
    PlacementResponse,
    PlacementService,
    PolicyNotFound,
    ServeConfig,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    ServiceTimeout,
)

__all__ = [
    "BadRequest",
    "CacheStats",
    "FingerprintCache",
    "LoadedPolicy",
    "PlacementRequest",
    "PlacementResponse",
    "PlacementServer",
    "PlacementService",
    "PolicyNotFound",
    "PolicyRegistry",
    "PolicySpec",
    "ServeConfig",
    "ServiceClosed",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceTimeout",
]
