"""The placement service: request in, placement out.

:class:`PlacementService` is the programmatic core of ``repro.serve``
(the HTTP endpoint and the micro-batching queue are thin layers over it).
One request names a graph — inline JSON in the ``graph/io.py`` schema, or
a registered workload name — plus a cluster spec, an optional policy
selector and a per-request refinement budget. The response carries the
placement (op name → device index), the predicted step time, the policy
that produced it, cache status and service latency.

Two paths:

* **greedy fast path** (``budget=0``) — one argmax decode of the policy,
  resolved against the environment's constraints; milliseconds once the
  agent is built.
* **bounded refinement** (``budget=N``) — additionally samples ``N``
  placements from the policy and measures greedy + samples through
  :meth:`~repro.sim.env.PlacementEnv.evaluate_batch`, returning the best
  valid candidate. This buys back most of the gap to a full search at a
  tiny, *bounded* cost — the request decides how much inference time it
  is worth (Placeto/GDP's amortized-inference serving mode).

Results are cached by a composite fingerprint — graph content hash
(:meth:`CompGraph.fingerprint`) + policy id + cluster signature + budget
— so identical graphs never re-run inference. The cache
(:mod:`repro.serve.cache`) holds a pending future for each computation
in flight, so identical concurrent requests coalesce: one herd, one
computation, the rest wait on that future and answer with
``cache="coalesced"``. Built environments live in a second instance of
the same cache.
"""

from __future__ import annotations

import re
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro.graph import CompGraph, graph_from_dict
from repro.serve.cache import FingerprintCache
from repro.serve.registry import LoadedPolicy, PolicyRegistry, PolicySpec
from repro.sim.cluster import ClusterSpec
from repro.sim.env import PlacementEnv
from repro.telemetry import HealthConfig, HealthWatchdog, Telemetry, get_telemetry
from repro.telemetry.tracing import SpanContext, new_trace_id, span
from repro.utils.logging import get_logger

logger = get_logger("repro.serve.service")

__all__ = [
    "ServiceError",
    "BadRequest",
    "PolicyNotFound",
    "ServiceOverloaded",
    "ServiceClosed",
    "ServeConfig",
    "PlacementRequest",
    "PlacementResponse",
    "PlacementService",
]


# ----------------------------------------------------------------------
# Errors (each maps to one HTTP status in serve/http.py)
# ----------------------------------------------------------------------
class ServiceError(Exception):
    """Base class for typed service failures."""

    status = 500
    code = "error"


class BadRequest(ServiceError):
    """The request document is malformed or names unknown entities."""

    status = 400
    code = "bad_request"


class PolicyNotFound(ServiceError):
    """No registered policy matches the request's selector."""

    status = 404
    code = "policy_not_found"


class ServiceOverloaded(ServiceError):
    """Admission control rejected the request: the queue is full.

    This is deliberate backpressure, not a transient bug — clients should
    back off and retry; operators should raise ``--workers`` or
    ``--max-queue`` if it is sustained (see docs/serving.md)."""

    status = 503
    code = "overloaded"


class ServiceClosed(ServiceError):
    """The service is shutting down and no longer admits requests."""

    status = 503
    code = "closed"


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass
class ServeConfig:
    """Capacity knobs for one service process (see docs/serving.md)."""

    workers: int = 2  # queue worker threads draining micro-batches
    max_queue: int = 64  # admission limit; beyond it -> ServiceOverloaded
    max_batch: int = 8  # requests drained per micro-batch
    cache_capacity: int = 1024  # fingerprint result cache entries
    cache_ttl: Optional[float] = None  # seconds; None = never expires
    max_budget: int = 64  # per-request refinement budget ceiling
    env_cache_size: int = 8  # built PlacementEnvs kept per service
    coalesce: bool = True  # single-flight identical in-flight requests

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")


# ----------------------------------------------------------------------
# Request / response
# ----------------------------------------------------------------------
@dataclass
class PlacementRequest:
    """One placement query. Exactly one of ``graph`` (a document in the
    ``graph/io.py`` schema) or ``workload`` (a registered generator name)
    must be set."""

    graph: Optional[dict] = None
    workload: Optional[str] = None
    workload_kwargs: dict = field(default_factory=dict)
    #: ``{"kind": "default"|"nvlink", "num_gpus": int, "gpu_memory_gb":
    #: float, ...}``; ``None`` means the paper's default 4-GPU machine.
    cluster: Optional[dict] = None
    policy_id: Optional[str] = None  # pin a specific checkpoint
    agent_kind: Optional[str] = None  # or filter by kind, registry picks
    budget: int = 0  # sampled candidates to refine over (0 = greedy only)
    use_cache: bool = True
    request_id: str = ""
    #: Serialized :class:`SpanContext` (``{"trace_id", "span_id"}``) from
    #: the caller — the HTTP layer plants its root span here so service
    #: spans parent across the queue's thread hop. ``None`` starts a new
    #: trace inside :meth:`PlacementService.handle`.
    trace: Optional[dict] = None

    @classmethod
    def from_json(cls, doc: dict) -> "PlacementRequest":
        if not isinstance(doc, dict):
            raise BadRequest(f"request must be a JSON object, got {type(doc).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise BadRequest(f"unknown request field(s): {', '.join(unknown)}")
        try:
            req = cls(**doc)
        except TypeError as exc:
            raise BadRequest(str(exc)) from exc
        return req


@dataclass
class PlacementResponse:
    """What every request gets back (also the HTTP response body)."""

    request_id: str
    policy_id: str
    agent_kind: str
    workload: str  # graph name the placement is for
    fingerprint: str  # graph content hash (cache identity)
    placement: Dict[str, int]  # op name -> device index
    device_names: List[str]
    predicted_step_time: float  # noise-free simulated step time (seconds)
    valid: bool  # False -> best candidate still OOMs
    cache: str  # "hit" | "miss" | "coalesced" (awaited an in-flight twin)
    budget: int
    candidates_evaluated: int
    latency_ms: float
    trace_id: str = ""  # trace the request was served under (for log joins)

    def to_json(self) -> dict:
        doc = dict(self.__dict__)
        doc["predicted_step_time"] = float(self.predicted_step_time)
        return doc


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class PlacementService:
    """Turns :class:`PlacementRequest` into :class:`PlacementResponse`.

    Thread-safe: the fingerprint cache and telemetry emission are locked,
    and inference on a loaded agent is serialized per policy by the
    registry. Callers wanting concurrency + admission control wrap it in
    :class:`repro.serve.queue.RequestQueue`.
    """

    def __init__(
        self,
        registry: PolicyRegistry,
        config: Optional[ServeConfig] = None,
        telemetry: Optional[Telemetry] = None,
        health: Optional[HealthConfig] = None,
    ):
        self.registry = registry
        self.config = config or ServeConfig()
        self._telemetry = telemetry
        self.cache = FingerprintCache(
            capacity=self.config.cache_capacity, ttl=self.config.cache_ttl
        )
        self.watchdog = HealthWatchdog(
            health if health is not None else HealthConfig(action="warn"),
            telemetry=telemetry,
        )
        self._lock = threading.Lock()  # telemetry emission
        self._envs = FingerprintCache(
            capacity=self.config.env_cache_size, on_evict=lambda env: env.close_pool()
        )

    # ------------------------------------------------------------------
    def _tel(self) -> Telemetry:
        return self._telemetry if self._telemetry is not None else get_telemetry()

    def note_admission(self, rejected: bool) -> None:
        """Admission-control bookkeeping, fed by the request queue (and by
        :meth:`handle` for direct calls). Sustained rejection spikes raise
        the ``rejection_rate`` health alert."""
        tel = self._tel()
        with self._lock:
            tel.counter("serve.requests").inc()
            if rejected:
                tel.counter("serve.rejected").inc()
            self.watchdog.observe_request(rejected)

    def _emit_request(
        self,
        request: PlacementRequest,
        status: str,
        cache: str,
        latency_ms: float,
        policy_id: str = "",
        fingerprint: str = "",
        trace_id: str = "",
        **extra,
    ) -> None:
        tel = self._tel()
        with self._lock:
            tel.histogram("serve.latency_ms").observe(latency_ms)
            if status != "ok":
                tel.counter("serve.errors").inc()
            elif cache == "hit":
                tel.counter("serve.cache_hits").inc()
            elif cache == "coalesced":
                tel.counter("serve.coalesced").inc()
            # Every serviced request feeds the SLO detectors (p99 latency,
            # error burn rate) — including failures, which is the point.
            self.watchdog.observe_serve(latency_ms, ok=(status == "ok"))
            tel.emit(
                "serve_request",
                request_id=request.request_id,
                policy_id=policy_id,
                fingerprint=fingerprint,
                status=status,
                cache=cache,
                latency_ms=float(latency_ms),
                budget=int(request.budget),
                trace_id=trace_id,
                **extra,
            )

    # ------------------------------------------------------------------
    # Request resolution
    # ------------------------------------------------------------------
    def _resolve_graph(self, request: PlacementRequest) -> CompGraph:
        if (request.graph is None) == (request.workload is None):
            raise BadRequest("exactly one of 'graph' or 'workload' must be set")
        if request.graph is not None:
            try:
                return graph_from_dict(request.graph)
            except (ValueError, KeyError, TypeError) as exc:
                raise BadRequest(f"invalid graph document: {exc}") from exc
        from repro.workloads import get_workload

        try:
            return get_workload(request.workload, **request.workload_kwargs)
        except (KeyError, TypeError) as exc:
            raise BadRequest(str(exc)) from exc

    def _resolve_cluster(self, request: PlacementRequest) -> ClusterSpec:
        doc = request.cluster
        if doc is None:
            return ClusterSpec.default()
        if not isinstance(doc, dict):
            raise BadRequest("'cluster' must be an object")
        kind = doc.get("kind", "default")
        kwargs = {k: v for k, v in doc.items() if k != "kind"}
        try:
            if kind == "default":
                return ClusterSpec.default(**kwargs)
            if kind == "nvlink":
                return ClusterSpec.nvlink(**kwargs)
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"invalid cluster spec: {exc}") from exc
        raise BadRequest(f"unknown cluster kind {kind!r} (default|nvlink)")

    def _select_policy(
        self, request: PlacementRequest, graph: CompGraph, cluster: ClusterSpec
    ) -> PolicySpec:
        if request.policy_id is not None:
            spec = self.registry.get(request.policy_id)
            if spec is None:
                raise PolicyNotFound(
                    f"no policy {request.policy_id!r} in the registry "
                    f"({len(self.registry)} registered)"
                )
            if spec.num_devices != cluster.num_devices:
                raise BadRequest(
                    f"policy {spec.policy_id!r} places onto {spec.num_devices} "
                    f"devices, requested cluster has {cluster.num_devices}"
                )
            return spec
        spec = self.registry.select(
            num_devices=cluster.num_devices,
            workload=graph.name,
            agent_kind=request.agent_kind,
        )
        if spec is None:
            raise PolicyNotFound(
                f"no registered policy for {cluster.num_devices} devices"
                + (f" and agent_kind={request.agent_kind!r}" if request.agent_kind else "")
            )
        return spec

    def _env_for(self, graph: CompGraph, cluster: ClusterSpec, key: str) -> PlacementEnv:
        # Pin the service's telemetry session on the env so env.* metrics
        # (and spans) land in the registry /metrics exposes, regardless of
        # which worker thread triggers the build.
        env, _ = self._envs.get_or_compute(
            key, lambda: PlacementEnv(graph, cluster, telemetry=self._telemetry)
        )
        return env

    # ------------------------------------------------------------------
    # The placement computation
    # ------------------------------------------------------------------
    def _compute(
        self,
        request: PlacementRequest,
        graph: CompGraph,
        cluster: ClusterSpec,
        spec: PolicySpec,
        fingerprint: str,
        env_key: str,
    ) -> PlacementResponse:
        try:
            loaded: LoadedPolicy = self.registry.load(spec, graph, cluster, fingerprint)
        except (ValueError, KeyError, OSError) as exc:
            # Device-count/feature-dim/group-count mismatch, deleted
            # checkpoint, ...
            raise BadRequest(
                f"policy {spec.policy_id!r} cannot serve this request: {exc}"
            ) from exc
        env = self._env_for(graph, cluster, env_key)

        with loaded.lock:
            greedy = loaded.agent.sample(1, np.random.default_rng(0), greedy=True)
            candidates = [env.resolve(greedy.placements[0]).devices]
            if request.budget > 0:
                # Deterministic per-fingerprint sampling: the same request
                # re-computed after a cache eviction returns the same
                # placement.
                rng = np.random.default_rng(
                    int(fingerprint[:16], 16) ^ request.budget
                )
                rollout = loaded.agent.sample(request.budget, rng)
                candidates.extend(
                    env.resolve(actions).devices for actions in rollout.placements
                )

        results = env.evaluate_batch(candidates)
        best_index = 0
        best_time = float("inf")
        for i, result in enumerate(results):
            if result.ok and result.per_step_time < best_time:
                best_index, best_time = i, result.per_step_time
        devices = candidates[best_index]
        placement = env.resolve(devices)
        _, oom = env.check_memory(placement)
        valid = not bool(oom.any())
        predicted = env.makespan(placement) if valid else float("inf")

        return PlacementResponse(
            request_id=request.request_id,
            policy_id=spec.policy_id,
            agent_kind=spec.agent_kind,
            workload=graph.name,
            fingerprint=fingerprint,
            placement={
                node.name: int(device)
                for node, device in zip(graph.nodes, placement.devices)
            },
            device_names=[d.name for d in cluster.devices],
            predicted_step_time=float(predicted),
            valid=valid,
            cache="miss",
            budget=int(request.budget),
            candidates_evaluated=len(candidates),
            latency_ms=0.0,
        )

    # ------------------------------------------------------------------
    def handle(self, request: PlacementRequest) -> PlacementResponse:
        """Serve one request synchronously. Raises the typed
        :class:`ServiceError` subclasses on failure."""
        start = time.perf_counter()
        if not request.request_id:
            request.request_id = f"req-{uuid.uuid4().hex[:12]}"
        # Join the caller's trace (the HTTP layer's root span, carried
        # across the queue hop in `request.trace`) or start a fresh one.
        # Responses always carry a trace_id — even when tracing is
        # inactive and no span events are emitted — so clients can quote
        # it in bug reports unconditionally.
        parent_ctx = SpanContext.from_dict(request.trace) if request.trace else None
        handle_span = span(
            "service.handle",
            telemetry=self._tel(),
            parent=parent_ctx,
            new_trace=parent_ctx is None,
            request_id=request.request_id,
        )
        with handle_span:
            ctx = handle_span.context
            if ctx is not None:
                trace_id = ctx.trace_id
            elif parent_ctx is not None:
                trace_id = parent_ctx.trace_id
            else:
                trace_id = new_trace_id()
            if request.budget < 0 or request.budget > self.config.max_budget:
                raise BadRequest(
                    f"budget must be in [0, {self.config.max_budget}], "
                    f"got {request.budget}"
                )
            try:
                graph = self._resolve_graph(request)
                cluster = self._resolve_cluster(request)
                spec = self._select_policy(request, graph, cluster)
                fingerprint = graph.fingerprint()
                cluster_sig = cluster.signature()
                key = f"{fingerprint}:{cluster_sig}:{spec.policy_id}:{request.budget}"


                def compute() -> PlacementResponse:
                    response = self._compute(
                        request,
                        graph,
                        cluster,
                        spec,
                        fingerprint,
                        f"{fingerprint}:{cluster_sig}",
                    )
                    response.latency_ms = (time.perf_counter() - start) * 1e3
                    response.trace_id = trace_id
                    return response

                # `use_cache=False` skips the cache and its coalescing: that
                # request explicitly wants its own computation.
                if request.use_cache:
                    lookup_start = time.perf_counter()
                    response, state = self.cache.get_or_compute(
                        key, compute, coalesce=self.config.coalesce
                    )
                else:
                    response, state = compute(), "miss"
                if state == "miss":
                    with self._lock:
                        self._tel().gauge("serve.cache_size").set(len(self.cache))
                else:
                    # A hit or a coalesced wait answers with the computing
                    # request's response under this request's identity.
                    if state == "coalesced":
                        with self._lock:
                            self._tel().histogram("serve.coalesce_wait_s").observe(
                                time.perf_counter() - lookup_start
                            )
                    response = replace(
                        response,
                        request_id=request.request_id,
                        cache=state,
                        latency_ms=(time.perf_counter() - start) * 1e3,
                        trace_id=trace_id,
                    )
                self._emit_request(
                    request,
                    "ok",
                    state,
                    response.latency_ms,
                    policy_id=response.policy_id,
                    fingerprint=response.fingerprint,
                    trace_id=trace_id,
                    predicted_step_time=float(response.predicted_step_time),
                    valid=bool(response.valid),
                    workload=response.workload,
                )
                return response
            except ServiceError as exc:
                latency_ms = (time.perf_counter() - start) * 1e3
                self._emit_request(
                    request, exc.code, "none", latency_ms, trace_id=trace_id
                )
                raise

    # ------------------------------------------------------------------
    # Cache warming
    # ------------------------------------------------------------------
    #: Workload graph names encode their build kwargs —
    #: ``<generator>_b<batch>[_s<scale>]`` (see repro/workloads) — so a
    #: sidecar's ``workload`` field can be replayed into the exact graph
    #: (and fingerprint) the policy was trained on.
    _WORKLOAD_NAME = re.compile(r"^(?P<gen>[a-z0-9_]+?)_b(?P<batch>\d+)(?:_s(?P<scale>[0-9.]+))?$")

    def _warm_request(self, spec: PolicySpec, budget: int) -> Optional[PlacementRequest]:
        """The replay request for one registered checkpoint, or ``None``
        when its workload name cannot be reconstructed."""
        from repro.workloads import WORKLOADS

        name, kwargs = spec.workload, {}
        if name not in WORKLOADS:
            match = self._WORKLOAD_NAME.match(name)
            if match is None or match.group("gen") not in WORKLOADS:
                return None
            name = match.group("gen")
            kwargs = {"batch_size": int(match.group("batch"))}
            if match.group("scale") is not None:
                kwargs["scale"] = float(match.group("scale"))
        return PlacementRequest(
            workload=name,
            workload_kwargs=kwargs,
            policy_id=spec.policy_id,
            budget=budget,
        )

    def warm(self, budget: int = 0) -> int:
        """Pre-populate the result cache by replaying every registered
        checkpoint's workload fingerprint through :meth:`handle`
        (``python -m repro.serve --warm``; docs/serving.md §4).

        Best-effort: checkpoints whose workload name is not a registered
        generator (or whose cluster shape differs from the default) are
        skipped with a log line, never an error. Returns the number of
        cache entries written."""
        default_devices = ClusterSpec.default().num_devices
        warmed = 0
        for spec in self.registry.policies():
            if not spec.workload or spec.num_devices != default_devices:
                continue
            request = self._warm_request(spec, budget)
            if request is None:
                logger.info(
                    "warm: skipping %s (workload %r is not a registered generator)",
                    spec.policy_id,
                    spec.workload,
                )
                continue
            try:
                response = self.handle(request)
            except ServiceError as exc:
                logger.warning("warm: %s failed: %s", spec.policy_id, exc)
                continue
            if response.cache == "miss":
                warmed += 1
                with self._lock:
                    self._tel().counter("serve.warmed").inc()
        if warmed:
            logger.info("warm: %d cache entries pre-populated", warmed)
        return warmed

    def close(self) -> None:
        """Drop the cached environments, calling each one's release hook."""
        self._envs.clear()
