"""The placement service: request in, placement out.

:class:`PlacementService` is the programmatic core of ``repro.serve``
(the HTTP endpoint is a thin layer over it).
One request names a graph — inline JSON in the ``graph/io.py`` schema, or
a registered workload name — plus a cluster spec, an optional policy
selector and a per-request refinement budget. The response carries the
placement (op name → device index), the predicted step time, the policy
that produced it, cache status and service latency.

Two paths:

* **greedy fast path** (``budget=0``) — one argmax decode of the policy,
  resolved against the environment's constraints; milliseconds once the
  agent is built.
* **bounded refinement** (``budget=N``) — one decode of ``N + 1`` rows:
  ``N`` placements sampled from the policy and the greedy one as the
  last row, all measured through
  :meth:`~repro.sim.env.PlacementEnv.evaluate_batch`, returning the best
  valid candidate. This buys back most of the gap to a full search at a
  tiny, *bounded* cost — the request decides how much inference time it
  is worth (Placeto/GDP's amortized-inference serving mode).

Results are cached by a composite fingerprint — graph content hash
(:func:`~repro.graph.io.document_fingerprint` of the request's graph
document, equal to :meth:`CompGraph.fingerprint` of the graph it
describes) + policy id + cluster signature + budget — so identical
graphs never re-run inference, and a hit never builds the graph: it
costs one hash and one lookup. The cache
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
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.graph import CompGraph, document_fingerprint, graph_from_dict
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
    "ServiceTimeout",
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
    """Admission control rejected the request: every compute slot is busy
    and ``ServeConfig.max_queue`` requests already wait for one.

    This is deliberate backpressure, not a transient bug — clients should
    back off and retry; operators should raise ``--workers`` or
    ``--max-queue`` if it is sustained (see docs/serving.md)."""

    status = 503
    code = "overloaded"


class ServiceClosed(ServiceError):
    """The service is shutting down and no longer admits requests."""

    status = 503
    code = "closed"


class ServiceTimeout(ServiceError):
    """No compute slot freed up within the caller's timeout. The request
    was never computed."""

    status = 504
    code = "timeout"


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass
class ServeConfig:
    """Capacity knobs for one service process (see docs/serving.md)."""

    workers: int = 2  # requests computed at once
    max_queue: int = 64  # requests waiting for a slot; beyond -> ServiceOverloaded
    cache_capacity: int = 1024  # fingerprint result cache entries
    cache_ttl: Optional[float] = None  # seconds; None = never expires
    max_budget: int = 64  # per-request refinement budget ceiling
    env_cache_size: int = 8  # built PlacementEnvs kept per service

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")


# ----------------------------------------------------------------------
# Request / response
# ----------------------------------------------------------------------
_STRING_OR_NULL = ((str, type(None)), "a string or null")
_OBJECT_OR_NULL = ((dict, type(None)), "an object or null")
#: The JSON type each request field accepts, and its name in the 400.
_FIELD_TYPES: Dict[str, Tuple[tuple, str]] = {
    "graph": _OBJECT_OR_NULL,
    "workload": _STRING_OR_NULL,
    "workload_kwargs": ((dict,), "an object"),
    "cluster": _OBJECT_OR_NULL,
    "policy_id": _STRING_OR_NULL,
    "agent_kind": _STRING_OR_NULL,
    "budget": ((int,), "an integer"),
    "use_cache": ((bool,), "a boolean"),
    "request_id": _STRING_OR_NULL,
    "trace": _OBJECT_OR_NULL,
}


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
    #: Serialized :class:`SpanContext` (``{"trace_id", "span_id"}``) of
    #: the caller's span, for a caller on another thread or process.
    #: ``None`` joins the calling thread's current span (the HTTP
    #: layer's ``http.request``), or starts a new trace if there is none.
    trace: Optional[dict] = None

    @classmethod
    def from_json(cls, doc: dict) -> "PlacementRequest":
        if not isinstance(doc, dict):
            raise BadRequest(f"request must be a JSON object, got {type(doc).__name__}")
        unknown = sorted(set(doc) - set(_FIELD_TYPES))
        if unknown:
            raise BadRequest(f"unknown request field(s): {', '.join(unknown)}")
        for name, value in doc.items():
            types, expected = _FIELD_TYPES[name]
            # bool is an int subclass: a ``true`` budget is a type error.
            if not isinstance(value, types) or (
                isinstance(value, bool) and bool not in types
            ):
                raise BadRequest(
                    f"request field {name!r} must be {expected}, "
                    f"got {type(value).__name__}"
                )
        return cls(**doc)


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
    registry. :meth:`handle` serves a request unconditionally;
    :meth:`submit` first passes it through the admission gate.
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
        # Admission gate (see submit): slots taken, and one event per
        # request waiting for a slot, oldest first.
        self._gate = threading.Condition()
        self._running = 0
        self._waiters: Deque[threading.Event] = deque()
        self._closed = False

    # ------------------------------------------------------------------
    def _tel(self) -> Telemetry:
        return self._telemetry if self._telemetry is not None else get_telemetry()

    @property
    def queue_depth(self) -> int:
        """Admitted requests waiting for a compute slot."""
        return len(self._waiters)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` began (``submit`` then rejects)."""
        return self._closed

    def note_admission(self, rejected: bool) -> None:
        """Admission-control bookkeeping, fed by :meth:`submit`. Sustained
        rejection spikes raise the ``rejection_rate`` health alert."""
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

    def _identify(self, request: PlacementRequest) -> Tuple[Optional[CompGraph], str, Any]:
        """``(graph, fingerprint, graph name)`` for the request. A graph
        document is hashed without building it (``graph`` is ``None``),
        so only a computation pays for the parse; a workload is built,
        since its name alone does not fix its content."""
        if (request.graph is None) == (request.workload is None):
            raise BadRequest("exactly one of 'graph' or 'workload' must be set")
        if request.graph is None:
            graph = self._resolve_graph(request)
            return graph, graph.fingerprint(), graph.name
        try:
            fingerprint, name = document_fingerprint(request.graph)
        except (ValueError, KeyError, TypeError) as exc:
            # Too malformed to hash: the parser's message names the fault.
            self._resolve_graph(request)
            raise BadRequest(f"invalid graph document: {exc}") from exc
        return None, fingerprint, name

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
        self, request: PlacementRequest, graph_name: Any, cluster: ClusterSpec
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
            workload=graph_name,
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
        # which thread triggers the build.
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

        # One decode of budget + 1 rows: the budget's samples, then the
        # greedy candidate as the last row. Sampling is deterministic per
        # fingerprint, so the same request re-computed after a cache
        # eviction returns the same placement.
        rng = np.random.default_rng(int(fingerprint[:16], 16) ^ request.budget)
        with loaded.lock:
            rollout = loaded.agent.sample(request.budget + 1, rng, greedy=1)
        # The greedy candidate goes first, so it wins ties.
        placements = np.roll(rollout.placements, 1, axis=0)
        candidates = [env.resolve(actions).devices for actions in placements]

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
        # Join the caller's trace (`request.trace`, else the thread's
        # current span, e.g. the HTTP layer's root) or start a fresh one.
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
                graph, fingerprint, graph_name = self._identify(request)
                cluster = self._resolve_cluster(request)
                spec = self._select_policy(request, graph_name, cluster)
                cluster_sig = cluster.signature()
                key = f"{fingerprint}:{cluster_sig}:{spec.policy_id}:{request.budget}"

                def compute() -> PlacementResponse:
                    # An invalid document fails here, inside the single
                    # flight: its 400 reaches every coalesced twin and no
                    # cache entry is left behind.
                    response = self._compute(
                        request,
                        graph if graph is not None else self._resolve_graph(request),
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
                    response, state = self.cache.get_or_compute(key, compute)
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

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(
        self, request: PlacementRequest, timeout: Optional[float] = None
    ) -> PlacementResponse:
        """Admit ``request``, then serve it with :meth:`handle` on the
        calling thread (the HTTP handler's).

        At most ``config.workers`` requests compute at once; the others
        wait for a slot in arrival order. Raises :class:`ServiceClosed`
        once :meth:`close` began, :class:`ServiceOverloaded` at once when
        ``config.max_queue`` requests already wait, and
        :class:`ServiceTimeout` when no slot frees up within ``timeout``
        seconds; a timed-out request is never computed.
        """
        tel = self._tel()
        parent = SpanContext.from_dict(request.trace) if request.trace else None
        start = time.perf_counter()
        try:
            with span("queue.wait", telemetry=tel, parent=parent,
                      request_id=request.request_id):
                self._take_slot(timeout)
        except ServiceTimeout:
            self._observe_slo(start, ok=False)
            raise
        wait_s = time.perf_counter() - start
        ok = False
        try:
            response = self.handle(request)
            ok = True
            return response
        finally:
            compute_s = time.perf_counter() - start - wait_s
            self._release_slot()
            with self._lock:
                # Wait vs compute, split so `serve.latency_ms` spikes can
                # be blamed on backlog or on slow evaluations.
                tel.histogram("serve.queue_wait_s").observe(wait_s)
                tel.histogram("serve.compute_s").observe(compute_s)
            self._observe_slo(start, ok)

    def _observe_slo(self, start: float, ok: bool) -> None:
        """Feed the SLO detectors (p99 latency, error burn rate) one
        admitted request: its latency from entering :meth:`submit` to its
        answer, slot wait included, as a client sees it; failures count."""
        with self._lock:
            self.watchdog.observe_serve((time.perf_counter() - start) * 1e3, ok=ok)

    def _gauge_depth(self) -> None:
        with self._lock:
            self._tel().gauge("serve.queue_depth").set(len(self._waiters))

    def _take_slot(self, timeout: Optional[float]) -> None:
        """Take one of the ``config.workers`` compute slots, waiting for
        one when all are taken (see :meth:`submit`)."""
        error: Optional[ServiceError] = None
        waiter: Optional[threading.Event] = None
        with self._gate:
            if self._closed:
                error = ServiceClosed("service is shutting down")
            elif self._running < self.config.workers:
                # A free slot means nobody waits: _release_slot hands a
                # slot straight to the oldest waiter while there is one.
                self._running += 1
            elif len(self._waiters) >= self.config.max_queue:
                error = ServiceOverloaded(
                    f"wait line full ({len(self._waiters)} requests wait for a "
                    "compute slot); retry later"
                )
            else:
                waiter = threading.Event()
                self._waiters.append(waiter)
                self._gauge_depth()
        self.note_admission(rejected=error is not None)
        if error is not None:
            raise error
        if waiter is None or waiter.wait(timeout):
            return
        with self._gate:
            if waiter.is_set():  # handed a slot as the wait timed out
                return
            self._waiters.remove(waiter)
            self._gauge_depth()
        raise ServiceTimeout(f"no compute slot freed up within {timeout:g} s")

    def _release_slot(self) -> None:
        with self._gate:
            if self._waiters:
                self._waiters.popleft().set()  # the slot passes on as is
                self._gauge_depth()
            else:
                self._running -= 1
                self._gate.notify_all()  # close() waits for an idle gate

    def close(self, timeout: Optional[float] = 30.0) -> None:
        """Stop admitting requests, wait (up to ``timeout`` seconds) until
        every admitted one has been served, then drop the cached
        environments, calling each one's release hook."""
        with self._gate:
            self._closed = True
            if not self._gate.wait_for(
                lambda: not self._running and not self._waiters, timeout
            ):
                logger.warning(
                    "close: %d requests still running after %s s",
                    self._running + len(self._waiters), timeout,
                )
        self._envs.clear()
