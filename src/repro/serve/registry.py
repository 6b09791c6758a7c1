"""Checkpoint-directory policy registry with lazy loading and hot reload.

A checkpoint directory (written by :func:`repro.core.save_agent`) holds
``<stem>.npz`` parameter archives with ``<stem>.json`` sidecars. The
registry scans the sidecars — cheap, no parameter I/O — and indexes the
policies by ``(agent_kind, workload, num_devices)``.

Two :class:`FingerprintCache` instances materialize them lazily:

* **parameters**, keyed ``(policy, sidecar mtime)``: the agent
  :func:`repro.core.load_agent` rebuilds from the checkpoint when a
  request first needs the policy — one checkpoint read and one random
  init per policy, however many graphs it serves;
* **graph bindings**, keyed ``(policy, sidecar mtime, graph fingerprint,
  cluster signature)``: :meth:`~repro.rl.policy.PolicyAgent.bind` of the
  cached parameters to the request's graph — features, adjacency and op
  count over the *same* modules, no init and no disk. The graph whose
  request loaded the parameters binds to the agent ``load_agent`` built
  over it, so a cold graph's features are computed once.

Repeated requests against one graph reuse one binding, and concurrent
first requests build each entry once.

Hot reload: :meth:`PolicyRegistry.refresh` rescans the directory. New
sidecars become servable immediately; removed ones disappear; a sidecar
whose mtime changed (a retrained checkpoint saved over the old stem)
invalidates its parameters and every binding built from them, including
loads still in flight. ``save_agent`` writes atomically and
sidecar-last, so a concurrent refresh never observes a half-written
checkpoint.
"""

from __future__ import annotations

import glob
import json
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import MarsConfig
from repro.graph import CompGraph, FeatureExtractor
from repro.serve.cache import FingerprintCache
from repro.sim.cluster import ClusterSpec
from repro.utils.logging import get_logger

logger = get_logger("repro.serve.registry")

__all__ = ["PolicySpec", "PolicyRegistry", "LoadedPolicy"]

#: Entries kept per registry in each of its two caches: loaded parameter
#: sets, and graph bindings to them. Loading a policy costs 5-10 ms and a
#: binding 1-3 ms on the benchmarks' graphs, while holding hundreds
#: is memory, so the default favors small.
DEFAULT_AGENT_CACHE = 8


@dataclass(frozen=True)
class PolicySpec:
    """One servable checkpoint, as described by its sidecar."""

    policy_id: str  # sidecar stem, unique within the directory
    path: str  # checkpoint path without extension (load_agent target)
    agent_kind: str
    workload: str
    num_devices: int
    num_ops: int
    feature_dim: int
    mtime: float  # sidecar mtime at scan; drives hot-reload invalidation
    meta: dict = field(compare=False, hash=False, repr=False, default_factory=dict)

    def to_json(self) -> dict:
        return {
            "policy_id": self.policy_id,
            "agent_kind": self.agent_kind,
            "workload": self.workload,
            "num_devices": self.num_devices,
            "num_ops": self.num_ops,
            "feature_dim": self.feature_dim,
        }


@dataclass
class LoadedPolicy:
    """A graph binding plus the lock serializing inference on its modules.

    Every binding of one parameter set shares its modules and its lock:
    a run mutates module state (``TransformerXLPlacer`` rewrites its
    segment memory), so concurrent workers must not drive the same
    modules at once, through any graph; each worker takes ``lock``
    around ``agent.sample``. (The ``no_grad`` flag sampling runs under
    is per thread, so it needs no lock.)
    """

    spec: PolicySpec
    agent: object
    graph: CompGraph
    lock: threading.Lock = field(default_factory=threading.Lock)


class PolicyRegistry:
    """Scans, indexes and lazily materializes a directory of checkpoints."""

    def __init__(
        self,
        checkpoint_dir: str,
        config: Optional[MarsConfig] = None,
        feature_extractor: Optional[FeatureExtractor] = None,
        agent_cache_size: int = DEFAULT_AGENT_CACHE,
    ):
        self.checkpoint_dir = checkpoint_dir
        #: Fallback config for sidecars without a config echo; ``None``
        #: makes such checkpoints unservable (clear error on load).
        self.config = config
        self.feature_extractor = feature_extractor
        self.agent_cache_size = max(1, int(agent_cache_size))
        self._lock = threading.Lock()
        self._specs: Dict[str, PolicySpec] = {}
        self._params = FingerprintCache(capacity=self.agent_cache_size)
        self._agents = FingerprintCache(capacity=self.agent_cache_size)
        self.refresh()

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------
    def _scan(self) -> Dict[str, PolicySpec]:
        specs: Dict[str, PolicySpec] = {}
        for sidecar in sorted(glob.glob(os.path.join(self.checkpoint_dir, "*.json"))):
            stem = sidecar[: -len(".json")]
            if not os.path.exists(stem + ".npz"):
                continue  # sidecar without parameters: not servable
            try:
                with open(sidecar) as fh:
                    meta = json.load(fh)
                spec = PolicySpec(
                    policy_id=os.path.basename(stem),
                    path=stem,
                    agent_kind=meta["agent_kind"],
                    workload=meta.get("workload", ""),
                    num_devices=int(meta["num_devices"]),
                    num_ops=int(meta.get("num_ops", 0)),
                    feature_dim=int(meta.get("feature_dim", 0)),
                    mtime=os.path.getmtime(sidecar),
                    meta=meta,
                )
            except (OSError, ValueError, KeyError) as exc:
                logger.warning("skipping unreadable sidecar %s: %s", sidecar, exc)
                continue
            specs[spec.policy_id] = spec
        return specs

    def refresh(self) -> int:
        """Rescan the checkpoint directory; returns the number of servable
        policies. Parameters and bindings whose checkpoint disappeared or
        changed mtime are dropped (the next request loads the new file)."""
        fresh = self._scan()
        with self._lock:
            stale = {
                pid
                for pid, old in self._specs.items()
                if pid not in fresh or fresh[pid].mtime != old.mtime
            }
            self._specs = fresh
        if stale:
            # Loads still in flight are dropped too, so none of them can
            # re-insert parameters or a binding from the replaced
            # checkpoint.
            self._params.discard(lambda key: key[0] in stale)
            self._agents.discard(lambda key: key[0] in stale)
            logger.info(
                "registry refresh: %d policies, %d invalidated", len(fresh), len(stale)
            )
        return len(fresh)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def policies(self) -> List[PolicySpec]:
        with self._lock:
            return sorted(self._specs.values(), key=lambda s: s.policy_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._specs)

    def get(self, policy_id: str) -> Optional[PolicySpec]:
        with self._lock:
            return self._specs.get(policy_id)

    def select(
        self,
        num_devices: int,
        workload: Optional[str] = None,
        agent_kind: Optional[str] = None,
    ) -> Optional[PolicySpec]:
        """The best policy for a request, or ``None`` if nothing matches.

        Hard filter on device count (output heads are sized by it) and on
        ``agent_kind`` when given. Among the survivors, an exact workload
        match beats a transfer policy; ties break to the newest checkpoint,
        then to policy id for determinism.
        """
        candidates = [
            s
            for s in self.policies()
            if s.num_devices == num_devices
            and (agent_kind is None or s.agent_kind == agent_kind)
        ]
        if not candidates:
            return None
        candidates.sort(
            key=lambda s: (
                0 if (workload and s.workload == workload) else 1,
                -s.mtime,
                s.policy_id,
            )
        )
        return candidates[0]

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def load(
        self,
        spec: PolicySpec,
        graph: CompGraph,
        cluster: ClusterSpec,
        fingerprint: Optional[str] = None,
    ) -> LoadedPolicy:
        """The binding of ``spec``'s parameters to ``graph``/``cluster``
        (LRU cached). ``fingerprint`` is ``graph.fingerprint()`` when the
        caller already has it. Raises ``ValueError`` on device, feature or
        group-count mismatches."""
        if fingerprint is None:
            fingerprint = graph.fingerprint()
        key = (spec.policy_id, spec.mtime, fingerprint, cluster.signature())

        def load_parameters() -> LoadedPolicy:
            # The agent load_agent builds over this graph holds the
            # parameters; every binding shares its modules and its lock.
            from repro.core.checkpoint import load_agent

            agent, _ = load_agent(
                spec.path,
                graph,
                cluster,
                config=self.config,
                feature_extractor=self.feature_extractor,
            )
            return LoadedPolicy(spec=spec, agent=agent, graph=graph)

        def bind() -> LoadedPolicy:
            params, state = self._params.get_or_compute(
                (spec.policy_id, spec.mtime), load_parameters
            )
            if state == "miss":
                # load_agent just built this agent over this graph and
                # cluster: it is the binding.
                return params
            return LoadedPolicy(
                spec=spec,
                agent=params.agent.bind(graph, cluster),
                graph=graph,
                lock=params.lock,
            )

        # Built outside any lock: concurrent callers for one key wait on a
        # single build, and unrelated requests are never serialized.
        loaded, _ = self._agents.get_or_compute(key, bind)
        return loaded
