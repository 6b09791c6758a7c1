"""Streaming training-health watchdog.

Mars-style RL placers fail in characteristic ways: a NaN slips out of an
update and poisons every parameter after it, the policy's entropy
collapses before a good placement is found, a destructive update blows up
the approximate KL, the reward plateaus while the search keeps burning
simulated hours, or the agent spirals on invalid placements and the
reward signal becomes pure OOM penalty (the paper's 100 s penalty,
§4.2). All five are cheap to detect online from the statistics the
trainer already records.

:class:`HealthWatchdog` runs sliding-window detectors over the per-update
(:class:`~repro.rl.ppo.UpdateStats`) and per-iteration streams and emits
one schema-versioned ``alert`` event per firing, with the offending
statistic, the threshold, and the window size. What happens next is the
:class:`HealthConfig.action`:

* ``"log"`` — record the event, log at INFO; purely observational.
* ``"warn"`` (default) — record the event, log at WARNING.
* ``"halt"`` — additionally set :attr:`HealthWatchdog.halted`; the
  trainer stops the run at the end of the iteration and writes the
  reason into the run manifest.

The detector taxonomy (trigger conditions, defaults) is documented in
``docs/observability.md`` §"Alert taxonomy". Detectors are deduplicated
with a per-detector cooldown so a persistently sick run produces a
timeline, not a flood.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.utils.logging import get_logger

logger = get_logger("repro.telemetry.health")

__all__ = ["HealthConfig", "HealthAlert", "HealthWatchdog"]

_ACTIONS = ("log", "warn", "halt")


@dataclass
class HealthConfig:
    """Detector thresholds and the action taken when one fires.

    Lives on :class:`~repro.config.MarsConfig` as ``health``; the
    experiments runner exposes ``--health {log,warn,halt}`` and
    ``--no-health``. Defaults are deliberately loose: they flag runs that
    are unambiguously sick, not runs that are merely converging slowly.
    """

    enabled: bool = True
    action: str = "warn"  # "log" | "warn" | "halt"
    #: Updates averaged by the entropy-collapse detector.
    window: int = 8
    #: Mean per-decision entropy (nats) below which the policy is
    #: considered collapsed. Healthy searches start near ln(num_devices)
    #: (~1.61 for 5 devices) and decay smoothly, not to ~0 early.
    entropy_floor: float = 0.02
    #: |approx_kl| above this in any single update flags a destructive
    #: policy step (the paper's PPO targets drift orders below this).
    kl_threshold: float = 1.0
    #: Iterations without a relative best-runtime improvement of at least
    #: ``plateau_rel_improvement`` before the plateau detector fires.
    plateau_window: int = 25
    plateau_rel_improvement: float = 1e-3
    #: Invalid-placement-rate spike: fraction of sampled placements that
    #: were invalid (OOM) over the last ``invalid_window`` samples.
    invalid_rate_threshold: float = 0.9
    invalid_window: int = 60
    #: Serving rejection-rate spike (repro.serve): fraction of admission
    #: decisions that rejected the request (queue full) over the last
    #: ``reject_window`` requests — sustained backpressure means the
    #: service is undersized for its load (docs/serving.md).
    reject_rate_threshold: float = 0.5
    reject_window: int = 40
    #: Serving latency SLO (repro.serve): the ``latency_slo`` detector
    #: fires when the p99 of the last ``latency_window`` admitted
    #: requests exceeds ``latency_slo_ms`` — sustained slow answers, not
    #: one outlier (docs/serving.md).
    latency_slo_ms: float = 2000.0
    latency_window: int = 50
    #: Serving error burn rate (repro.serve): fraction of the last
    #: ``error_window`` serviced requests that failed with a typed error.
    error_rate_threshold: float = 0.5
    error_window: int = 50
    #: Minimum observations between two firings of the same detector.
    cooldown: int = 10

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"action must be one of {_ACTIONS}, got {self.action!r}")


@dataclass(frozen=True)
class HealthAlert:
    """One detector firing (also emitted as an ``alert`` event)."""

    detector: str
    action: str
    iteration: int
    value: float
    threshold: float
    window: int
    message: str


class HealthWatchdog:
    """Feeds sliding-window detectors from the trainer's update/iteration
    streams; emits ``alert`` events into ``telemetry``.

    The watchdog is intentionally decoupled from any specific updater:
    it consumes anything exposing ``policy_loss`` / ``entropy`` /
    ``grad_norm`` / ``approx_kl`` (PPO, REINFORCE and CEM all report the
    same :class:`~repro.rl.ppo.UpdateStats`).
    """

    def __init__(self, config: Optional[HealthConfig] = None, telemetry=None):
        self.config = config if config is not None else HealthConfig()
        self._telemetry = telemetry
        self.alerts: List[HealthAlert] = []
        self.halted = False
        self.halt_reason: Optional[str] = None
        self._entropies: Deque[float] = deque(maxlen=max(1, self.config.window))
        self._invalid: Deque[Tuple[int, int]] = deque()  # (n_invalid, n_samples)
        self._invalid_counts = [0, 0]  # running (invalid, samples) in window
        self._rejects: Deque[int] = deque(
            maxlen=max(1, self.config.reject_window)
        )  # 1 = rejected admission, 0 = accepted
        #: Serviced-request streams for the SLO detectors (observe_serve).
        self._latencies: Deque[float] = deque(
            maxlen=max(1, self.config.latency_window)
        )  # latency_ms of each serviced request
        self._errors: Deque[int] = deque(
            maxlen=max(1, self.config.error_window)
        )  # 1 = typed error, 0 = ok
        self._bests: Deque[float] = deque(maxlen=max(2, self.config.plateau_window + 1))
        self._observations = 0
        self._last_fired: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Sliding windows + cooldown bookkeeping, for crash-safe resume.

        Past alert objects are not carried over (they live in the
        interrupted run's event log); everything that influences *future*
        detector decisions is.
        """
        return {
            "halted": bool(self.halted),
            "halt_reason": self.halt_reason,
            "entropies": [float(x) for x in self._entropies],
            "invalid": [[int(a), int(b)] for a, b in self._invalid],
            "invalid_counts": [int(x) for x in self._invalid_counts],
            "rejects": [int(x) for x in self._rejects],
            "latencies": [float(x) for x in self._latencies],
            "errors": [int(x) for x in self._errors],
            "bests": [float(x) for x in self._bests],
            "observations": int(self._observations),
            "last_fired": dict(self._last_fired),
        }

    def load_state_dict(self, state: dict) -> None:
        self.halted = bool(state["halted"])
        self.halt_reason = state["halt_reason"]
        self._entropies.clear()
        self._entropies.extend(float(x) for x in state["entropies"])
        self._invalid.clear()
        self._invalid.extend((int(a), int(b)) for a, b in state["invalid"])
        self._invalid_counts = [int(x) for x in state["invalid_counts"]]
        self._rejects.clear()
        self._rejects.extend(int(x) for x in state["rejects"])
        # Absent in snapshots written before the SLO detectors existed.
        self._latencies.clear()
        self._latencies.extend(float(x) for x in state.get("latencies", ()))
        self._errors.clear()
        self._errors.extend(int(x) for x in state.get("errors", ()))
        self._bests.clear()
        self._bests.extend(float(x) for x in state["bests"])
        self._observations = int(state["observations"])
        self._last_fired = {str(k): int(v) for k, v in state["last_fired"].items()}

    # ------------------------------------------------------------------
    def _tel(self):
        if self._telemetry is not None:
            return self._telemetry
        from repro.telemetry import get_telemetry

        return get_telemetry()

    def _fire(
        self,
        detector: str,
        iteration: int,
        value: float,
        threshold: float,
        window: int,
        message: str,
    ) -> Optional[HealthAlert]:
        last = self._last_fired.get(detector)
        if last is not None and self._observations - last < self.config.cooldown:
            return None
        self._last_fired[detector] = self._observations
        alert = HealthAlert(
            detector=detector,
            action=self.config.action,
            iteration=iteration,
            value=float(value),
            threshold=float(threshold),
            window=int(window),
            message=message,
        )
        self.alerts.append(alert)
        tel = self._tel()
        tel.counter("health.alerts").inc()
        tel.counter(f"health.alerts.{detector}").inc()
        tel.emit(
            "alert",
            detector=alert.detector,
            action=alert.action,
            iteration=alert.iteration,
            value=alert.value,
            threshold=alert.threshold,
            window=alert.window,
            message=alert.message,
        )
        text = f"health[{detector}] iter {iteration}: {message}"
        if self.config.action == "halt":
            logger.error("%s -> halting run", text)
            self.halted = True
            if self.halt_reason is None:
                self.halt_reason = f"{detector}: {message}"
        elif self.config.action == "warn":
            logger.warning(text)
        else:
            logger.info(text)
        return alert

    # ------------------------------------------------------------------
    def observe_update(self, iteration: int, stats) -> List[HealthAlert]:
        """Feed one updater result (any object with the UpdateStats
        fields); returns the alerts this observation raised."""
        if not self.config.enabled:
            return []
        self._observations += 1
        cfg = self.config
        fired: List[HealthAlert] = []

        # NaN/Inf guard — fires on a single bad value, no window needed.
        for name in ("policy_loss", "grad_norm", "entropy", "approx_kl"):
            value = float(getattr(stats, name, 0.0))
            if not math.isfinite(value):
                alert = self._fire(
                    "nan_guard",
                    iteration,
                    value,
                    0.0,
                    1,
                    f"non-finite {name} ({value}) in policy update",
                )
                if alert:
                    fired.append(alert)
                break

        entropy = float(getattr(stats, "entropy", 0.0))
        if math.isfinite(entropy):
            self._entropies.append(entropy)
            if len(self._entropies) == self._entropies.maxlen:
                mean_entropy = sum(self._entropies) / len(self._entropies)
                if mean_entropy < cfg.entropy_floor:
                    alert = self._fire(
                        "entropy_collapse",
                        iteration,
                        mean_entropy,
                        cfg.entropy_floor,
                        len(self._entropies),
                        f"mean policy entropy {mean_entropy:.4f} < "
                        f"{cfg.entropy_floor} over {len(self._entropies)} updates "
                        "(policy went deterministic before converging)",
                    )
                    if alert:
                        fired.append(alert)

        approx_kl = float(getattr(stats, "approx_kl", 0.0))
        if math.isfinite(approx_kl) and abs(approx_kl) > cfg.kl_threshold:
            alert = self._fire(
                "kl_blowup",
                iteration,
                approx_kl,
                cfg.kl_threshold,
                1,
                f"|approx_kl| {abs(approx_kl):.3f} > {cfg.kl_threshold} "
                "(destructive policy update)",
            )
            if alert:
                fired.append(alert)
        return fired

    def observe_request(self, rejected: bool) -> List[HealthAlert]:
        """Feed one serving admission decision (``repro.serve``).

        Fires ``rejection_rate`` when more than ``reject_rate_threshold``
        of the last ``reject_window`` requests were turned away by
        admission control — the wait line is persistently full, i.e. offered
        load exceeds service capacity, not a momentary burst.
        """
        if not self.config.enabled:
            return []
        self._observations += 1
        cfg = self.config
        self._rejects.append(1 if rejected else 0)
        if len(self._rejects) < self._rejects.maxlen:
            return []
        rate = sum(self._rejects) / len(self._rejects)
        if rate <= cfg.reject_rate_threshold:
            return []
        alert = self._fire(
            "rejection_rate",
            -1,
            rate,
            cfg.reject_rate_threshold,
            len(self._rejects),
            f"{sum(self._rejects)}/{len(self._rejects)} requests rejected by "
            "admission control — offered load exceeds service capacity "
            "(raise --workers/--max-queue or shed traffic upstream)",
        )
        return [alert] if alert else []

    @staticmethod
    def _p99(values: Deque[float]) -> float:
        ordered = sorted(values)
        return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]

    def observe_serve(self, latency_ms: float, ok: bool) -> List[HealthAlert]:
        """Feed one admitted request's outcome (``repro.serve``): its
        latency from entering ``PlacementService.submit`` to the answer,
        slot wait included.

        The two SLO detectors run over full sliding windows only (no
        verdict on a cold service):

        * ``latency_slo`` — p99 latency of the last ``latency_window``
          admitted requests above ``latency_slo_ms``;
        * ``error_burn_rate`` — more than ``error_rate_threshold`` of the
          last ``error_window`` admitted requests failed with a typed
          error (bad requests, missing policies, queue-level rejections
          are observed separately by :meth:`observe_request`).
        """
        if not self.config.enabled:
            return []
        self._observations += 1
        cfg = self.config
        fired: List[HealthAlert] = []
        if math.isfinite(latency_ms):
            self._latencies.append(float(latency_ms))
        self._errors.append(0 if ok else 1)
        if len(self._latencies) == self._latencies.maxlen:
            p99 = self._p99(self._latencies)
            if p99 > cfg.latency_slo_ms:
                alert = self._fire(
                    "latency_slo",
                    -1,
                    p99,
                    cfg.latency_slo_ms,
                    len(self._latencies),
                    f"p99 service latency {p99:.1f} ms > SLO "
                    f"{cfg.latency_slo_ms:.0f} ms over the last "
                    f"{len(self._latencies)} requests (slow evaluation or "
                    "queue backlog — check serve.queue_wait_s vs "
                    "serve.compute_s)",
                )
                if alert:
                    fired.append(alert)
        if len(self._errors) == self._errors.maxlen:
            rate = sum(self._errors) / len(self._errors)
            if rate > cfg.error_rate_threshold:
                alert = self._fire(
                    "error_burn_rate",
                    -1,
                    rate,
                    cfg.error_rate_threshold,
                    len(self._errors),
                    f"{sum(self._errors)}/{len(self._errors)} serviced "
                    "requests failed with typed errors — clients are "
                    "burning their error budget (check the serve_request "
                    "status codes)",
                )
                if alert:
                    fired.append(alert)
        return fired

    def slo_status(self) -> dict:
        """Current SLO standing for liveness endpoints (``GET /healthz``).

        Window statistics are computed over whatever has been observed so
        far; the ``ok`` verdicts stay ``True`` until a full window
        violates its threshold, matching when the detectors fire.
        """
        cfg = self.config
        p99 = self._p99(self._latencies) if self._latencies else None
        error_rate = (
            sum(self._errors) / len(self._errors) if self._errors else 0.0
        )
        reject_rate = (
            sum(self._rejects) / len(self._rejects) if self._rejects else 0.0
        )
        return {
            "latency_p99_ms": p99,
            "latency_slo_ms": cfg.latency_slo_ms,
            "latency_ok": not (
                len(self._latencies) == self._latencies.maxlen
                and p99 is not None
                and p99 > cfg.latency_slo_ms
            ),
            "error_rate": error_rate,
            "error_rate_threshold": cfg.error_rate_threshold,
            "errors_ok": not (
                len(self._errors) == self._errors.maxlen
                and error_rate > cfg.error_rate_threshold
            ),
            "reject_rate": reject_rate,
            "reject_rate_threshold": cfg.reject_rate_threshold,
            "rejects_ok": not (
                len(self._rejects) == self._rejects.maxlen
                and reject_rate > cfg.reject_rate_threshold
            ),
            "alerts": len(self.alerts),
        }

    def observe_iteration(
        self,
        iteration: int,
        best_runtime: float,
        n_invalid: int,
        n_samples: int,
    ) -> List[HealthAlert]:
        """Feed one policy iteration's outcome; returns raised alerts."""
        if not self.config.enabled:
            return []
        self._observations += 1
        cfg = self.config
        fired: List[HealthAlert] = []

        # Invalid-placement-rate spike over a sliding sample window.
        self._invalid.append((int(n_invalid), int(n_samples)))
        self._invalid_counts[0] += int(n_invalid)
        self._invalid_counts[1] += int(n_samples)
        while (
            len(self._invalid) > 1
            and self._invalid_counts[1] - self._invalid[0][1] >= cfg.invalid_window
        ):
            old_inv, old_n = self._invalid.popleft()
            self._invalid_counts[0] -= old_inv
            self._invalid_counts[1] -= old_n
        inv, total = self._invalid_counts
        if total >= cfg.invalid_window and total > 0:
            rate = inv / total
            if rate > cfg.invalid_rate_threshold:
                alert = self._fire(
                    "invalid_rate",
                    iteration,
                    rate,
                    cfg.invalid_rate_threshold,
                    total,
                    f"{inv}/{total} sampled placements invalid (OOM) — reward "
                    "is dominated by the invalid-placement penalty",
                )
                if alert:
                    fired.append(alert)

        # Reward plateau: best runtime not improving over plateau_window
        # iterations. Only meaningful once a valid placement exists.
        if math.isfinite(best_runtime):
            self._bests.append(float(best_runtime))
            if len(self._bests) == self._bests.maxlen:
                oldest, newest = self._bests[0], self._bests[-1]
                rel = (oldest - newest) / oldest if oldest > 0 else 0.0
                if rel < cfg.plateau_rel_improvement:
                    alert = self._fire(
                        "reward_plateau",
                        iteration,
                        rel,
                        cfg.plateau_rel_improvement,
                        len(self._bests) - 1,
                        f"best runtime improved {rel * 100:.3f}% over the last "
                        f"{len(self._bests) - 1} iterations "
                        f"(still {newest:.4f}s)",
                    )
                    if alert:
                        fired.append(alert)
        return fired
