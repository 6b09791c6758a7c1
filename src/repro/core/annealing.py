"""Simulated-annealing placement search — a classical, non-learned baseline.

The paper argues (Section 2) that classical combinatorial optimizers
underperform because they need an explicit cost model. Simulated annealing
sidesteps that by querying the *measurement environment* directly, which
makes it the fairest non-RL baseline: same reward signal, same measurement
budget, no neural networks. Useful for judging how much of the RL agents'
gain comes from learning rather than from raw search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.runstate import halt_requested
from repro.sim.env import PlacementEnv
from repro.utils.rng import new_rng


@dataclass
class AnnealingConfig:
    evaluations: int = 600  # measurement budget (== RL samples for fairness)
    initial_temperature: float = 0.1
    final_temperature: float = 1e-3
    block_move_probability: float = 0.5  # move a contiguous block vs one op
    max_block: int = 32
    restart_after: Optional[int] = 150  # rejected moves before a restart
    seed: int = 0


@dataclass
class AnnealingResult:
    best_runtime: float
    best_placement: np.ndarray
    runtimes: List[float] = field(default_factory=list)
    evaluations: int = 0
    wall_clock: float = 0.0  # simulated measurement time


def _propose(actions: np.ndarray, num_devices: int, cfg: AnnealingConfig, rng) -> np.ndarray:
    """Mutate: reassign one op or a contiguous block of ops."""
    out = actions.copy()
    n = len(actions)
    device = rng.integers(0, num_devices)
    if rng.random() < cfg.block_move_probability and n > 2:
        size = int(rng.integers(1, min(cfg.max_block, n) + 1))
        start = int(rng.integers(0, n - size + 1))
        out[start : start + size] = device
    else:
        out[rng.integers(0, n)] = device
    return out


def anneal_placement(env: PlacementEnv, config: Optional[AnnealingConfig] = None) -> AnnealingResult:
    """Search for a placement by simulated annealing against ``env``.

    Every candidate is charged to the environment's measurement clock like
    an RL sample would be, so results are budget-comparable with the
    agents' search histories. A pending graceful-shutdown request
    (:func:`repro.core.runstate.halt_requested`) stops the schedule early
    and returns the best placement found so far.
    """
    # A literal `config=AnnealingConfig()` default would be evaluated once
    # at definition time and *shared by every call* — any caller mutating
    # it (e.g. tuning `seed` between restarts) would silently change the
    # default for the whole process. `tools/lint_defaults.py` rejects the
    # pattern tree-wide.
    config = config if config is not None else AnnealingConfig()
    rng = new_rng(config.seed)
    n, k = env.num_ops, env.num_devices
    wall_start = env.stats.wall_clock

    def energy(actions) -> float:
        res = env.evaluate(actions)
        return res.per_step_time if res.valid else env.protocol.invalid_penalty

    current = rng.integers(0, k, n)
    current_e = energy(current)
    best, best_e = current.copy(), current_e
    result = AnnealingResult(best_runtime=best_e, best_placement=best.copy())
    result.runtimes.append(current_e)

    temps = np.geomspace(
        config.initial_temperature, config.final_temperature, max(config.evaluations - 1, 1)
    )
    rejected = 0
    for temp in temps:
        if halt_requested():
            break  # graceful shutdown: keep the best found so far
        candidate = _propose(current, k, config, rng)
        cand_e = energy(candidate)
        result.runtimes.append(cand_e)
        # Relative energy difference keeps acceptance scale-free.
        delta = (cand_e - current_e) / max(current_e, 1e-9)
        if delta <= 0 or rng.random() < np.exp(-delta / temp):
            current, current_e = candidate, cand_e
            rejected = 0
        else:
            rejected += 1
        if cand_e < best_e:
            best, best_e = candidate.copy(), cand_e
        if config.restart_after is not None and rejected >= config.restart_after:
            current, current_e = best.copy(), best_e
            rejected = 0

    result.best_runtime = best_e
    result.best_placement = best
    result.evaluations = env.stats.evaluations
    result.wall_clock = env.stats.wall_clock - wall_start
    return result
