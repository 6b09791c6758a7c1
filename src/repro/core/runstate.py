"""Crash-safe resumable search runs.

A Mars search is long-horizon RL: the paper's headline claim is *reduced
agent training time*, yet a single SIGTERM or crash used to throw the
whole run away. This module snapshots everything a run needs to continue
**bit-identically** — agent weights (via the atomic ``save_agent``),
updater/optimizer moments, the EMA reward baseline, the rollout buffer,
the trainer's numpy ``Generator`` state (``bit_generator.state``), the
:class:`~repro.rl.trainer.SearchHistory`, the environment's measurement
clock *and its LRU result cache* (cache hits charge less simulated time
than misses, so an empty cache would skew the resumed clock), and the
health watchdog's sliding windows.

Layout: ``<run_dir>/snap-<NNNNNN>/`` with ``agent.npz`` + ``agent.json``
(the ordinary checkpoint), ``state.npz`` (all arrays) and
``runstate.json``. Every file is written atomically (temp +
``os.replace``, the ``core/checkpoint.py`` recipe) and ``runstate.json``
is written **last**: its presence marks the snapshot complete, so a
crash mid-snapshot leaves at worst an ignorable partial directory and
never a loadable-but-wrong one.

Graceful shutdown: :func:`install_signal_handlers` turns SIGTERM/SIGINT
into a *halt request*; the training loop finishes the current iteration,
snapshots, records ``halt_reason="signal: ..."`` in the run manifest
(the PR 3 halt path) and returns. ``--resume RUN_DIR`` on the
experiments runner, or ``optimize_placement(snapshot_dir=..., resume=True)``,
picks the run back up from the newest complete snapshot.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import time
from typing import Dict, List, Optional

import numpy as np

from repro.config import SnapshotConfig
from repro.rl.trainer import SearchHistory, SearchRecord
from repro.utils.logging import get_logger
from repro.utils.serialization import load_state_dict, save_state_dict, write_json_atomic

logger = get_logger("repro.core.runstate")

__all__ = [
    "RUNSTATE_VERSION",
    "SnapshotConfig",
    "RunStateManager",
    "latest_snapshot",
    "load_run_state",
    "history_to_state",
    "history_from_state",
    "history_to_json",
    "install_signal_handlers",
    "restore_signal_handlers",
    "halt_requested",
    "clear_halt",
]

#: Bump when the snapshot layout changes incompatibly; loaders refuse
#: versions they don't understand instead of resuming wrongly.
RUNSTATE_VERSION = 1

_SNAP_PREFIX = "snap-"
_SIDECAR = "runstate.json"


# ----------------------------------------------------------------------
# Graceful-shutdown signal handling (module-level: one flag per process)
# ----------------------------------------------------------------------
_PENDING_SIGNAL: Optional[str] = None
_INSTALLED: Dict[int, object] = {}


def _handler(signum, frame) -> None:
    global _PENDING_SIGNAL
    name = signal.Signals(signum).name
    if _PENDING_SIGNAL is not None and signum == signal.SIGINT:
        # Second Ctrl-C while already halting: stop immediately.
        raise KeyboardInterrupt
    _PENDING_SIGNAL = name
    logger.warning("%s received — finishing the current iteration, then snapshotting", name)


def install_signal_handlers(signals=(signal.SIGTERM, signal.SIGINT)) -> None:
    """Turn SIGTERM/SIGINT into a graceful halt request.

    Idempotent; call :func:`restore_signal_handlers` to undo (tests do).
    Only entry points opt in — importing the library never touches signal
    disposition.
    """
    for sig in signals:
        if sig not in _INSTALLED:
            _INSTALLED[sig] = signal.signal(sig, _handler)


def restore_signal_handlers() -> None:
    global _PENDING_SIGNAL
    for sig, previous in _INSTALLED.items():
        signal.signal(sig, previous)
    _INSTALLED.clear()
    _PENDING_SIGNAL = None


def halt_requested() -> Optional[str]:
    """The pending halt signal's name ("SIGTERM"/"SIGINT"), or ``None``."""
    return _PENDING_SIGNAL


def clear_halt() -> None:
    global _PENDING_SIGNAL
    _PENDING_SIGNAL = None


# ----------------------------------------------------------------------
# Nested-state packing: ndarrays go to .npz, everything else to JSON
# ----------------------------------------------------------------------
def _pack(obj, arrays: Dict[str, np.ndarray]):
    """Replace every ndarray in a nested structure with a reference into
    ``arrays``; returns the JSON-serializable skeleton."""
    if isinstance(obj, np.ndarray):
        key = f"a{len(arrays)}"
        arrays[key] = obj
        return {"__nd__": key}
    if isinstance(obj, dict):
        return {str(k): _pack(v, arrays) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pack(v, arrays) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _unpack(doc, arrays: Dict[str, np.ndarray]):
    if isinstance(doc, dict):
        if set(doc) == {"__nd__"}:
            return arrays[doc["__nd__"]]
        return {k: _unpack(v, arrays) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_unpack(v, arrays) for v in doc]
    return doc


# ----------------------------------------------------------------------
# SearchHistory <-> plain state
# ----------------------------------------------------------------------
def history_to_state(history: SearchHistory) -> dict:
    """``SearchHistory`` as a packable dict (floats stay exact: Python's
    ``json`` round-trips float ``repr`` bit-for-bit)."""
    return {
        "records": [
            {
                "iteration": int(r.iteration),
                "samples_so_far": int(r.samples_so_far),
                "runtimes": [float(x) for x in r.runtimes],
                "valid_runtimes": [float(x) for x in r.valid_runtimes],
                "n_invalid": int(r.n_invalid),
                "n_truncated": int(r.n_truncated),
                "best_runtime": float(r.best_runtime),
                "baseline": float(r.baseline),
                "sim_clock": float(r.sim_clock),
            }
            for r in history.records
        ],
        "best_runtime": float(history.best_runtime),
        "best_placement": history.best_placement,
        "sim_clock": float(history.sim_clock),
        "pretrain_clock": float(history.pretrain_clock),
        "halt_reason": history.halt_reason,
    }


def history_from_state(state: dict) -> SearchHistory:
    records = [
        SearchRecord(
            iteration=int(r["iteration"]),
            samples_so_far=int(r["samples_so_far"]),
            runtimes=[float(x) for x in r["runtimes"]],
            valid_runtimes=[float(x) for x in r["valid_runtimes"]],
            n_invalid=int(r["n_invalid"]),
            n_truncated=int(r["n_truncated"]),
            best_runtime=float(r["best_runtime"]),
            baseline=float(r["baseline"]),
            sim_clock=float(r["sim_clock"]),
        )
        for r in state["records"]
    ]
    placement = state["best_placement"]
    return SearchHistory(
        records=records,
        best_runtime=float(state["best_runtime"]),
        best_placement=None if placement is None else np.asarray(placement, dtype=np.int64),
        sim_clock=float(state["sim_clock"]),
        pretrain_clock=float(state["pretrain_clock"]),
        halt_reason=state["halt_reason"],
    )


def history_to_json(history: SearchHistory) -> dict:
    """Pure-JSON form of a history (placement as a list) — the canonical
    document the resume property test and ``tools/resume_smoke.py``
    compare bit-for-bit."""
    state = history_to_state(history)
    placement = state["best_placement"]
    if placement is not None:
        state["best_placement"] = [int(x) for x in placement]
    return state


# ----------------------------------------------------------------------
# Snapshot directories
# ----------------------------------------------------------------------
def _snapshot_dirs(directory: str) -> "tuple[List[str], List[str]]":
    """(complete, incomplete) snapshot directories, sorted by iteration
    (the zero-padded ``snap-%06d`` name sorts lexicographically)."""
    complete: List[str] = []
    incomplete: List[str] = []
    if not directory or not os.path.isdir(directory):
        return complete, incomplete
    for name in sorted(os.listdir(directory)):
        full = os.path.join(directory, name)
        if not name.startswith(_SNAP_PREFIX) or not os.path.isdir(full):
            continue
        if os.path.exists(os.path.join(full, _SIDECAR)):
            complete.append(full)
        else:
            incomplete.append(full)
    return complete, incomplete


def latest_snapshot(directory: str) -> Optional[str]:
    """Newest *complete* snapshot under ``directory`` (``None`` if none).

    Directories without a ``runstate.json`` sidecar — a crash landed
    mid-snapshot — are ignored.
    """
    complete, _ = _snapshot_dirs(directory)
    return complete[-1] if complete else None


def load_run_state(path: str) -> dict:
    """Load one snapshot directory back into plain state.

    Returns the sidecar document with arrays re-inserted, ``history``
    rebuilt as a :class:`SearchHistory`, and ``path`` added. The agent
    itself is loaded separately with the ordinary
    :func:`repro.core.checkpoint.load_agent` on ``<path>/agent``.
    """
    with open(os.path.join(path, _SIDECAR)) as fh:
        doc = json.load(fh)
    version = doc.get("version")
    if version != RUNSTATE_VERSION:
        raise ValueError(
            f"snapshot {path!r} has runstate version {version!r}, "
            f"this build reads version {RUNSTATE_VERSION}"
        )
    arrays = load_state_dict(os.path.join(path, "state"))
    state = _unpack(doc, arrays)
    state["history"] = history_from_state(state["history"])
    state["path"] = path
    return state


class RunStateManager:
    """Writes periodic + on-halt snapshots of a training run.

    The trainer calls :meth:`after_iteration` at the end of every policy
    iteration: a snapshot is written every ``snapshot_every`` iterations,
    and always when a halt (signal or watchdog) is pending — so no
    completed iteration's work is ever lost. Old snapshots are pruned to
    the ``keep_last`` newest complete ones.
    """

    def __init__(
        self,
        directory: str,
        config: Optional[SnapshotConfig] = None,
        agent_kind: str = "",
        workload: str = "",
        mars_config=None,
    ):
        self.directory = directory
        # Fresh default per manager — a shared default instance would alias.
        self.config = config if config is not None else SnapshotConfig()
        self.agent_kind = agent_kind
        self.workload = workload
        self.mars_config = mars_config  # echoed into the agent sidecar
        self._last_snapshot_len: Optional[int] = None
        os.makedirs(directory, exist_ok=True)

    # -- hooks the trainer calls ----------------------------------------
    def after_iteration(self, trainer, history, telemetry=None, force: bool = False):
        """Snapshot if due (or halting); returns the pending signal name."""
        signame = halt_requested()
        every = self.config.snapshot_every
        due = bool(every and every > 0 and len(history.records) % every == 0)
        if signame or due or force:
            reason = f"signal:{signame}" if signame else ("halt" if force else "periodic")
            self.snapshot(trainer, history, telemetry, reason=reason)
        return signame

    def snapshot_if_new(self, trainer, history, telemetry=None, reason: str = "final"):
        """Snapshot unless one was already written at this iteration count."""
        if self._last_snapshot_len == len(history.records):
            return None
        return self.snapshot(trainer, history, telemetry, reason=reason)

    # -- the snapshot itself --------------------------------------------
    def snapshot(self, trainer, history, telemetry=None, reason: str = "periodic") -> str:
        # Lazy import: checkpoint.py imports core.search, which imports
        # this module's consumers — a module-level import would cycle.
        from repro.core.checkpoint import save_agent

        start = time.perf_counter()
        n = len(history.records)
        path = os.path.join(self.directory, f"{_SNAP_PREFIX}{n:06d}")
        os.makedirs(path, exist_ok=True)
        save_agent(
            os.path.join(path, "agent"),
            trainer.agent,
            self.agent_kind,
            workload=self.workload,
            config=self.mars_config,
        )
        state = {
            "version": RUNSTATE_VERSION,
            "agent_kind": self.agent_kind,
            "workload": self.workload,
            "iteration": n,
            "reason": reason,
            "history": history_to_state(history),
            "trainer": trainer.state_dict(),
            "env": trainer.env.state_dict(),
        }
        arrays: Dict[str, np.ndarray] = {}
        doc = _pack(state, arrays)
        if not arrays:  # np.load chokes on a zero-member archive
            arrays["__empty__"] = np.zeros(0)
        save_state_dict(os.path.join(path, "state"), arrays)
        # Sidecar last = commit point (same recipe as save_agent).
        write_json_atomic(os.path.join(path, _SIDECAR), doc, indent=2)
        self._last_snapshot_len = n
        duration = time.perf_counter() - start
        logger.info("snapshot %s (%s) in %.3fs", path, reason, duration)
        if telemetry is not None:
            telemetry.emit(
                "snapshot",
                iteration=n,
                path=path,
                reason=reason,
                duration_s=float(duration),
            )
        self.prune()
        return path

    def prune(self) -> None:
        """Drop incomplete snapshot dirs and all but the ``keep_last``
        newest complete ones (``keep_last <= 0`` keeps everything)."""
        complete, incomplete = _snapshot_dirs(self.directory)
        doomed = list(incomplete)
        if self.config.keep_last and self.config.keep_last > 0:
            doomed.extend(complete[: -self.config.keep_last])
        for path in doomed:
            shutil.rmtree(path, ignore_errors=True)
