"""Structured JSONL run-event logs.

Every event is one JSON object per line with three envelope fields —
``v`` (schema version), ``type``, ``seq`` (monotonic per run) — plus the
type-specific payload described in :data:`EVENT_SCHEMAS`. The full schema
reference lives in ``docs/observability.md``.

Files are written to ``<run_dir>/events-000.jsonl`` and rotate to the
next part once a part exceeds ``max_bytes`` (a rotation boundary never
splits an event). :func:`read_events` streams the parts back in order.

:class:`NullRunLogger` is the event sink of an in-memory session (the
default ``Telemetry()``): same interface, writes nothing.
"""

from __future__ import annotations

import glob
import json
import os
import threading
from typing import IO, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_SCHEMAS",
    "RunLogger",
    "NullRunLogger",
    "read_events",
    "validate_event",
]

#: Version stamped into every event's ``v`` field. Bump when a payload
#: field is renamed, removed, or changes meaning; adding fields is
#: backward compatible and does not require a bump.
SCHEMA_VERSION = 1

_NUM = (int, float)
_BOOL = (bool,)
_INT = (int,)
_STR = (str,)

#: Required payload fields (and accepted JSON types) per event type.
#: Events may carry additional fields; validation only enforces presence
#: and type of the required ones.
EVENT_SCHEMAS: Dict[str, Dict[str, tuple]] = {
    # Run lifecycle -----------------------------------------------------
    "run_start": {"name": _STR, "wall_time": _NUM},
    # `duration_s` is measured on the monotonic clock (time.perf_counter):
    # wall-clock deltas would mis-report runs that span an NTP step.
    "run_end": {"wall_time": _NUM, "duration_s": _NUM},
    # Crash-safe run snapshots (repro.core.runstate) --------------------
    "snapshot": {
        "iteration": _INT,
        "path": _STR,
        "reason": _STR,  # periodic | signal:<NAME> | halt | final
        "duration_s": _NUM,
    },
    "resume": {
        "iteration": _INT,  # completed iterations restored from the snapshot
        "path": _STR,
        "samples": _INT,
        "sim_clock": _NUM,
    },
    # Encoder pre-training (repro.gnn.pretrain) -------------------------
    "pretrain": {"iteration": _INT, "loss": _NUM, "best_loss": _NUM},
    # RL search (repro.rl.trainer) --------------------------------------
    "iteration": {
        "iteration": _INT,
        "samples": _INT,
        "best_runtime": _NUM,
        "baseline": _NUM,
        "n_invalid": _INT,
        "n_truncated": _INT,
        "sim_clock": _NUM,
        "wall_seconds": _NUM,
    },
    "sample": {
        "iteration": _INT,
        "index": _INT,
        "runtime": _NUM,
        "valid": _BOOL,
        "truncated": _BOOL,
    },
    "update": {
        "iteration": _INT,
        "policy_loss": _NUM,
        "entropy": _NUM,
        "clip_fraction": _NUM,
        "approx_kl": _NUM,
        "grad_norm": _NUM,
        "passes": _INT,
    },
    # Environment measurements (repro.sim.env) --------------------------
    "eval": {
        "makespan": _NUM,
        "per_step_time": _NUM,
        "valid": _BOOL,
        "truncated": _BOOL,
        "cached": _BOOL,
        "wall_clock": _NUM,
        "sim_clock": _NUM,
    },
    "oom": {"sim_clock": _NUM, "usage_gb": _NUM, "capacity_gb": _NUM},
    "cutoff": {"sim_clock": _NUM, "per_step_time": _NUM, "steps_run": _INT},
    # Health watchdog (repro.telemetry.health) --------------------------
    "alert": {
        "detector": _STR,
        "action": _STR,  # log | warn | halt
        "iteration": _INT,
        "value": _NUM,  # the observed statistic that tripped the detector
        "threshold": _NUM,
        "window": _INT,  # observations the statistic was computed over
        "message": _STR,
    },
    # Tracing (repro.telemetry.tracing) ---------------------------------
    # One event per finished span. `parent_id` is "" for trace roots;
    # `start_unix` is wall-clock so spans from different processes line
    # up, `duration_s` is monotonic-clock; `status` is "ok" | "error".
    # Producers attach extra context (e.g. `iteration`, `jobs`, `pid`).
    "span": {
        "trace_id": _STR,
        "span_id": _STR,
        "parent_id": _STR,
        "name": _STR,
        "start_unix": _NUM,
        "duration_s": _NUM,
        "status": _STR,
    },
    # Placement service (repro.serve) -----------------------------------
    # One event per serviced request. `status` is "ok" or a typed error
    # code ("bad_request" | "policy_not_found" | "overloaded" | ...);
    # `cache` is "hit" | "miss" | "coalesced" (awaited an identical
    # in-flight request's pending cache entry) | "none" (failed requests
    # never reach the cache). `policy_id`/`fingerprint` are empty strings
    # when the request failed before they were resolved.
    "serve_request": {
        "request_id": _STR,
        "policy_id": _STR,
        "fingerprint": _STR,
        "status": _STR,
        "cache": _STR,
        "latency_ms": _NUM,
        "budget": _INT,
    },
    # Placement attribution (repro.sim.attribution via PlacementEnv) ----
    # Carries the JSON payload of PlacementAttribution.event_payload:
    # besides the scalars below, `devices` (busy/idle/intervals per
    # device), `top_ops` and `traffic_bytes` ride along as optional
    # structured fields.
    "attribution": {
        "iteration": _INT,  # -1 when not tied to a policy iteration
        "makespan": _NUM,
        "critical_path_time": _NUM,
        "comm_bound_fraction": _NUM,
        "utilization": _NUM,
        "comm_time": _NUM,
        "comm_bytes": _NUM,
        "path_ops": _INT,
        "path_comms": _INT,
    },
}


def validate_event(event: object) -> List[str]:
    """Return a list of schema violations for ``event`` (empty = valid)."""
    errors: List[str] = []
    if not isinstance(event, dict):
        return [f"event is {type(event).__name__}, expected object"]
    version = event.get("v")
    if version != SCHEMA_VERSION:
        errors.append(f"schema version {version!r} != {SCHEMA_VERSION}")
    etype = event.get("type")
    if not isinstance(etype, str):
        return errors + ["missing 'type'"]
    if not isinstance(event.get("seq"), int):
        errors.append("missing integer 'seq'")
    schema = EVENT_SCHEMAS.get(etype)
    if schema is None:
        errors.append(f"unknown event type {etype!r}")
        return errors
    for name, types in schema.items():
        if name not in event:
            errors.append(f"{etype}: missing field {name!r}")
        elif not isinstance(event[name], types) or (
            types is _NUM and isinstance(event[name], bool)
        ):
            errors.append(
                f"{etype}: field {name!r} has type {type(event[name]).__name__}"
            )
    return errors


def _part_path(run_dir: str, part: int) -> str:
    return os.path.join(run_dir, f"events-{part:03d}.jsonl")


class RunLogger:
    """Appends schema-versioned JSONL events to a per-run directory."""

    def __init__(
        self,
        run_dir: str,
        max_bytes: int = 4_000_000,
        flush_every: int = 64,
        validate: bool = False,
    ):
        self.run_dir = run_dir
        self.max_bytes = max(1, int(max_bytes))
        self.flush_every = max(1, int(flush_every))
        self.validate = validate
        os.makedirs(run_dir, exist_ok=True)
        self._seq = 0
        self._part = 0
        self._bytes = 0
        self._since_flush = 0
        self._fh: Optional[IO[str]] = None
        # Serving emits from many threads (handler threads, queue
        # workers, the flush thread); seq assignment and file writes
        # must not interleave.
        self._lock = threading.Lock()

    # -- file handling --------------------------------------------------
    def _open(self) -> IO[str]:
        if self._fh is None:
            self._fh = open(_part_path(self.run_dir, self._part), "a")
            self._bytes = self._fh.tell()
        return self._fh

    def _rotate(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._part += 1
        self._bytes = 0

    # -- API ------------------------------------------------------------
    def emit(self, etype: str, **fields) -> dict:
        """Write one event; returns the event dict (useful in tests)."""
        with self._lock:
            event = {"v": SCHEMA_VERSION, "type": etype, "seq": self._seq}
            event.update(fields)
            self._seq += 1
            if self.validate:
                errors = validate_event(event)
                if errors:
                    raise ValueError(f"invalid event: {'; '.join(errors)}")
            line = json.dumps(event, separators=(",", ":"), default=float) + "\n"
            if self._bytes and self._bytes + len(line) > self.max_bytes:
                self._rotate()
            fh = self._open()
            fh.write(line)
            self._bytes += len(line)
            self._since_flush += 1
            if self._since_flush >= self.flush_every:
                fh.flush()
                self._since_flush = 0
            return event

    @property
    def num_events(self) -> int:
        return self._seq

    def flush(self) -> None:
        """Push buffered events to disk (the periodic live flush)."""
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                self._since_flush = 0

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "RunLogger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullRunLogger:
    """No-op drop-in for :class:`RunLogger`."""

    run_dir = None
    num_events = 0

    def emit(self, etype: str, **fields) -> dict:
        return {}

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullRunLogger":
        return self

    def __exit__(self, *exc) -> None:
        pass


def event_files(run_dir: str) -> List[str]:
    """The run's JSONL parts in write order."""
    return sorted(glob.glob(os.path.join(run_dir, "events-*.jsonl")))


def read_events(
    run_dir: str, types: Optional[Tuple[str, ...]] = None
) -> Iterator[dict]:
    """Stream events back from a run directory, optionally filtered."""
    for path in event_files(run_dir):
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line)
                if types is None or event.get("type") in types:
                    yield event
