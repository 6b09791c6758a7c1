"""Discrete-event simulator of a multi-device machine.

This package replaces the paper's physical reinforcement-learning
environment (a 4× P100 + 2× Xeon machine running TensorFlow): given a
computational graph and a placement it produces a per-step training time,
detects out-of-memory placements, and accounts for the *wall-clock cost of
measuring* each placement (re-initialization, warm-up steps, bad-placement
cutoff) so the agent-training-time results (Fig. 8) can be reproduced.
"""

from repro.sim.device import DeviceSpec
from repro.sim.cluster import ClusterSpec
from repro.sim.placement import Placement, resolve_placement
from repro.sim.costmodel import CostModel
from repro.sim.memory import MemoryModel, MemoryReport
from repro.sim.scheduler import (
    Scheduler,
    ScheduleResult,
    ScheduleTables,
    TransferRecord,
)
from repro.sim.attribution import (
    PathSegment,
    PlacementAttribution,
    attribute_schedule,
    coalesce_intervals,
)
from repro.sim.measurement import MeasurementProtocol, MeasurementResult
from repro.sim.batch import BatchEvalConfig, EvalOutcome, PureEvaluator
from repro.sim.incremental import (
    IncrementalEvalConfig,
    IncrementalEvaluator,
    ScheduleBaseline,
    build_baseline,
    resume_schedule,
)
from repro.sim.env import PlacementEnv

__all__ = [
    "PathSegment",
    "PlacementAttribution",
    "attribute_schedule",
    "coalesce_intervals",
    "TransferRecord",
    "BatchEvalConfig",
    "EvalOutcome",
    "PureEvaluator",
    "IncrementalEvalConfig",
    "IncrementalEvaluator",
    "ScheduleBaseline",
    "ScheduleTables",
    "build_baseline",
    "resume_schedule",
    "DeviceSpec",
    "ClusterSpec",
    "Placement",
    "resolve_placement",
    "CostModel",
    "MemoryModel",
    "MemoryReport",
    "Scheduler",
    "ScheduleResult",
    "MeasurementProtocol",
    "MeasurementResult",
    "PlacementEnv",
]
