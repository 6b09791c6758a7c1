"""Property-based tests for placement-attribution invariants.

Pins the contract the attribution engine promises over arbitrary DAGs:
the realized critical path tiles the schedule's span exactly, busy-time
accounting matches the evaluator's utilization definition, and the
attributed path never beats the scheduler's critical-path lower bound.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import critical_path
from repro.graph import CompGraph, OpNode
from repro.sim import ClusterSpec, Placement, Scheduler, attribute_schedule

CLUSTER = ClusterSpec.default()
SCHED = Scheduler()


@st.composite
def random_dag(draw):
    """A random DAG of 2..16 ops with random costs; edges go forward only."""
    n = draw(st.integers(2, 16))
    g = CompGraph("random")
    for i in range(n):
        g.add_node(
            OpNode(
                f"op{i}",
                draw(st.sampled_from(["MatMul", "Conv2D", "ReLU", "Concat"])),
                output_shape=(draw(st.integers(1, 64)), draw(st.integers(1, 64))),
                flops=draw(st.floats(0, 1e9)),
                param_bytes=draw(st.floats(0, 1e6)),
                activation_bytes=draw(st.floats(0, 1e6)),
            )
        )
    for v in range(1, n):
        for u in range(v):
            if draw(st.booleans()) and draw(st.integers(0, 2)) == 0:
                g.add_edge(f"op{u}", f"op{v}")
    return g


@st.composite
def dag_and_placement(draw):
    g = draw(random_dag())
    devices = draw(
        st.lists(
            st.integers(0, CLUSTER.num_devices - 1),
            min_size=g.num_nodes,
            max_size=g.num_nodes,
        )
    )
    return g, np.array(devices)


def attributed(case):
    g, devices = case
    placement = Placement(devices, g, CLUSTER)
    schedule = SCHED.run_step(placement, trace=True)
    return g, placement, schedule, attribute_schedule(placement, schedule)


@given(dag_and_placement())
@settings(max_examples=60, deadline=None)
def test_path_tiles_span(case):
    """Critical-path segments are contiguous and sum exactly to the span."""
    g, _, schedule, attr = attributed(case)
    assert attr.path[0].start == pytest.approx(0.0, abs=1e-9)
    assert attr.path[-1].end == pytest.approx(attr.span)
    for a, b in zip(attr.path, attr.path[1:]):
        assert b.start == pytest.approx(a.end, abs=1e-9)
    assert attr.critical_path_time == pytest.approx(attr.span)
    assert attr.makespan == pytest.approx(schedule.makespan)


@given(dag_and_placement())
@settings(max_examples=60, deadline=None)
def test_busy_time_matches_evaluator_utilization(case):
    """sum(busy) == utilization * makespan * D — the identity behind the
    env's `env.device_utilization`."""
    g, _, schedule, attr = attributed(case)
    expected_util = float(np.mean(schedule.device_busy) / schedule.makespan)
    assert attr.utilization == pytest.approx(expected_util)
    assert attr.device_busy.sum() == pytest.approx(
        attr.utilization * attr.makespan * CLUSTER.num_devices
    )
    # Per-device interval sums reproduce the scheduler's busy vector.
    for d, ivals in enumerate(attr.device_intervals):
        assert sum(e - s for _, s, e in ivals) == pytest.approx(
            schedule.device_busy[d], abs=1e-9
        )


@given(dag_and_placement())
@settings(max_examples=60, deadline=None)
def test_attributed_path_dominates_lower_bound(case):
    """The realized critical path (plus overhead) never beats the graph's
    placement-independent critical-path lower bound."""
    g, _, _, attr = attributed(case)
    lb = critical_path(g, CLUSTER)[0] + CLUSTER.step_overhead
    assert attr.critical_path_time + CLUSTER.step_overhead >= lb - 1e-9


@given(dag_and_placement())
@settings(max_examples=60, deadline=None)
def test_traffic_matrix_consistent(case):
    g, _, schedule, attr = attributed(case)
    assert attr.traffic_bytes.sum() == pytest.approx(schedule.comm_bytes)
    assert np.all(np.diag(attr.traffic_bytes) == 0.0)
    assert 0.0 <= attr.comm_bound_fraction <= 1.0 + 1e-12


@given(dag_and_placement(), st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_event_payload_bounded_and_json_safe(case, max_intervals):
    """Payload survives json round-trips and honours the interval cap."""
    g, _, _, attr = attributed(case)
    payload = attr.event_payload(g, max_intervals=max_intervals)
    reloaded = json.loads(json.dumps(payload))
    for dev in reloaded["devices"]:
        assert len(dev["intervals"]) <= max_intervals
        for s, e in dev["intervals"]:
            assert e >= s >= 0.0
    assert reloaded["path_ops"] >= 1


@given(dag_and_placement())
@settings(max_examples=30, deadline=None)
def test_trace_does_not_change_schedule(case):
    """trace=True is observation only: identical makespan and busy times."""
    g, devices = case
    plain = SCHED.run_step(Placement(devices, g, CLUSTER))
    traced = SCHED.run_step(Placement(devices, g, CLUSTER), trace=True)
    assert plain.makespan == traced.makespan
    np.testing.assert_array_equal(plain.device_busy, traced.device_busy)
    assert plain.comm_bytes == traced.comm_bytes
    assert traced.transfers is not None and plain.transfers is None
