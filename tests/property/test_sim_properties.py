"""Property-based tests for scheduler/memory/placement invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import critical_path
from repro.core.annealing import AnnealingConfig, _propose
from repro.graph import CompGraph, OpNode
from repro.sim import ClusterSpec, MemoryModel, Placement, PlacementEnv, Scheduler
from repro.sim.placement import resolve_placement
from repro.sim.scheduler import ScheduleTables
from repro.workloads import get_workload
from tests.helpers import reference_resolve, reference_simulate

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


@given(dag_and_placement())
@settings(max_examples=60, deadline=None)
def test_makespan_lower_bounds(case):
    g, devices = case
    placement = Placement(devices, g, CLUSTER)
    res = SCHED.run_step(placement)
    # Makespan dominates the busiest device and the critical-path bound.
    assert res.makespan >= res.device_busy.max() - 1e-12
    assert res.makespan >= critical_path(g, CLUSTER)[0] + CLUSTER.step_overhead - 1e-9
    assert np.all(res.finish_times > 0)


@given(dag_and_placement())
@settings(max_examples=60, deadline=None)
def test_single_device_is_serial_sum(case):
    g, _ = case
    placement = Placement(np.zeros(g.num_nodes, dtype=int), g, CLUSTER)
    res = SCHED.run_step(placement)
    times = SCHED.cost_model.op_time_matrix(g, CLUSTER)
    assert res.makespan == pytest.approx(times[:, 0].sum() + CLUSTER.step_overhead)
    assert res.comm_bytes == 0.0


@given(dag_and_placement())
@settings(max_examples=60, deadline=None)
def test_comm_bytes_bounded_by_cut(case):
    g, devices = case
    placement = Placement(devices, g, CLUSTER)
    res = SCHED.run_step(placement)
    cut_bytes = sum(
        g.nodes[u].output_bytes for u, v in g.edges() if devices[u] != devices[v]
    )
    assert res.comm_bytes <= cut_bytes + 1e-9


@given(dag_and_placement())
@settings(max_examples=60, deadline=None)
def test_memory_usage_conserved(case):
    g, devices = case
    placement = Placement(devices, g, CLUSTER)
    mm = MemoryModel()
    report = mm.check(placement)
    assert report.usage.sum() == pytest.approx(mm.op_bytes_vector(g).sum())
    assert np.all(report.usage >= 0)


@given(dag_and_placement())
@settings(max_examples=60, deadline=None)
def test_resolution_idempotent(case):
    g, devices = case
    once = resolve_placement(devices, g, CLUSTER)
    twice = resolve_placement(once.devices, g, CLUSTER)
    assert once == twice


@given(dag_and_placement())
@settings(max_examples=30, deadline=None)
def test_scheduler_deterministic(case):
    g, devices = case
    placement = Placement(devices, g, CLUSTER)
    assert SCHED.run_step(placement).makespan == SCHED.run_step(placement).makespan


@given(dag_and_placement())
@settings(max_examples=40, deadline=None)
def test_run_step_deterministic_and_lower_bounded(case):
    """Identical placements (even separately constructed, with or without
    precomputed op-times) give the same makespan, and that makespan never
    beats the critical-path lower bound."""
    g, devices = case
    a = SCHED.run_step(Placement(devices, g, CLUSTER))
    op_times = SCHED.cost_model.op_time_matrix(g, CLUSTER)
    b = SCHED.run_step(Placement(devices.copy(), g, CLUSTER), op_times)
    assert a.makespan == b.makespan
    assert a.makespan >= critical_path(g, CLUSTER)[0] + CLUSTER.step_overhead - 1e-9


@given(dag_and_placement(), st.integers(2, 8))
@settings(max_examples=25, deadline=None)
def test_evaluate_batch_matches_sequential(case, n_samples):
    """evaluate_batch == a sequential evaluate loop: same results, same
    cache contents, same EnvStats totals — including in-batch duplicates."""
    from repro.sim import BatchEvalConfig, PlacementEnv

    g, devices = case
    rng = np.random.default_rng(devices.sum() if devices.size else 0)
    batch = [rng.integers(0, CLUSTER.num_devices, g.num_nodes) for _ in range(n_samples)]
    batch.append(batch[0].copy())  # guaranteed duplicate

    seq_env = PlacementEnv(g, CLUSTER)
    batch_env = PlacementEnv(g, CLUSTER, batch=BatchEvalConfig())
    sequential = [seq_env.evaluate(a) for a in batch]
    batched = batch_env.evaluate_batch(batch)

    assert batched == sequential
    assert batch_env.stats == seq_env.stats
    assert list(batch_env._cache.keys()) == list(seq_env._cache.keys())


@given(dag_and_placement(), st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_trace_does_not_change_results(case, num_gpus):
    """``run_step(trace=True)`` is observation, not intervention: every
    numeric field is identical to the untraced run, across random graphs
    and cluster sizes; only the ``transfers`` record appears."""
    g, devices = case
    cluster = ClusterSpec.default(num_gpus=num_gpus)
    placement = resolve_placement(devices % cluster.num_devices, g, cluster)
    plain = SCHED.run_step(placement)
    traced = SCHED.run_step(placement, trace=True)
    assert traced.makespan == plain.makespan
    assert np.array_equal(traced.start_times, plain.start_times)
    assert np.array_equal(traced.finish_times, plain.finish_times)
    assert np.array_equal(traced.device_busy, plain.device_busy)
    assert traced.comm_time == plain.comm_time
    assert traced.comm_bytes == plain.comm_bytes
    assert plain.transfers is None
    assert traced.transfers is not None
    assert sum(t.nbytes for t in traced.transfers) == traced.comm_bytes


@st.composite
def chain_and_placement(draw):
    """A random chain of 1..12 ops, a cluster shape and a placement on it."""
    cluster = draw(st.sampled_from([ClusterSpec.default(), ClusterSpec.nvlink()]))
    n = draw(st.integers(1, 12))
    g = CompGraph("chain")
    for i in range(n):
        g.add_node(
            OpNode(
                f"op{i}",
                draw(st.sampled_from(["MatMul", "Conv2D", "ReLU"])),
                output_shape=(draw(st.integers(1, 512)), draw(st.integers(1, 512))),
                flops=draw(st.floats(0, 1e10)),
                activation_bytes=draw(st.floats(0, 1e7)),
            ),
            inputs=[f"op{i - 1}"] if i else [],
        )
    devices = draw(
        st.lists(
            st.integers(0, cluster.num_devices - 1), min_size=n, max_size=n
        )
    )
    return g, cluster, Placement(np.array(devices), g, cluster)


@given(chain_and_placement())
@settings(max_examples=80, deadline=None)
def test_chain_critical_path_equals_makespan(case):
    """A chain has no parallelism and no link contention, so its placed
    critical path *is* the schedule: the longest-path routine and the
    event loop must charge the same op and transfer times, bit for bit,
    on every link topology (NVLink overrides included)."""
    g, cluster, placement = case
    total, _ = critical_path(g, cluster, placement)
    assert total + cluster.step_overhead == SCHED.run_step(placement).makespan


# ----------------------------------------------------------------------
# Differential test: the event loop against the reference loop
# ----------------------------------------------------------------------
def schedule_bits(res) -> tuple:
    """Every field of a ``ScheduleResult``, as exact bits."""
    return (
        float(res.makespan).hex(),
        res.finish_times.tobytes(),
        res.start_times.tobytes(),
        res.device_busy.tobytes(),
        float(res.comm_time).hex(),
        float(res.comm_bytes).hex(),
        res.transfers,
    )


def assert_matches_reference(graph, cluster, devices, trace: bool) -> None:
    placement = Placement(np.asarray(devices), graph, cluster)
    tables = ScheduleTables(
        graph, cluster, SCHED.cost_model, SCHED.cost_model.op_time_matrix(graph, cluster)
    )
    expected = reference_simulate(tables, placement.devices.tolist(), [] if trace else None)
    actual = SCHED.run_step(placement, trace=trace)
    assert schedule_bits(actual) == schedule_bits(expected)


@st.composite
def tied_dag_and_placement(draw):
    """A random DAG whose op and transfer costs come from a few equal
    classes, so completions and arrivals often fall at exactly the same
    time and the heap's ``seq`` tie-break decides the order."""
    cluster = draw(st.sampled_from([ClusterSpec.default(), ClusterSpec.nvlink()]))
    n = draw(st.integers(1, 40))
    g = CompGraph("tied")
    for i in range(n):
        g.add_node(
            OpNode(
                f"op{i}",
                "MatMul",
                output_shape=draw(st.sampled_from([(1,), (1,), (512, 512)])),
                flops=draw(st.sampled_from([0.0, 0.0, 1e9, 3e9])),
            )
        )
    for v in range(1, n):
        for u in range(max(0, v - 6), v):
            if draw(st.integers(0, 2)) == 0:
                g.add_edge(f"op{u}", f"op{v}")
    # Few devices in use: more shipments share a link, so the order of
    # simultaneous events shows in the transfer start times.
    used = draw(st.sampled_from([2, 2, 3, cluster.num_devices]))
    devices = draw(st.lists(st.integers(0, used - 1), min_size=n, max_size=n))
    return g, cluster, devices


@given(tied_dag_and_placement(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_event_loop_matches_reference(case, trace):
    """``run_step`` reproduces the reference event loop bit for bit: every
    ``ScheduleResult`` field and, when tracing, the ``TransferRecord`` list."""
    g, cluster, devices = case
    assert_matches_reference(g, cluster, devices, trace)


def anneal_placements(num_ops: int, num_devices: int, count: int, seed: int):
    """``count`` successive annealing proposals from a seeded random start."""
    rng = np.random.default_rng(seed)
    actions = rng.integers(0, num_devices, num_ops)
    out = [actions]
    for _ in range(count - 1):
        actions = _propose(actions, num_devices, AnnealingConfig(), rng)
        out.append(actions)
    return out


@pytest.mark.parametrize(
    "cluster", [ClusterSpec.default(), ClusterSpec.nvlink()], ids=["default", "nvlink"]
)
def test_event_loop_matches_reference_on_full_gnmt4(cluster):
    """Full-size GNMT-4 (686 ops; the golden file pins it only at
    ``scale=0.25``) over seeded anneal-style placements."""
    graph = get_workload("gnmt4")
    for i, actions in enumerate(anneal_placements(graph.num_nodes, cluster.num_devices, 24, 3)):
        devices = resolve_placement(actions, graph, cluster).devices
        assert_matches_reference(graph, cluster, devices, trace=i % 2 == 0)


# ----------------------------------------------------------------------
# Constraint resolution against the per-node reference loop
# ----------------------------------------------------------------------
@st.composite
def constrained_dag_and_actions(draw):
    """A random graph with colocation groups and ``cpu_only`` ops (also
    inside groups), a cluster and raw actions for it."""
    cluster = draw(
        st.sampled_from(
            [ClusterSpec.default(), ClusterSpec.nvlink(), ClusterSpec.default(num_gpus=1)]
        )
    )
    n = draw(st.integers(0, 20))
    g = CompGraph("constrained")
    for i in range(n):
        g.add_node(
            OpNode(
                f"op{i}",
                "MatMul",
                output_shape=(4,),
                cpu_only=draw(st.integers(0, 3)) == 0,
                colocation_group=draw(st.sampled_from([None, None, "a", "b", "c"])),
            ),
            inputs=[f"op{i - 1}"] if i and draw(st.booleans()) else [],
        )
    actions = draw(
        st.lists(st.integers(0, cluster.num_devices - 1), min_size=n, max_size=n)
    )
    return g, cluster, np.array(actions, dtype=np.int64)


@given(constrained_dag_and_actions())
@settings(max_examples=150, deadline=None)
def test_resolve_matches_reference(case):
    g, cluster, actions = case
    expected = reference_resolve(actions, g, cluster).devices
    assert np.array_equal(resolve_placement(actions, g, cluster).devices, expected)
    assert np.array_equal(PlacementEnv(g, cluster).resolve(actions).devices, expected)


def test_resolve_cpu_only_wins_inside_colocation_group():
    cluster = ClusterSpec.default()
    g = CompGraph("group")
    g.add_node(OpNode("lead", "MatMul", (4,), colocation_group="g"))
    g.add_node(
        OpNode("pinned", "Input", (4,), cpu_only=True, colocation_group="g"), inputs=["lead"]
    )
    g.add_node(OpNode("follow", "MatMul", (4,), colocation_group="g"), inputs=["pinned"])

    for resolve in (lambda a: resolve_placement(a, g, cluster), PlacementEnv(g, cluster).resolve):
        assert resolve([2, 1, 3]).devices.tolist() == [2, cluster.cpu_index, 2]
        with pytest.raises(ValueError):
            resolve([0, 0])
        with pytest.raises(ValueError):
            resolve([0, 0, 0, 0])
