"""Shared test utilities."""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.nn import Tensor, stack
from repro.sim.placement import Placement
from repro.sim.scheduler import ScheduleResult, ScheduleTables, TransferRecord


def numerical_gradient(f, x0: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` at ``x0``."""
    grad = np.zeros_like(x0, dtype=float)
    flat_x = x0.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        xp = flat_x.copy()
        xm = flat_x.copy()
        xp[i] += eps
        xm[i] -= eps
        fp = float(f(Tensor(xp.reshape(x0.shape))).data)
        fm = float(f(Tensor(xm.reshape(x0.shape))).data)
        flat_g[i] = (fp - fm) / (2 * eps)
    return grad


def check_gradient(f, x0: np.ndarray, tol: float = 1e-5) -> float:
    """Assert autodiff and numerical gradients agree; returns max error."""
    x = Tensor(x0.copy(), requires_grad=True)
    out = f(x)
    assert out.size == 1, "gradcheck target must be scalar"
    out.backward()
    assert x.grad is not None, "no gradient reached the input"
    num = numerical_gradient(f, x0)
    err = float(np.abs(num - x.grad).max())
    assert err < tol, f"gradient mismatch: max err {err}"
    return err


def composed_lstm_step(cell, gates_x, state):
    """``LSTMCell.step`` written as a composition of tensor ops."""
    h, c = state
    gates = gates_x + h @ cell.w_hh
    hs = cell.hidden_size
    i = gates[:, 0 * hs : 1 * hs].sigmoid()
    f = gates[:, 1 * hs : 2 * hs].sigmoid()
    g = gates[:, 2 * hs : 3 * hs].tanh()
    o = gates[:, 3 * hs : 4 * hs].sigmoid()
    c_new = f * c + i * g
    return o * c_new.tanh(), c_new


def composed_lstm(lstm, x, state=None, reverse=False):
    """``LSTM.forward`` as a loop of :func:`composed_lstm_step` nodes."""
    cell = lstm.cell
    if state is None:
        state = cell.init_state(x.shape[1])
    flip = np.arange(x.shape[0] - 1, -1, -1)
    if reverse:
        x = x[flip]
    gates_x = x @ cell.w_ih + cell.bias
    outs = []
    for t in range(x.shape[0]):
        state = composed_lstm_step(cell, gates_x[t], state)
        outs.append(state[0])
    out = stack(outs, axis=0)
    return (out[flip] if reverse else out), state


def composed_attention(att, memory, query):
    """``BahdanauAttention.forward`` as a composition of tensor ops."""
    keys = att.project_memory(memory)
    s = (keys + att.w_query(query)).tanh()
    scores = s @ att.v
    e = (scores - Tensor(scores.data.max(axis=0, keepdims=True))).exp()
    weights = e / e.sum(axis=0, keepdims=True)
    T, B = weights.shape
    return (memory * weights.reshape(T, B, 1)).sum(axis=0)


def composed_gcn(layers, x, adj):
    """``GCNEncoder.forward`` as ``Linear`` -> ``spmm`` -> ``PReLU`` per layer."""
    from repro.nn.functional import spmm

    h = x if isinstance(x, Tensor) else Tensor(x)
    for layer in layers:
        h = layer.act(spmm(adj, layer.linear(h)))
    return h


def composed_dgi_loss(dgi, x, adj, rng):
    """``DGI.loss`` with a GCN encoder, written as a composition of tensor ops."""
    from repro.gnn import node_permutation
    from repro.nn import concat
    from repro.nn.functional import bce_with_logits

    x_neg = node_permutation(x, rng)
    h_pos = composed_gcn(dgi.encoder.layers, x, adj)
    h_neg = composed_gcn(dgi.encoder.layers, x_neg, adj)
    summary = dgi.readout(h_pos)
    logits_pos = dgi.discriminator_logits(h_pos, summary)
    logits_neg = dgi.discriminator_logits(h_neg, summary)
    logits = concat([logits_pos, logits_neg], axis=0)
    labels = np.concatenate([np.ones(len(h_pos)), np.zeros(len(h_neg))])
    return bce_with_logits(logits, labels)


def tiny_graph():
    """A 6-op diamond DAG used across unit tests."""
    from repro.graph import CompGraph, OpNode

    g = CompGraph("tiny")
    g.add_node(OpNode("in", "Input", (4, 8), cpu_only=True))
    g.add_node(OpNode("a", "MatMul", (4, 16), flops=1e6, param_bytes=512), inputs=["in"])
    g.add_node(OpNode("b", "ReLU", (4, 16), flops=64), inputs=["a"])
    g.add_node(OpNode("c", "MatMul", (4, 16), flops=1e6, param_bytes=1024), inputs=["a"])
    g.add_node(OpNode("d", "Concat", (4, 32)), inputs=["b", "c"])
    g.add_node(OpNode("loss", "CrossEntropy", (1,), flops=128), inputs=["d"])
    return g


# The scheduler's event loop as it stood before its per-event work was cut
# (push-then-pop through the ready queues, ``device_free``, tuple payloads,
# a ``shipped`` set). Kept verbatim as the differential oracle: the current
# ``scheduler._simulate`` must reproduce every output of it bit for bit.

def reference_simulate(
    tables: ScheduleTables,
    devices: List[int],
    transfers: Optional[List[TransferRecord]] = None,
) -> ScheduleResult:
    """Run the event loop from the initial state to exhaustion.

    Event heap entries are ``(time, seq, kind, payload)``: kind 0 is an op
    completion (payload ``(op, device)``), kind 1 a tensor arrival
    (payload ``(producer, dst_device)``). ``remaining[v]`` counts inputs
    not yet arrived on v's device; an edge u->v with u on another device
    completes only when the (u, dst) transfer arrives, which satisfies
    every consumer of u on dst.

    ``transfers``, when given, receives a :class:`TransferRecord` per
    cross-device shipment.
    """
    n = tables.n
    num_devices = tables.num_devices
    op_times = tables.op_times
    succ = tables.succ
    out_bytes = tables.out_bytes
    transfer = tables.transfer
    finish = [0.0] * n
    starts = [0.0] * n
    device_free = [0.0] * num_devices
    device_busy = [0.0] * num_devices
    device_ready: List[List[int]] = [[] for _ in range(num_devices)]
    device_running = [False] * num_devices
    link_free: Dict[Tuple[int, int], float] = {}
    shipped: Set[Tuple[int, int]] = set()
    remaining = list(tables.in_degree)
    events: List[tuple] = []
    seq = 0
    consumers_waiting: Dict[Tuple[int, int], List[int]] = {}
    comm_time = 0.0
    comm_bytes = 0.0
    heappush, heappop = heapq.heappush, heapq.heappop

    # Source ops are ready at t=0: each device starts its first one and
    # queues the rest.
    for op in range(n):
        if remaining[op] == 0:
            dev = devices[op]
            if device_running[dev]:
                heappush(device_ready[dev], op)
            else:
                duration = op_times[op][dev]
                finish[op] = duration
                device_free[dev] = duration
                device_busy[dev] += duration
                device_running[dev] = True
                heappush(events, (duration, seq, 0, (op, dev)))
                seq += 1

    while events:
        now, _, kind, payload = heappop(events)
        if kind == 0:  # op completed
            op, dev = payload
            device_running[dev] = False
            for s in succ[op]:
                dst = devices[s]
                if dst == dev:
                    remaining[s] -= 1
                    if remaining[s] == 0:
                        # mark ready, then start it if its device is idle
                        heappush(device_ready[dst], s)
                        if not device_running[dst]:
                            ready_op = heappop(device_ready[dst])
                            duration = op_times[ready_op][dst]
                            start = now if now > device_free[dst] else device_free[dst]
                            end = start + duration
                            starts[ready_op] = start
                            finish[ready_op] = end
                            device_free[dst] = end
                            device_busy[dst] += duration
                            device_running[dst] = True
                            heappush(events, (end, seq, 0, (ready_op, dst)))
                            seq += 1
                else:
                    key = (op, dst)
                    if key in shipped:
                        consumers_waiting[key].append(s)
                    else:
                        shipped.add(key)
                        consumers_waiting[key] = [s]
                        nbytes = out_bytes[op]
                        link = (dev, dst) if dev < dst else (dst, dev)
                        duration = transfer[dev][dst][op]
                        queued = link_free.get(link, 0.0)
                        start = now if now > queued else queued
                        link_free[link] = start + duration
                        comm_time += duration
                        comm_bytes += nbytes
                        if transfers is not None:
                            transfers.append(
                                TransferRecord(op, dev, dst, start, start + duration, nbytes)
                            )
                        heappush(events, (start + duration, seq, 1, key))
                        seq += 1
            # Start the next ready op on the freed device. A same-device
            # successor may have restarted the device inside the loop
            # above, so the running check is load-bearing.
            if not device_running[dev] and device_ready[dev]:
                ready_op = heappop(device_ready[dev])
                duration = op_times[ready_op][dev]
                start = now if now > device_free[dev] else device_free[dev]
                end = start + duration
                starts[ready_op] = start
                finish[ready_op] = end
                device_free[dev] = end
                device_busy[dev] += duration
                device_running[dev] = True
                heappush(events, (end, seq, 0, (ready_op, dev)))
                seq += 1
        else:  # tensor arrived on a device
            for s in consumers_waiting.pop(payload, ()):
                remaining[s] -= 1
                if remaining[s] == 0:
                    dst = devices[s]
                    heappush(device_ready[dst], s)
                    if not device_running[dst]:
                        ready_op = heappop(device_ready[dst])
                        duration = op_times[ready_op][dst]
                        start = now if now > device_free[dst] else device_free[dst]
                        end = start + duration
                        starts[ready_op] = start
                        finish[ready_op] = end
                        device_free[dst] = end
                        device_busy[dst] += duration
                        device_running[dst] = True
                        heappush(events, (end, seq, 0, (ready_op, dst)))
                        seq += 1

    if any(remaining):  # pragma: no cover - defensive
        raise RuntimeError("scheduler deadlock: graph has a cycle?")
    finish_arr = np.array(finish, dtype=np.float64)
    makespan = float(finish_arr.max()) + tables.step_overhead if n else 0.0
    return ScheduleResult(
        makespan=makespan,
        finish_times=finish_arr,
        device_busy=np.array(device_busy, dtype=np.float64),
        comm_time=float(comm_time),
        comm_bytes=float(comm_bytes),
        start_times=np.array(starts, dtype=np.float64),
        transfers=transfers,
    )


def reference_resolve(actions, graph, cluster) -> Placement:
    """``resolve_placement`` as the per-node loop it used to be: colocation
    groups follow their first member, then ``cpu_only`` ops go to the CPU."""
    devices = np.asarray(actions, dtype=np.int64).copy()
    if devices.shape != (graph.num_nodes,):
        raise ValueError("actions length mismatch")
    group_device: Dict[str, int] = {}
    for i, node in enumerate(graph.nodes):
        if node.colocation_group is not None:
            if node.colocation_group not in group_device:
                group_device[node.colocation_group] = int(devices[i])
            devices[i] = group_device[node.colocation_group]
    for i, node in enumerate(graph.nodes):
        if node.cpu_only:
            devices[i] = cluster.cpu_index
    return Placement(devices, graph, cluster)


def reference_features(extractor, graph) -> np.ndarray:
    """``FeatureExtractor.features`` as the per-node loop it used to be.
    The array version must reproduce it bit for bit."""
    from repro.graph.features import SHAPE_RANK

    def pad_shape(shape):
        arr = np.zeros(SHAPE_RANK)
        trimmed = shape[-SHAPE_RANK:] if len(shape) > SHAPE_RANK else shape
        arr[: len(trimmed)] = trimmed
        return arr

    n = graph.num_nodes
    if n == 0:
        return np.zeros((0, extractor.dim))
    max_dim = 1.0
    for node in graph.nodes:
        if node.output_shape:
            max_dim = max(max_dim, float(max(node.output_shape)))
    x = np.zeros((n, extractor.dim))
    type_width = len(extractor.vocab)
    for i, node in enumerate(graph.nodes):
        col = 0
        x[i, extractor.vocab.index(node.op_type)] = 1.0
        col += type_width
        x[i, col : col + SHAPE_RANK] = pad_shape(node.output_shape) / max_dim
        col += SHAPE_RANK
        preds = graph.predecessors(i)
        if preds:
            in_shape = graph.nodes[preds[0]].output_shape
            x[i, col : col + SHAPE_RANK] = pad_shape(in_shape) / max_dim
        col += SHAPE_RANK
        if extractor.include_costs:
            x[i, col] = np.log1p(node.flops) / 40.0
            x[i, col + 1] = np.log1p(node.param_bytes) / 40.0
            x[i, col + 2] = np.log1p(node.activation_bytes) / 40.0
            col += 3
        if extractor.include_degrees:
            x[i, col] = len(graph.predecessors(i)) / 8.0
            x[i, col + 1] = len(graph.successors(i)) / 8.0
    return x
