"""Shared test utilities."""

from __future__ import annotations

import numpy as np

from repro.nn import Tensor, stack


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
