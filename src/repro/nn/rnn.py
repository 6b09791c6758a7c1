"""LSTM layers (time-major), the workhorse of the seq2seq placers.

Sequences are time-major ``(T, B, D)`` so each step is one fused matmul over
the batch — the loop over time is irreducible but everything inside it is a
vectorized NumPy kernel.

The step's math lives once, in :func:`lstm_cell` and
:func:`lstm_cell_backward`, which work on raw arrays with any leading
axes: the decoder's ``(B, ·)`` state or a stack of ``K`` directions'
``(K, B, ·)`` states with weights ``(K, H, 4H)``. A stacked recurrent
matmul rounds each direction exactly as that direction's own product.
Two ops loop them:

* :meth:`LSTMCell.step` is one step: two tape nodes, ``(h, c)``.
* :func:`lstm_sequence` runs ``K`` LSTMs over one sequence in one time
  loop, as one op: each step is one stacked cell over all directions,
  and the backward is hand-written BPTT over all of them in one reverse
  loop. The outputs ``(T, B, K·H)`` are one node, and each direction's
  final ``h`` and ``c`` are two more that hand their gradients to it.
  :meth:`LSTM.forward` is the ``K = 1`` case and :meth:`BiLSTM.forward`
  the ``K = 2`` case, its second direction reversed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, _unbroadcast, concat, is_grad_enabled, stable_sigmoid
from repro.utils.rng import new_rng

State = Tuple[Tensor, Tensor]


def lstm_cell(
    gates_x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, w_hh: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, tuple]:
    """One LSTM step on raw arrays: ``(h, c, cache)``.

    ``gates_x`` is the input projection ``x @ w_ih + bias``; it and the
    state broadcast against each other over the batch axis. Gate order is
    ``[input, forget, cell, output]``. Leading axes before the batch stack
    directions, with ``w_hh`` stacked to match. ``cache`` is what
    :func:`lstm_cell_backward` needs.
    """
    hs = w_hh.shape[-2]
    gates = gates_x + h_prev @ w_hh
    sig = stable_sigmoid(gates)  # elementwise: the cell block is unused
    i = sig[..., 0 * hs : 1 * hs]
    f = sig[..., 1 * hs : 2 * hs]
    g = np.tanh(gates[..., 2 * hs : 3 * hs])
    o = sig[..., 3 * hs : 4 * hs]
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    return o * tanh_c, c, (h_prev, c_prev, i, f, g, o, tanh_c)


def lstm_cell_backward(
    dh: Optional[np.ndarray], dc: Optional[np.ndarray], cache: tuple, w_hh: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of :func:`lstm_cell`: ``(dgates, dh_prev, dc_prev)``.

    ``dh``/``dc`` are the gradients of the step's ``h``/``c`` (either may
    be ``None``). ``dgates`` is the gradient of the gate pre-activations at
    the broadcast batch size; ``dh_prev``/``dc_prev`` are summed down to
    the previous state's own batch size. The caller accumulates
    ``w_hh``'s gradient, ``h_prev.T @ dgates`` (unbroadcast like
    ``dh_prev``), so a sequence can contract all its steps at once.
    """
    h_prev, c_prev, i, f, g, o, tanh_c = cache
    if dh is None:
        do = np.zeros_like(o)
    else:
        do = dh * tanh_c * o * (1.0 - o)
        dc_out = dh * o * (1.0 - tanh_c**2)
        dc = dc_out if dc is None else dc + dc_out
    dgates = np.concatenate(
        (
            dc * g * i * (1.0 - i),
            dc * c_prev * f * (1.0 - f),
            dc * i * (1.0 - g**2),
            do,
        ),
        axis=-1,
    )
    dmm = _unbroadcast(dgates, h_prev.shape[:-1] + dgates.shape[-1:])
    # The transposed view makes the same BLAS call, and so the same
    # rounding, as ``w_hh.T`` does in 2-D.
    dh_prev = dmm @ np.swapaxes(w_hh, -1, -2)
    return dgates, dh_prev, _unbroadcast(dc * f, c_prev.shape)


class LSTMCell(Module):
    """A single LSTM cell with fused gate weights.

    Gate order inside the fused matrices is ``[input, forget, cell, output]``.
    The forget-gate bias is initialized to 1.0 (standard trick for gradient
    flow on long sequences).
    """

    def __init__(self, input_size: int, hidden_size: int, rng=None):
        super().__init__()
        rng = new_rng(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Parameter(init.xavier_uniform(rng, input_size, 4 * hidden_size))
        self.w_hh = Parameter(init.orthogonal(rng, hidden_size, 4 * hidden_size))
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget gate
        self.bias = Parameter(bias)

    def init_state(self, batch: int) -> State:
        zeros = np.zeros((batch, self.hidden_size))
        return Tensor(zeros), Tensor(zeros)

    def forward(self, x: Tensor, state: Optional[State] = None) -> State:
        if state is None:
            state = self.init_state(x.shape[0])
        return self.step(x @ self.w_ih + self.bias, state)

    def step(self, gates_x: Tensor, state: State) -> State:
        """Advance one step given the precomputed input projection.

        ``gates_x = x @ w_ih + bias`` can be computed for a whole sequence in
        one fused matmul, which removes most of the per-timestep
        Python/NumPy dispatch overhead. ``gates_x`` and the state broadcast
        against each other over the batch axis.

        Returns ``(h, c)`` as two tape nodes: ``c`` carries the backward of
        the whole cell, and ``h``'s backward hands its gradient to ``c``'s.
        """
        h, c = state
        w_hh = self.w_hh
        h_data, c_data, cache = lstm_cell(gates_x.data, h.data, c.data, w_hh.data)
        # h is created after c, so its backward runs first in the reverse walk.
        d_h: list = []

        def backward_c(dc: np.ndarray) -> None:
            dh = d_h.pop() if d_h else None
            dgates, dh_prev, dc_prev = lstm_cell_backward(dh, dc, cache, w_hh.data)
            if gates_x.requires_grad:
                gates_x._accumulate(_unbroadcast(dgates, gates_x.shape))
            if c.requires_grad:
                c._accumulate(dc_prev)
            if h.requires_grad:
                h._accumulate(dh_prev)
            if w_hh.requires_grad:
                dmm = _unbroadcast(dgates, (h.shape[0], dgates.shape[1]))
                w_hh._accumulate(h.data.T @ dmm)

        c_new = Tensor._make(c_data, (gates_x, h, c, w_hh), backward_c)

        def backward_h(dh: np.ndarray) -> None:
            d_h.append(dh)
            if c_new.grad is None:
                c_new.grad = np.zeros_like(c_data)

        h_new = Tensor._make(h_data, (c_new,), backward_h)
        return h_new, c_new


def lstm_sequence(
    x: Tensor,
    cells: Sequence[LSTMCell],
    states: Sequence[State],
    reverse: Sequence[bool],
) -> Tuple[Tensor, List[State]]:
    """``K = len(cells)`` LSTMs over one sequence ``x (T,B,D)``, as one op.

    Direction ``k`` runs ``cells[k]`` from ``states[k]``, from the last
    time step to the first if ``reverse[k]``. Returns the outputs
    ``(T,B,K·H)``, direction ``k``'s in columns ``k·H:(k+1)·H`` and
    aligned with ``x``, and each direction's final state (after step 0
    for a reversed one). All directions advance in one time loop, one
    stacked :func:`lstm_cell` per step. The first step's recurrent
    product is at the states' own batch size; states whose batch sizes
    differ are first broadcast to a common one, at which the smaller
    one's product then rounds.
    """
    K, T, H = len(cells), x.shape[0], cells[0].hidden_size
    flip = np.arange(T - 1, -1, -1)
    xs = [x.data[flip] if r else x.data for r in reverse]  # in processing order
    # One fused matmul per direction for the input projections of every step.
    gx = [xk @ cell.w_ih.data + cell.bias.data for xk, cell in zip(xs, cells)]
    gates_x = np.stack(gx, axis=1)  # (T, K, B, 4H)
    w_hh = np.stack([cell.w_hh.data for cell in cells])  # (K, H, 4H)
    h0 = np.stack(np.broadcast_arrays(*[h.data for h, _ in states]))
    c0 = np.stack(np.broadcast_arrays(*[c.data for _, c in states]))
    params = [p for cell in cells for p in (cell.w_ih, cell.bias, cell.w_hh)]
    parents = (x, *params, *[t for state in states for t in state])
    keep = is_grad_enabled() and any(p.requires_grad for p in parents)
    h, c = h0, c0
    hs, caches = [], []
    for t in range(T):
        h, c, cache = lstm_cell(gates_x[t], h, c, w_hh)
        hs.append(h)
        if keep:
            caches.append(cache)
    out_proc = np.stack(hs, axis=1)  # (K, T, B, H) in processing order
    outs = [out_proc[k, flip] if r else out_proc[k] for k, r in enumerate(reverse)]
    out_data = outs[0] if K == 1 else np.concatenate(outs, axis=-1)
    # Each final c's gradient, handed to the outputs node's backward.
    d_c: List[Optional[np.ndarray]] = [None] * K

    def backward(g: np.ndarray) -> None:
        cols = [g[..., k * H : (k + 1) * H] for k in range(K)]
        g = np.stack([gk[flip] if r else gk for gk, r in zip(cols, reverse)], axis=1)
        dh = dc = None
        if any(d is not None for d in d_c):
            dc = np.stack([np.zeros_like(c[k]) if d is None else d for k, d in enumerate(d_c)])
            d_c[:] = [None] * K
        dgates = []
        for t in range(T - 1, -1, -1):
            dh = g[t] if dh is None else g[t] + dh
            dg, dh, dc = lstm_cell_backward(dh, dc, caches[t], w_hh)
            dgates.append(dg)
        dgates = np.stack(dgates[::-1], axis=1)  # (K, T, B, 4H) in processing order
        H4 = dgates.shape[-1]
        for k, cell in enumerate(cells):
            (h0_k, c0_k), dg = states[k], dgates[k]
            w_ih, bias, w_hh_k = cell.w_ih, cell.bias, cell.w_hh
            if h0_k.requires_grad:
                h0_k._accumulate(_unbroadcast(dh[k], h0_k.shape))
            if c0_k.requires_grad:
                c0_k._accumulate(_unbroadcast(dc[k], c0_k.shape))
            if w_hh_k.requires_grad:
                # Step 0's previous state may broadcast; every later one has
                # the full batch, so their products fold into one matmul.
                dw = h0[k].T @ _unbroadcast(dg[0], (h0.shape[1], H4))
                dw += out_proc[k, :-1].reshape(-1, H).T @ dg[1:].reshape(-1, H4)
                w_hh_k._accumulate(dw)
            dgx = _unbroadcast(dg, gx[k].shape)
            if bias.requires_grad:
                bias._accumulate(_unbroadcast(dgx, bias.shape))
            if w_ih.requires_grad:
                w_ih._accumulate(xs[k].reshape(-1, xs[k].shape[-1]).T @ dgx.reshape(-1, H4))
            if x.requires_grad:
                dx = dgx @ w_ih.data.T
                x._accumulate(dx[flip] if reverse[k] else dx)

    out = Tensor._make(out_data, parents, backward)

    def final_state(k: int) -> State:
        # The final h is the output of the direction's last processed step.
        last, cols = (0 if reverse[k] else T - 1), slice(k * H, (k + 1) * H)

        def backward_h(dh: np.ndarray) -> None:
            if out.grad is None:
                out.grad = np.zeros_like(out_data)
            out.grad[last, :, cols] += dh

        def backward_c(dc: np.ndarray) -> None:
            d_c[k] = dc
            if out.grad is None:
                out.grad = np.zeros_like(out_data)

        return Tensor._make(h[k], (out,), backward_h), Tensor._make(c[k], (out,), backward_c)

    return out, [final_state(k) for k in range(K)]


class LSTM(Module):
    """Unidirectional LSTM over a time-major sequence ``(T, B, D)``."""

    def __init__(self, input_size: int, hidden_size: int, rng=None):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(
        self, x: Tensor, state: Optional[State] = None, reverse: bool = False
    ) -> Tuple[Tensor, State]:
        """Return ``(outputs (T,B,H), final_state)``.

        With ``reverse`` the cell runs from the last time step to the first;
        ``outputs`` stay aligned with ``x`` and the final state is the one
        after step 0.
        """
        if state is None:
            state = self.cell.init_state(x.shape[1])
        out, (final,) = lstm_sequence(x, (self.cell,), (state,), (reverse,))
        return out, final


class BiLSTM(Module):
    """Bidirectional LSTM; output is the concatenation of both directions.

    The final state returned is the *forward* direction's final state
    projected together with the backward direction's, so it can seed a
    unidirectional decoder of size ``hidden_size``.
    """

    def __init__(self, input_size: int, hidden_size: int, rng=None):
        super().__init__()
        if hidden_size % 2 != 0:
            raise ValueError("BiLSTM hidden_size must be even (split across directions)")
        half = hidden_size // 2
        rng = new_rng(rng)
        self.fwd = LSTM(input_size, half, rng=rng)
        self.bwd = LSTM(input_size, half, rng=rng)
        self.hidden_size = hidden_size

    def forward(
        self,
        x: Tensor,
        state: Optional[Tuple[State, State]] = None,
    ) -> Tuple[Tensor, Tuple[State, State]]:
        """Return ``(outputs (T,B,H), (fwd_state, bwd_state))``.

        Both directions run in one :func:`lstm_sequence` op. A missing
        state starts at zeros with one row, which broadcasts against the
        input and the other direction's state.
        """
        cells = (self.fwd.cell, self.bwd.cell)
        if state is None:
            state = (None, None)
        states = [s if s is not None else cell.init_state(1) for s, cell in zip(state, cells)]
        outputs, finals = lstm_sequence(x, cells, states, (False, True))
        return outputs, tuple(finals)

    @staticmethod
    def merge_state(states: Tuple[State, State]) -> State:
        """Concatenate fwd/bwd final states into a full-width decoder state."""
        (hf, cf), (hb, cb) = states
        return concat([hf, hb], axis=1), concat([cf, cb], axis=1)
