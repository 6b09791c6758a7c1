"""LSTM layers (time-major), the workhorse of the seq2seq placers.

Sequences are time-major ``(T, B, D)`` so each step is one fused matmul over
the batch — the loop over time is irreducible but everything inside it is a
vectorized NumPy kernel.

The step's math lives once, in :func:`lstm_cell` and
:func:`lstm_cell_backward`, which work on raw arrays. Two ops loop them:

* :meth:`LSTMCell.step` is one step: two tape nodes, ``(h, c)``.
* :meth:`LSTM.forward` is a whole sequence: the forward loops the step
  over time without building nodes, and the backward is hand-written
  BPTT. The outputs ``(T, B, H)`` are one node, and the final ``h`` and
  ``c`` are two more that hand their gradients to it.
"""

from __future__ import annotations

from typing import Optional, Tuple

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
    ``[input, forget, cell, output]``. ``cache`` is what
    :func:`lstm_cell_backward` needs.
    """
    hs = w_hh.shape[0]
    gates = gates_x + h_prev @ w_hh
    sig = stable_sigmoid(gates)  # elementwise: the cell block is unused
    i = sig[:, 0 * hs : 1 * hs]
    f = sig[:, 1 * hs : 2 * hs]
    g = np.tanh(gates[:, 2 * hs : 3 * hs])
    o = sig[:, 3 * hs : 4 * hs]
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
        axis=1,
    )
    dmm = _unbroadcast(dgates, (h_prev.shape[0], dgates.shape[1]))
    return dgates, dmm @ w_hh.T, _unbroadcast(dc * f, c_prev.shape)


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
        cell = self.cell
        if state is None:
            state = cell.init_state(x.shape[1])
        h0, c0 = state
        w_ih, bias, w_hh = cell.w_ih, cell.bias, cell.w_hh
        T = x.shape[0]
        flip = np.arange(T - 1, -1, -1)
        xs = x.data[flip] if reverse else x.data  # in processing order
        # One fused matmul for the input projections of every time step.
        gates_x = xs @ w_ih.data + bias.data
        parents = (x, w_ih, bias, w_hh, h0, c0)
        keep = is_grad_enabled() and any(p.requires_grad for p in parents)
        h, c = h0.data, c0.data
        hs, caches = [], []
        for t in range(T):
            h, c, cache = lstm_cell(gates_x[t], h, c, w_hh.data)
            hs.append(h)
            if keep:
                caches.append(cache)
        out_proc = np.stack(hs)
        out_data = out_proc[flip] if reverse else out_proc
        # The final c's gradient, handed to the outputs node's backward.
        d_c: list = []

        def backward(g: np.ndarray) -> None:
            if reverse:
                g = g[flip]
            dh = dc = None
            if d_c:
                dc = d_c.pop()
            dgates = []
            for t in range(T - 1, -1, -1):
                dh = g[t] if dh is None else g[t] + dh
                dg, dh, dc = lstm_cell_backward(dh, dc, caches[t], w_hh.data)
                dgates.append(dg)
            dgates = np.stack(dgates[::-1])  # (T, B, 4H) in processing order
            if h0.requires_grad:
                h0._accumulate(dh)
            if c0.requires_grad:
                c0._accumulate(dc)
            if w_hh.requires_grad:
                # Step 0's previous state may broadcast; every later one has
                # the full batch, so their products fold into one matmul.
                H4 = dgates.shape[2]
                dw = h0.data.T @ _unbroadcast(dgates[0], (h0.shape[0], H4))
                dw += out_proc[:-1].reshape(-1, self.hidden_size).T @ dgates[1:].reshape(-1, H4)
                w_hh._accumulate(dw)
            dgx = _unbroadcast(dgates, gates_x.shape)
            if bias.requires_grad:
                bias._accumulate(_unbroadcast(dgx, bias.shape))
            if w_ih.requires_grad:
                w_ih._accumulate(xs.reshape(-1, xs.shape[-1]).T @ dgx.reshape(-1, dgx.shape[-1]))
            if x.requires_grad:
                dx = dgx @ w_ih.data.T
                x._accumulate(dx[flip] if reverse else dx)

        out = Tensor._make(out_data, parents, backward)

        def backward_h(dh: np.ndarray) -> None:
            # The final h is the output of the last processed step.
            if out.grad is None:
                out.grad = np.zeros_like(out_data)
            out.grad[0 if reverse else T - 1] += dh

        def backward_c(dc: np.ndarray) -> None:
            d_c.append(dc)
            if out.grad is None:
                out.grad = np.zeros_like(out_data)

        return out, (Tensor._make(h, (out,), backward_h), Tensor._make(c, (out,), backward_c))


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
        """Return ``(outputs (T,B,H), (fwd_state, bwd_state))``."""
        fwd_state = bwd_state = None
        if state is not None:
            fwd_state, bwd_state = state
        out_f, fwd_final = self.fwd(x, fwd_state)
        out_b, bwd_final = self.bwd(x, bwd_state, reverse=True)
        outputs = concat([out_f, out_b], axis=2)
        return outputs, (fwd_final, bwd_final)

    @staticmethod
    def merge_state(states: Tuple[State, State]) -> State:
        """Concatenate fwd/bwd final states into a full-width decoder state."""
        (hf, cf), (hb, cb) = states
        return concat([hf, hb], axis=1), concat([cf, cb], axis=1)
