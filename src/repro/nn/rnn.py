"""LSTM layers (time-major), the workhorse of the seq2seq placers.

Sequences are time-major ``(T, B, D)`` so each step is one fused matmul over
the batch — the loop over time is irreducible but everything inside it is a
vectorized NumPy kernel.

:meth:`LSTMCell.step` is a single fused op with a hand-written backward for
the recurrent matmul, all four gates and the cell update: two tape nodes
per step, where composing it from tensor ops took fifteen.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, _unbroadcast, concat, stable_sigmoid, stack
from repro.utils.rng import new_rng

State = Tuple[Tensor, Tensor]


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
        one fused matmul (see :class:`LSTM`), which removes most of the
        per-timestep Python/NumPy dispatch overhead. ``gates_x`` and the
        state broadcast against each other over the batch axis.

        Returns ``(h, c)`` as two tape nodes: ``c`` carries the backward of
        the whole cell, and ``h``'s backward only splits its gradient into
        the cell-state and output-gate parts for ``c``'s backward to use.
        """
        h, c = state
        w_hh = self.w_hh
        hs = self.hidden_size
        h_prev, c_prev = h.data, c.data
        gates = gates_x.data + h_prev @ w_hh.data
        sig = stable_sigmoid(gates)  # elementwise: the cell block is unused
        i = sig[:, 0 * hs : 1 * hs]
        f = sig[:, 1 * hs : 2 * hs]
        g = np.tanh(gates[:, 2 * hs : 3 * hs])
        o = sig[:, 3 * hs : 4 * hs]
        c_data = f * c_prev + i * g
        tanh_c = np.tanh(c_data)
        # Output-gate pre-activation gradient, handed from h's backward to
        # c's (h is created later, so it runs first in the reverse walk).
        d_out_gate: list = []

        def backward_c(dc: np.ndarray) -> None:
            do = d_out_gate.pop() if d_out_gate else np.zeros_like(o)
            dgates = np.concatenate(
                (
                    dc * g * i * (1.0 - i),
                    dc * c_prev * f * (1.0 - f),
                    dc * i * (1.0 - g**2),
                    do,
                ),
                axis=1,
            )
            if gates_x.requires_grad:
                gates_x._accumulate(_unbroadcast(dgates, gates_x.shape))
            if c.requires_grad:
                c._accumulate(_unbroadcast(dc * f, c.shape))
            if h.requires_grad or w_hh.requires_grad:
                # Gradient of the (h_prev @ w_hh) term at its own batch size.
                dmm = _unbroadcast(dgates, (h_prev.shape[0], 4 * hs))
                if h.requires_grad:
                    h._accumulate(dmm @ w_hh.data.T)
                if w_hh.requires_grad:
                    w_hh._accumulate(h_prev.T @ dmm)

        c_new = Tensor._make(c_data, (gates_x, h, c, w_hh), backward_c)

        def backward_h(dh: np.ndarray) -> None:
            d_out_gate.append(dh * tanh_c * o * (1.0 - o))
            c_new._accumulate(dh * o * (1.0 - tanh_c**2))

        h_new = Tensor._make(o * tanh_c, (c_new,), backward_h)
        return h_new, c_new


class LSTM(Module):
    """Unidirectional LSTM over a time-major sequence ``(T, B, D)``."""

    def __init__(self, input_size: int, hidden_size: int, rng=None):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, x: Tensor, state: Optional[State] = None) -> Tuple[Tensor, State]:
        """Return ``(outputs (T,B,H), final_state)``."""
        T = x.shape[0]
        if state is None:
            state = self.cell.init_state(x.shape[1])
        # One fused matmul for the input projections of every time step.
        gates_x = x @ self.cell.w_ih + self.cell.bias
        outputs = []
        for t in range(T):
            state = self.cell.step(gates_x[t], state)
            outputs.append(state[0])
        return stack(outputs, axis=0), state


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
        # Reverse time for the backward pass, then un-reverse its outputs.
        rev = x[np.arange(x.shape[0] - 1, -1, -1)]
        out_b_rev, bwd_final = self.bwd(rev, bwd_state)
        out_b = out_b_rev[np.arange(out_b_rev.shape[0] - 1, -1, -1)]
        outputs = concat([out_f, out_b], axis=2)
        return outputs, (fwd_final, bwd_final)

    @staticmethod
    def merge_state(states: Tuple[State, State]) -> State:
        """Concatenate fwd/bwd final states into a full-width decoder state."""
        (hf, cf), (hb, cb) = states
        return concat([hf, hb], axis=1), concat([cf, cb], axis=1)
