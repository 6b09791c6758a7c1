"""Tests for LSTM / BiLSTM layers and the step kernels their loops run."""

import numpy as np
import pytest

from repro.nn import BiLSTM, LSTM, LSTMCell, Tensor, concat
from repro.nn.attention import attention_step
from repro.nn.tensor import stable_sigmoid
from tests.helpers import check_gradient, composed_lstm, composed_lstm_step as composed_step

rng = np.random.default_rng(5)


class TestLSTMCell:
    def test_state_shapes(self):
        cell = LSTMCell(4, 6, rng=0)
        h, c = cell(Tensor(rng.standard_normal((3, 4))))
        assert h.shape == (3, 6) and c.shape == (3, 6)

    def test_forget_bias_initialized_to_one(self):
        cell = LSTMCell(4, 6, rng=0)
        assert np.allclose(cell.bias.data[6:12], 1.0)
        assert np.allclose(cell.bias.data[:6], 0.0)

    def test_step_matches_forward(self):
        cell = LSTMCell(4, 6, rng=0)
        x = Tensor(rng.standard_normal((2, 4)))
        state = cell.init_state(2)
        h1, c1 = cell(x, state)
        h2, c2 = cell.step(x @ cell.w_ih + cell.bias, state)
        assert np.allclose(h1.data, h2.data) and np.allclose(c1.data, c2.data)

    def test_gradcheck_through_cell(self):
        cell = LSTMCell(3, 4, rng=1)

        def f(x):
            h, c = cell(x)
            return (h * h + c).sum()

        check_gradient(f, rng.standard_normal((2, 3)))

    def test_state_broadcasting_batch1_input(self):
        """Input batch 1 with state batch B broadcasts — used by placers."""
        cell = LSTMCell(3, 4, rng=1)
        x = Tensor(rng.standard_normal((1, 3)))
        state = (Tensor(rng.standard_normal((5, 4))), Tensor(np.zeros((5, 4))))
        h, c = cell(x, state)
        assert h.shape == (5, 4)


class TestFusedStep:
    """The fused step against the composed reference: the same forward bits,
    gradients equal up to summation order."""

    B, H = 4, 5

    def _run(self, step, cell, arrays, target):
        gates, h0, c0, rh, rc = arrays
        leaves = [Tensor(a, requires_grad=True) for a in (gates, h0, c0)]
        cell.zero_grad()
        h, c = step(cell, leaves[0], (leaves[1], leaves[2]))
        loss = {
            "h": lambda: (h * rh).sum(),
            "c": lambda: (c * rc).sum(),
            "both": lambda: (h * rh).sum() + (c * rc).sum(),
        }[target]()
        loss.backward()
        grads = [t.grad for t in leaves] + [cell.w_hh.grad]
        return (h.data, c.data), grads

    @pytest.mark.parametrize("target", ["h", "c", "both"])
    @pytest.mark.parametrize("state_batch", [1, B])
    def test_matches_composed_reference(self, target, state_batch):
        cell = LSTMCell(3, self.H, rng=7)
        arrays = (
            rng.standard_normal((self.B, 4 * self.H)) * 3.0,  # both sigmoid branches
            rng.standard_normal((state_batch, self.H)),
            rng.standard_normal((state_batch, self.H)),
            rng.standard_normal((self.B, self.H)),
            rng.standard_normal((self.B, self.H)),
        )
        fused_out, fused_grads = self._run(LSTMCell.step, cell, arrays, target)
        ref_out, ref_grads = self._run(composed_step, cell, arrays, target)
        for a, b in zip(fused_out, ref_out):
            assert np.array_equal(a, b)
        for a, b in zip(fused_grads, ref_grads):
            assert a.shape == b.shape
            assert np.allclose(a, b, rtol=1e-10, atol=1e-14)

    def test_two_nodes_per_step(self):
        cell = LSTMCell(3, self.H, rng=8)
        gx = Tensor(rng.standard_normal((2, 4 * self.H)), requires_grad=True)
        h, c = cell.step(gx, cell.init_state(2))
        assert h._parents == (c,)
        assert c._parents == (gx, cell.w_hh)

    def test_sequence_matches_composed_reference(self):
        """A whole LSTM over time, both outputs feeding the next step."""
        lstm = LSTM(3, 4, rng=9)
        x0 = rng.standard_normal((6, 2, 3))
        results = []
        for step in (LSTMCell.step, composed_step):
            x = Tensor(x0, requires_grad=True)
            lstm.zero_grad()
            gates_x = x @ lstm.cell.w_ih + lstm.cell.bias
            state = lstm.cell.init_state(2)
            outs = []
            for t in range(x0.shape[0]):
                state = step(lstm.cell, gates_x[t], state)
                outs.append(state[0])
            loss = sum((o * o).sum() for o in outs) + state[1].sum()
            loss.backward()
            results.append((loss.data, [x.grad] + [p.grad for p in lstm.parameters()]))
        (loss_a, grads_a), (loss_b, grads_b) = results
        assert loss_a == loss_b
        for a, b in zip(grads_a, grads_b):
            assert np.allclose(a, b, rtol=1e-10, atol=1e-14)


class TestSequenceOp:
    """``LSTM.forward`` as one op against a loop of composed steps: the
    same forward bits, gradients equal up to summation order, on the
    encoder's shapes (forward and reversed, a carried state, a state batch
    that broadcasts against the input's) and for losses on the outputs,
    the final ``h`` and the final ``c``."""

    T, B, D, H = 5, 3, 2, 4
    LOSSES = {
        "out": lambda out, h, c, r: (out * r[0]).sum(),
        "h": lambda out, h, c, r: (h * r[1]).sum(),
        "c": lambda out, h, c, r: (c * r[2]).sum(),
        "all": lambda out, h, c, r: (out * r[0]).sum() + (h * r[1]).sum() + (c * c * r[2]).sum(),
    }

    def _arrays(self, x_batch, state_batch):
        B = max(x_batch, state_batch)
        return (
            rng.standard_normal((self.T, x_batch, self.D)) * 2.0,
            rng.standard_normal((state_batch, self.H)),
            rng.standard_normal((state_batch, self.H)),
            (
                rng.standard_normal((self.T, B, self.H)),
                rng.standard_normal((B, self.H)),
                rng.standard_normal((B, self.H)),
            ),
        )

    def _run(self, forward, lstm, arrays, target, reverse):
        x0, h0, c0, r = arrays
        leaves = [Tensor(a, requires_grad=True) for a in (x0, h0, c0)]
        lstm.zero_grad()
        out, (h, c) = forward(lstm, leaves[0], (leaves[1], leaves[2]), reverse=reverse)
        self.LOSSES[target](out, h, c, r).backward()
        grads = [t.grad for t in leaves] + [p.grad for p in lstm.parameters()]
        return (out.data, h.data, c.data), grads

    @pytest.mark.parametrize("target", list(LOSSES))
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("x_batch,state_batch", [(1, 1), (B, B), (B, 1), (1, B)])
    def test_matches_composed_reference(self, target, reverse, x_batch, state_batch):
        lstm = LSTM(self.D, self.H, rng=10)
        arrays = self._arrays(x_batch, state_batch)
        fused_out, fused_grads = self._run(LSTM.forward, lstm, arrays, target, reverse)
        ref_out, ref_grads = self._run(composed_lstm, lstm, arrays, target, reverse)
        for a, b in zip(fused_out, ref_out):
            assert np.array_equal(a, b)
        for a, b in zip(fused_grads, ref_grads):
            assert a.shape == b.shape
            assert np.allclose(a, b, rtol=1e-10, atol=1e-14)

    def test_three_nodes_per_sequence(self):
        lstm = LSTM(self.D, self.H, rng=11)
        x = Tensor(rng.standard_normal((self.T, 2, self.D)), requires_grad=True)
        out, (h, c) = lstm(x)
        assert h._parents == (out,) and c._parents == (out,)
        assert out._parents == (x, lstm.cell.w_ih, lstm.cell.bias, lstm.cell.w_hh)

    def test_final_c_alone_reaches_input(self):
        """A loss on the final cell state only still runs the sequence's
        backward (its outputs get no gradient of their own)."""
        lstm = LSTM(self.D, self.H, rng=12)

        def f(x):
            _, (_, c) = lstm(x, reverse=True)
            return (c * c).sum()

        check_gradient(f, rng.standard_normal((self.T, 1, self.D)), tol=1e-4)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradcheck_state_inputs(self, reverse):
        lstm = LSTM(self.D, self.H, rng=13)
        x = Tensor(rng.standard_normal((self.T, 1, self.D)))
        c0 = Tensor(rng.standard_normal((1, self.H)))
        r = rng.standard_normal((self.T, 1, self.H))

        def f(h0):
            out, (h, c) = lstm(x, (h0, c0), reverse=reverse)
            return (out * r).sum() + (h * c).sum()

        check_gradient(f, rng.standard_normal((1, self.H)), tol=1e-4)

    def test_no_grad_builds_no_tape(self):
        from repro.nn import no_grad

        lstm = LSTM(self.D, self.H, rng=14)
        x = Tensor(rng.standard_normal((self.T, 1, self.D)), requires_grad=True)
        with no_grad():
            out, (h, c) = lstm(x)
        assert not (out.requires_grad or h.requires_grad or c.requires_grad)
        assert np.array_equal(out.data, lstm(x)[0].data)


class TestLSTM:
    def test_output_shapes(self):
        lstm = LSTM(4, 6, rng=0)
        out, (h, c) = lstm(Tensor(rng.standard_normal((7, 2, 4))))
        assert out.shape == (7, 2, 6)
        assert h.shape == (2, 6)

    def test_final_state_is_last_output(self):
        lstm = LSTM(4, 6, rng=0)
        out, (h, _) = lstm(Tensor(rng.standard_normal((5, 2, 4))))
        assert np.allclose(out.data[-1], h.data)

    def test_state_carrying_equals_contiguous_run(self):
        lstm = LSTM(3, 5, rng=2)
        x = Tensor(rng.standard_normal((8, 2, 3)))
        full, _ = lstm(x)
        first, state = lstm(x[:4])
        second, _ = lstm(x[np.arange(4, 8)], state)
        assert np.allclose(full.data[4:], second.data, atol=1e-12)

    def test_gradient_flows_to_input(self):
        lstm = LSTM(3, 4, rng=3)
        x = Tensor(rng.standard_normal((6, 2, 3)), requires_grad=True)
        out, _ = lstm(x)
        (out * out).sum().backward()
        assert x.grad is not None and np.abs(x.grad).sum() > 0

    def test_gradcheck_small(self):
        lstm = LSTM(2, 3, rng=4)

        def f(x):
            out, _ = lstm(x)
            return (out * out).sum()

        check_gradient(f, rng.standard_normal((3, 1, 2)), tol=1e-4)


class TestBiLSTM:
    def test_hidden_size_must_be_even(self):
        with pytest.raises(ValueError):
            BiLSTM(4, 5)

    def test_output_shape_concats_directions(self):
        bi = BiLSTM(4, 8, rng=0)
        out, (fwd, bwd) = bi(Tensor(rng.standard_normal((6, 3, 4))))
        assert out.shape == (6, 3, 8)
        assert fwd[0].shape == (3, 4) and bwd[0].shape == (3, 4)

    def test_backward_direction_sees_future(self):
        """Changing the last input changes the first output's bwd half."""
        bi = BiLSTM(2, 4, rng=1)
        x = rng.standard_normal((5, 1, 2))
        out1, _ = bi(Tensor(x))
        x2 = x.copy()
        x2[-1] += 10.0
        out2, _ = bi(Tensor(x2))
        fwd_half = slice(0, 2)
        bwd_half = slice(2, 4)
        assert np.allclose(out1.data[0, 0, fwd_half], out2.data[0, 0, fwd_half])
        assert not np.allclose(out1.data[0, 0, bwd_half], out2.data[0, 0, bwd_half])

    def test_merge_state_width(self):
        bi = BiLSTM(3, 6, rng=2)
        _, states = bi(Tensor(rng.standard_normal((4, 2, 3))))
        h, c = BiLSTM.merge_state(states)
        assert h.shape == (2, 6) and c.shape == (2, 6)

    def test_forward_state_carry_across_segments(self):
        bi = BiLSTM(3, 6, rng=3)
        x = Tensor(rng.standard_normal((6, 1, 3)))
        _, (fwd_full, _) = bi(x)
        _, (fwd_a, _) = bi(x[:3], (None, None))
        _, (fwd_b, _) = bi(x[np.arange(3, 6)], (fwd_a, None))
        assert np.allclose(fwd_full[0].data, fwd_b[0].data, atol=1e-12)


def composed_bilstm(bi, x, states):
    """``BiLSTM.forward`` as its two directions, each a loop of composed steps."""
    out_f, fwd = composed_lstm(bi.fwd, x, states[0])
    out_b, bwd = composed_lstm(bi.bwd, x, states[1], reverse=True)
    return concat([out_f, out_b], axis=2), (fwd, bwd)


class TestStackedBiLSTM:
    """``BiLSTM.forward`` runs both directions in one time loop, as one op:
    against the two directions composed step by step, the same forward
    bits and gradients equal up to summation order."""

    T, D, H = 5, 3, 8  # H splits into 4 per direction

    def _run(self, forward, bi, x0, states0, r):
        x = Tensor(x0, requires_grad=True)
        states = [
            None if s is None else tuple(Tensor(a, requires_grad=True) for a in s)
            for s in states0
        ]
        bi.zero_grad()
        out, ((hf, cf), (hb, cb)) = forward(bi, x, states)
        loss = (
            (out * r[0]).sum()
            + (hf * r[1]).sum()
            + (cf * cf).sum()
            + (hb * r[2]).sum()
            + (cb * r[1]).sum()
        )
        loss.backward()
        leaves = [x] + [t for s in states if s is not None for t in s]
        grads = [t.grad for t in leaves] + [p.grad for p in bi.parameters()]
        return [out.data, hf.data, cf.data, hb.data, cb.data], grads

    @pytest.mark.parametrize(
        "x_batch,fwd_batch,bwd_batch",
        [
            (1, 1, None),  # the placer: a carried fwd state, a fresh bwd one
            (3, 1, 1),  # step 0's recurrent products at the states' batch
            (3, None, None),
            # States of different batch sizes broadcast to a common one
            # first, so the smaller one's step-0 product rounds at that batch.
            (3, 3, 1),
        ],
    )
    def test_matches_composed_directions(self, x_batch, fwd_batch, bwd_batch):
        bi = BiLSTM(self.D, self.H, rng=20)
        half = self.H // 2
        B = max(b for b in (x_batch, fwd_batch, bwd_batch) if b is not None)
        x0 = rng.standard_normal((self.T, x_batch, self.D)) * 2.0
        states0 = [
            None if b is None else tuple(rng.standard_normal((b, half)) for _ in "hc")
            for b in (fwd_batch, bwd_batch)
        ]
        r = (
            rng.standard_normal((self.T, B, self.H)),
            rng.standard_normal((B, half)),
            rng.standard_normal((B, half)),
        )
        stacked = self._run(lambda bi, x, s: bi(x, tuple(s)), bi, x0, states0, r)
        composed = self._run(composed_bilstm, bi, x0, states0, r)
        exact = None in (fwd_batch, bwd_batch) or fwd_batch == bwd_batch
        for a, b in zip(stacked[0], composed[0]):
            assert np.array_equal(a, b) if exact else np.allclose(a, b, rtol=1e-13, atol=0)
        for a, b in zip(stacked[1], composed[1]):
            assert a.shape == b.shape
            assert np.allclose(a, b, rtol=1e-10, atol=1e-14)

    def test_gradcheck_initial_states(self):
        """Both directions' initial ``h`` and ``c`` get their gradients."""
        bi = BiLSTM(self.D, self.H, rng=21)
        x = Tensor(rng.standard_normal((self.T, 1, self.D)))
        r = rng.standard_normal((self.T, 1, self.H))

        def f(s):  # s: (h0 fwd, c0 fwd, h0 bwd, c0 bwd)
            out, ((hf, cf), (hb, cb)) = bi(x, ((s[0], s[1]), (s[2], s[3])))
            return (out * r).sum() + (hf * cb).sum() + (cf * hb).sum()

        check_gradient(f, rng.standard_normal((4, 1, self.H // 2)), tol=1e-4)

    def test_one_op_and_four_state_nodes_per_call(self, monkeypatch):
        bi = BiLSTM(self.D, self.H, rng=22)
        x = Tensor(rng.standard_normal((self.T, 1, self.D)), requires_grad=True)
        make = Tensor._make
        made = []

        def counting_make(*args):
            made.append(make(*args))
            return made[-1]

        monkeypatch.setattr(Tensor, "_make", staticmethod(counting_make))
        out, ((hf, cf), (hb, cb)) = bi(x)
        assert made == [out, hf, cf, hb, cb]
        assert all(t._parents == (out,) for t in (hf, cf, hb, cb))
        cells = (bi.fwd.cell, bi.bwd.cell)
        assert out._parents == (x, *[p for c in cells for p in (c.w_ih, c.bias, c.w_hh)])


class TestStepKernels:
    """Cheaper formulas inside the placer's loops keep every bit."""

    def test_shared_memory_context_equals_mul_sum(self):
        """Over a memory shared by the query batch, the context is an
        einsum over time; it equals the broadcast multiply-and-sum."""
        for trial in range(60):
            T = int(rng.integers(1, 140))
            B = int(rng.choice([1, 3, 10]))
            M, A = int(rng.choice([8, 48, 96])), 6
            memory = rng.standard_normal((T, 1, M)) * 10.0 ** rng.integers(-3, 4)
            keys = rng.standard_normal((T, 1, A))
            query = rng.standard_normal((B, 5))
            w_q, b_q, v = (rng.standard_normal(s) for s in ((5, A), (A,), (A,)))
            context, (_, _, weights) = attention_step(memory, keys, query, w_q, b_q, v)
            mul_sum = (memory * weights.reshape(T, B, 1)).sum(axis=0)
            assert np.array_equal(context, mul_sum), (T, B, M)

    def test_stable_sigmoid_equals_two_divide_formula(self):
        """One divide of the selected numerator: the old formula's bits,
        signed zeros, infinities, under- and overflow and NaN included."""
        x = np.array([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 1e-300, -1e-300, np.nan])
        x = np.concatenate([x, rng.standard_normal(200) * 30.0])
        z = np.exp(-np.abs(x))
        d = 1.0 + z
        old = np.where(x >= 0, 1.0 / d, z / d)
        assert np.array_equal(stable_sigmoid(x).view(np.uint64), old.view(np.uint64))
