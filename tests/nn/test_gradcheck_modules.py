"""Numerical gradient checks for every composite module.

Each check compares the autodiff gradient of a scalar loss w.r.t. the
module *input* and w.r.t. one representative *parameter* against central
differences — the strongest single guarantee that forward and backward
implementations agree.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gnn.gcn import GCNLayer
from repro.gnn.sage import SAGELayer, row_normalized_adjacency
from repro.nn import (
    BahdanauAttention,
    BiLSTM,
    LSTMCell,
    LayerNorm,
    Linear,
    MLP,
    PReLU,
    Tensor,
    TransformerXLLayer,
)
from tests.helpers import (
    attend,
    check_attention_gradients,
    check_gradient,
    numerical_gradient,
    run_lstm,
)

rng = np.random.default_rng(99)


def check_param_gradient(module, param, loss_fn, tol=1e-4):
    """Numerical-vs-autodiff gradient of ``loss_fn()`` w.r.t. ``param``."""
    module.zero_grad()
    loss_fn().backward()
    auto = param.grad.copy()

    base = param.data.copy()
    num = np.zeros_like(base)
    eps = 1e-6
    flat_base = base.reshape(-1)
    flat_num = num.reshape(-1)
    for i in range(flat_base.size):
        for sign, store in ((+1, "p"), (-1, "m")):
            flat = base.copy().reshape(-1)
            flat[i] += sign * eps
            param.data = flat.reshape(base.shape)
            val = float(loss_fn().data)
            if store == "p":
                fp = val
            else:
                fm = val
        flat_num[i] = (fp - fm) / (2 * eps)
    param.data = base
    err = np.abs(num - auto).max()
    assert err < tol, f"parameter gradient mismatch: {err}"


class TestLinearFamily:
    def test_linear_input_grad(self):
        lin = Linear(4, 3, rng=0)
        check_gradient(lambda x: (lin(x) ** 2).sum(), rng.standard_normal((2, 4)))

    def test_linear_weight_grad(self):
        lin = Linear(3, 2, rng=1)
        x = Tensor(rng.standard_normal((4, 3)))
        check_param_gradient(lin, lin.weight, lambda: (lin(x) ** 2).sum())

    def test_mlp_weight_grad(self):
        mlp = MLP([3, 4, 1], activation="tanh", rng=2)
        x = Tensor(rng.standard_normal((2, 3)))
        check_param_gradient(mlp, mlp.layers[0].bias, lambda: (mlp(x) ** 2).sum())

    def test_prelu_slope_grad(self):
        act = PReLU()
        x = Tensor(rng.standard_normal((6,)) - 0.5)
        check_param_gradient(act, act.slope, lambda: (act(x) ** 2).sum())

    def test_layernorm_gamma_grad(self):
        ln = LayerNorm(5)
        x = Tensor(rng.standard_normal((3, 5)))
        check_param_gradient(ln, ln.gamma, lambda: (ln(x) ** 2).sum())


class TestRecurrent:
    def test_lstm_cell_weight_grad(self):
        cell = LSTMCell(2, 3, rng=3)
        x = Tensor(rng.standard_normal((1, 2, 2)))

        def loss():
            _, (h, c) = run_lstm(cell, x)
            return (h * h + c * c).sum()

        check_param_gradient(cell, cell.bias, loss)

    def test_lstm_input_grad(self):
        cell = LSTMCell(2, 3, rng=4)

        def f(x):
            out, _ = run_lstm(cell, x)
            return (out * out).sum()

        check_gradient(f, rng.standard_normal((4, 1, 2)), tol=1e-4)

    def test_lstm_recurrent_weight_grad(self):
        cell = LSTMCell(2, 2, rng=5)
        x = Tensor(rng.standard_normal((3, 1, 2)))

        def loss():
            out, _ = run_lstm(cell, x)
            return (out * out).sum()

        check_param_gradient(cell, cell.w_hh, loss)

    def test_bilstm_input_grad(self):
        bi = BiLSTM(2, 4, rng=6)

        def f(x):
            out, _ = bi(x)
            return (out * out).sum()

        check_gradient(f, rng.standard_normal((3, 1, 2)), tol=1e-4)


def check_input_gradients(loss_fn, arrays, tol=1e-5):
    """Numerical-vs-autodiff gradient of ``loss_fn(*tensors)`` w.r.t. every input."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss_fn(*leaves).backward()
    for k, (leaf, a) in enumerate(zip(leaves, arrays)):
        assert leaf.grad is not None, f"no gradient reached input {k}"

        def f(x, k=k):
            args = [Tensor(b) for b in arrays]
            args[k] = x
            return loss_fn(*args)

        err = np.abs(numerical_gradient(f, a) - leaf.grad).max()
        assert err < tol, f"input {k} gradient mismatch: {err}"


class TestFusedLSTMStep:
    """One step of the sequence op on the shapes the placer's decoder
    feeds the step kernel: a batch-1 state against a batch-B input (the
    first decoder step fans one encoder state out to B samples), and
    losses on ``h`` only, ``c`` only, or both."""

    B, H = 3, 2
    LOSSES = {
        "h": lambda h, c, rh, rc: (h * rh).sum(),
        "c": lambda h, c, rh, rc: (c * rc).sum(),
        "both": lambda h, c, rh, rc: (h * rh).sum() + (c * c * rc).sum(),
    }

    def _case(self, state_batch):
        cell = LSTMCell(4, self.H, rng=20)
        x = rng.standard_normal((1, self.B, 4))
        h = rng.standard_normal((state_batch, self.H))
        c = rng.standard_normal((state_batch, self.H))
        rh, rc = rng.standard_normal((2, self.B, self.H))
        return cell, x, h, c, rh, rc

    @pytest.mark.parametrize("target", list(LOSSES))
    @pytest.mark.parametrize("state_batch", [1, B])
    def test_input_and_state_grads(self, target, state_batch):
        cell, x, h, c, rh, rc = self._case(state_batch)
        loss = self.LOSSES[target]
        check_input_gradients(
            lambda x, h0, c0: loss(*run_lstm(cell, x, (h0, c0))[1], rh, rc), [x, h, c]
        )

    @pytest.mark.parametrize("target", list(LOSSES))
    @pytest.mark.parametrize("state_batch", [1, B])
    def test_w_hh_grad(self, target, state_batch):
        cell, x, h, c, rh, rc = self._case(state_batch)
        loss = self.LOSSES[target]
        x, state = Tensor(x), (Tensor(h), Tensor(c))
        check_param_gradient(cell, cell.w_hh, lambda: loss(*run_lstm(cell, x, state)[1], rh, rc))

    def test_two_steps_chain_h_and_c(self):
        """The second step consumes both outputs of the first."""
        cell = LSTMCell(2, 3, rng=21)
        x = rng.standard_normal((2, 3, 2))
        h = rng.standard_normal((1, 3))
        c = rng.standard_normal((1, 3))

        def loss(x, h0, c0):
            _, (h2, c2) = run_lstm(cell, x, (h0, c0))
            return (h2 * h2).sum() + c2.sum()

        check_input_gradients(loss, [x, h, c])


class TestAttention:
    """The attention kernels' gradients, with the keys projected from the
    memory as the placer's decoder projects them, against central
    differences."""

    def test_attention_memory_grad(self):
        att = BahdanauAttention(3, 2, 4, rng=7)
        q = rng.standard_normal((1, 2))
        check_attention_gradients(att, rng.standard_normal((4, 1, 3)), q, ["memory"], tol=1e-4)

    def test_attention_query_grad(self):
        att = BahdanauAttention(3, 2, 4, rng=8)
        mem = rng.standard_normal((4, 1, 3))
        check_attention_gradients(att, mem, rng.standard_normal((1, 2)), ["query"], tol=1e-4)

    def test_attention_v_param_grad(self):
        att = BahdanauAttention(3, 2, 4, rng=9)
        mem = rng.standard_normal((4, 1, 3))
        q = rng.standard_normal((1, 2))
        check_attention_gradients(att, mem, q, ["v"], tol=1e-4)

    def _batched_case(self):
        """Batch-1 memory against a batch-B query, as in the placer decoder."""
        att = BahdanauAttention(3, 2, 4, rng=17)
        mem = rng.standard_normal((4, 1, 3))
        q = rng.standard_normal((5, 2))
        r = rng.standard_normal((5, 3))
        return att, mem, q, r

    def test_batch1_memory_batched_query_input_grads(self):
        att, mem, q, r = self._batched_case()
        check_attention_gradients(att, mem, q, ["memory", "query"], r=r)

    def test_precomputed_keys_input_grads(self):
        """Keys tiled to the query batch, as the decoder precomputes them."""
        att, mem, q, r = self._batched_case()
        check_attention_gradients(att, mem, q, ["memory", "query"], r=r, tiled=True)

    @pytest.mark.parametrize("param", ["w_query.weight", "w_query.bias", "v", "w_memory.weight"])
    @pytest.mark.parametrize("precomputed", [False, True])
    def test_batched_param_grads(self, param, precomputed):
        att, mem, q, r = self._batched_case()
        check_attention_gradients(att, mem, q, [param], r=r, tiled=precomputed, tol=1e-4)

    def test_precomputed_keys_match_computed(self):
        """Keys tiled to the query batch give the bits of keys broadcast
        from the memory's batch; only the keys' own gradient, summed over
        the batch after its scaling rather than before, may round apart."""
        att, mem, q, r = self._batched_case()
        (ctx_a, grads_a), (ctx_b, grads_b) = [attend(att, mem, q, tiled) for tiled in (False, True)]
        assert np.array_equal(ctx_a, ctx_b)
        grads_a, grads_b = grads_a(r), grads_b(r)
        for name in ("query", "w_query.weight", "w_query.bias", "v"):
            assert np.array_equal(grads_a[name], grads_b[name]), name
        for name in ("memory", "w_memory.weight"):
            assert np.allclose(grads_a[name], grads_b[name], rtol=1e-12, atol=0), name


class TestGraphEncoders:
    def _adj(self, n=5):
        a = sp.random(n, n, density=0.5, random_state=0, format="csr")
        a.data[:] = 1.0
        return a

    def test_gcn_layer_input_grad(self):
        layer = GCNLayer(3, 4, rng=10)
        adj = self._adj()
        check_gradient(lambda x: (layer(x, adj) ** 2).sum(), rng.standard_normal((5, 3)), tol=1e-4)

    def test_gcn_layer_weight_grad(self):
        layer = GCNLayer(3, 2, rng=11)
        adj = self._adj()
        x = Tensor(rng.standard_normal((5, 3)))
        check_param_gradient(layer, layer.linear.weight, lambda: (layer(x, adj) ** 2).sum())

    def test_sage_layer_input_grad(self):
        layer = SAGELayer(3, 4, rng=12)
        adj = row_normalized_adjacency(self._adj())
        check_gradient(
            lambda x: (layer(x, adj) ** 2).sum(), rng.standard_normal((5, 3)) + 0.3, tol=1e-4
        )


class TestTransformer:
    def test_txl_layer_input_grad(self):
        layer = TransformerXLLayer(4, 2, 8, rng=13)
        check_gradient(
            lambda x: (layer(x) ** 2).sum(), rng.standard_normal((3, 1, 4)), tol=1e-3
        )

    def test_txl_layer_rel_bias_grad(self):
        layer = TransformerXLLayer(4, 2, 8, rng=14)
        x = Tensor(rng.standard_normal((3, 1, 4)))
        check_param_gradient(
            layer, layer.attn.rel_bias, lambda: (layer(x) ** 2).sum(), tol=1e-3
        )

    def test_txl_layer_with_memory_grad(self):
        layer = TransformerXLLayer(4, 2, 8, rng=15)
        memory = rng.standard_normal((2, 1, 4))
        check_gradient(
            lambda x: (layer(x, memory) ** 2).sum(),
            rng.standard_normal((3, 1, 4)),
            tol=1e-3,
        )


class TestPlacerLogProb:
    def test_segment_placer_logp_grad_wrt_reps(self):
        from repro.placers import SegmentSeq2SeqPlacer

        placer = SegmentSeq2SeqPlacer(3, 3, hidden_size=4, segment_size=2, action_embed_dim=2, rng=16)
        actions = np.array([[0, 2, 1, 0, 1]])

        def f(reps):
            out = placer.run(reps, actions=actions)
            return out.log_probs.sum()

        check_gradient(f, rng.standard_normal((5, 3)), tol=1e-4)
