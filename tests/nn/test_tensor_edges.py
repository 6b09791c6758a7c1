"""Additional edge-case coverage for the tensor core."""

import weakref

import numpy as np
import pytest

from repro.nn import Tensor
from tests.helpers import check_gradient

rng = np.random.default_rng(123)


class TestShapeEdges:
    def test_reshape_minus_one(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.reshape(2, -1).shape == (2, 12)

    def test_reshape_tuple_argument(self):
        x = Tensor(np.zeros(6))
        assert x.reshape((2, 3)).shape == (2, 3)

    def test_sum_multiple_axes(self):
        check_gradient(
            lambda x: (x.sum(axis=(0, 2)) ** 2).sum(), rng.standard_normal((2, 3, 4))
        )

    def test_sum_negative_axis(self):
        check_gradient(
            lambda x: (x.sum(axis=-1) ** 2).sum(), rng.standard_normal((3, 4))
        )

    def test_max_keepdims_gradient(self):
        x0 = rng.standard_normal((3, 4))
        check_gradient(lambda x: (x.max(axis=1, keepdims=True) * x).sum(), x0)

    def test_mean_multiple_axes_value(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4))
        assert np.allclose(x.mean(axis=(0, 2)).data, x.data.mean(axis=(0, 2)))

    def test_transpose_reverses_by_default(self):
        assert Tensor(np.zeros((2, 3, 4))).T.shape == (4, 3, 2)


class TestNumericalEdges:
    def test_zero_size_leading_ops(self):
        x = Tensor(np.zeros((0, 3)), requires_grad=True)
        y = (x * 2.0).sum()
        y.backward()
        assert x.grad.shape == (0, 3)

    def test_scalar_tensor_arithmetic(self):
        a = Tensor(2.0, requires_grad=True)
        (a * a * a).backward()
        assert a.grad == pytest.approx(12.0)

    def test_grad_not_tracked_on_constants(self):
        a = Tensor(np.ones(3))
        b = a * 2 + 1
        assert not b.requires_grad and b._parents == ()

    def test_inplace_data_mutation_visible(self):
        """Optimizers mutate .data in place; results must reflect it."""
        a = Tensor(np.ones(2), requires_grad=True)
        a.data -= 0.5
        assert np.allclose((a * 2).data, 1.0)

    def test_backward_twice_accumulates(self):
        a = Tensor(np.ones(2), requires_grad=True)
        (a * 3).sum().backward()
        (a * 3).sum().backward()
        assert np.allclose(a.grad, 6.0)

    def test_stable_sigmoid_matches_masked_formula_bitwise(self):
        """``exp(-|x|)`` shares one expression between the two branches of
        the masked formulation; the values must not move by one bit."""
        from repro.nn.tensor import stable_sigmoid

        x = np.concatenate(
            [rng.standard_normal(500) * 10.0, [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0,
                                               750.0, -750.0, np.inf, -np.inf]]
        ).reshape(17, 30)
        masked = np.empty_like(x)
        pos = x >= 0
        masked[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        masked[~pos] = ex / (1.0 + ex)
        assert np.array_equal(stable_sigmoid(x), masked)
        assert np.array_equal(stable_sigmoid(x[:, 3:11]), masked[:, 3:11])

    def test_clip_full_passthrough_inside_range(self):
        x0 = rng.standard_normal((5,)) * 0.1
        check_gradient(lambda x: x.clip(-1, 1).sum(), x0)

    def test_len(self):
        assert len(Tensor(np.zeros((4, 2)))) == 4


class TestTapeOrder:
    """``backward`` runs the nodes reachable from its root in reverse
    creation order."""

    def test_diamond_reuses_node_on_two_branches(self):
        x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        shared = x * x  # feeds both branches
        left = shared.exp()
        right = shared * 3.0
        (left + right).sum().backward()
        # d/dx (exp(x^2) + 3 x^2) = (exp(x^2) + 3) * 2x; `shared` must run
        # once, after both branches have accumulated into it.
        expected = (np.exp(x.data**2) + 3.0) * 2.0 * x.data
        assert np.allclose(x.grad, expected, rtol=1e-14)
        assert np.allclose(shared.grad, np.exp(x.data**2) + 3.0, rtol=1e-14)

    def test_interleaved_graphs_stay_separate(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = Tensor(np.array([3.0]), requires_grad=True)
        a1 = a * 2.0
        b1 = b * 5.0
        a2 = a1.tanh()
        b2 = b1 * b1
        loss_a = a2.sum()
        b2.sum()
        loss_a.backward()
        assert np.allclose(a.grad, 2.0 * (1.0 - np.tanh(4.0) ** 2))
        # Nodes of the other graph, created in between, are not walked.
        assert b.grad is None and b1.grad is None and b2.grad is None

    def test_second_backward_accumulates_into_shared_leaves(self):
        w = Tensor(np.array([0.5, -1.0]), requires_grad=True)
        x = Tensor(np.array([2.0, 3.0]))
        (w * x).sum().backward()
        first = w.grad.copy()
        ((w * w) * x).sum().backward()
        assert np.allclose(first, x.data)
        assert np.allclose(w.grad, x.data + 2.0 * w.data * x.data)

    def test_long_chain_without_recursion(self):
        x = Tensor(np.array(1.0), requires_grad=True)
        y = x
        for _ in range(100_000):
            y = y * 1.0
        y.backward()  # would overflow a recursive walk
        assert x.grad == 1.0


class TestTapeLifetime:
    """A graph is single-use: ``backward`` releases it as it walks."""

    def test_second_backward_over_one_graph_raises(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = (x * x).sum()
        y.backward()
        assert np.array_equal(x.grad, [2.0, 4.0])
        # Re-walking the stale non-leaf grads would leave [8, 16].
        with pytest.raises(RuntimeError, match="consumed"):
            y.backward()
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_graph_built_on_a_consumed_node_raises(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        h = x * x
        h.sum().backward()
        with pytest.raises(RuntimeError, match="consumed"):
            (h * 3.0).sum().backward()

    def test_backward_releases_captured_arrays(self):
        w = Tensor(np.ones(3), requires_grad=True)
        scale = np.arange(3.0)
        captured = weakref.ref(scale)
        y = (w * scale).sum()
        del scale
        assert captured() is not None  # held by the product's closure
        y.backward()
        assert captured() is None
        assert np.array_equal(w.grad, [0.0, 1.0, 2.0])
        assert y._parents == ()
