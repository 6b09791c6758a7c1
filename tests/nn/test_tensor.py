"""Unit + gradient-check tests for the autodiff tensor core."""

import threading

import numpy as np
import pytest

from repro.nn import Tensor, concat, stack, maximum, minimum, no_grad, is_grad_enabled
from tests.helpers import check_gradient

rng = np.random.default_rng(42)


class TestBasics:
    def test_construction_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert not t.requires_grad

    def test_construction_from_tensor_copies_data_reference(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert np.array_equal(a.data, b.data)

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor(1.0, requires_grad=True))

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_item_on_vector_raises(self):
        with pytest.raises(TypeError):
            Tensor([1.0, 2.0]).item()

    def test_detach_stops_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = (x.detach() * 2).sum()
        assert not y.requires_grad

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_backward_grad_shape_mismatch(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2
        with pytest.raises(ValueError):
            y.backward(np.ones(3))


class TestArithmeticGradients:
    def test_add(self):
        check_gradient(lambda x: (x + 3.0).sum(), rng.standard_normal((3, 4)))

    def test_mul(self):
        check_gradient(lambda x: (x * x).sum(), rng.standard_normal((3, 4)))

    def test_div(self):
        check_gradient(lambda x: (1.0 / (x + 10.0)).sum(), rng.standard_normal((3, 4)))

    def test_pow(self):
        check_gradient(lambda x: (x**3).sum(), rng.standard_normal((5,)))

    def test_neg_sub(self):
        check_gradient(lambda x: (5.0 - x).sum(), rng.standard_normal((4,)))

    def test_rsub_rdiv(self):
        x = Tensor([2.0], requires_grad=True)
        y = (3.0 - x) + (6.0 / x)
        y.backward(np.ones(1))
        assert np.allclose(x.grad, -1.0 - 6.0 / 4.0)

    def test_broadcast_add_gradient(self):
        x0 = rng.standard_normal((1, 4))
        other = Tensor(rng.standard_normal((3, 4)))
        check_gradient(lambda x: ((x + other) ** 2).sum(), x0)

    def test_broadcast_scalar_axis(self):
        x0 = rng.standard_normal((3, 1))
        other = Tensor(rng.standard_normal((3, 5)))
        check_gradient(lambda x: (x * other).sum(), x0)


class TestMatmulGradients:
    def test_2d_2d(self):
        w = Tensor(rng.standard_normal((4, 2)))
        check_gradient(lambda x: ((x @ w) ** 2).sum(), rng.standard_normal((3, 4)))

    def test_2d_2d_rhs(self):
        a = Tensor(rng.standard_normal((3, 4)))
        check_gradient(lambda x: ((a @ x) ** 2).sum(), rng.standard_normal((4, 2)))

    def test_batched_lhs(self):
        w = Tensor(rng.standard_normal((4, 2)))
        check_gradient(lambda x: ((x @ w) ** 2).sum(), rng.standard_normal((2, 3, 4)))

    def test_batched_rhs_broadcast(self):
        a = Tensor(rng.standard_normal((2, 3, 4)))
        check_gradient(lambda x: ((a @ x) ** 2).sum(), rng.standard_normal((4, 2)))

    def test_1d_rhs(self):
        v = rng.standard_normal(4)
        a = Tensor(rng.standard_normal((2, 3, 4)))
        check_gradient(lambda x: ((a @ x) ** 2).sum(), v)

    def test_1d_lhs(self):
        m = Tensor(rng.standard_normal((4, 3)))
        check_gradient(lambda x: ((x @ m) ** 2).sum(), rng.standard_normal(4))

    def test_vector_dot(self):
        v = Tensor(rng.standard_normal(4))
        check_gradient(lambda x: (x @ v) ** 2, rng.standard_normal(4))


class TestElementwiseGradients:
    def test_exp_log(self):
        check_gradient(lambda x: (x.exp() + (x + 10.0).log()).sum(), rng.standard_normal((3,)))

    def test_tanh(self):
        check_gradient(lambda x: x.tanh().sum(), rng.standard_normal((7,)))

    def test_sigmoid(self):
        check_gradient(lambda x: x.sigmoid().sum(), rng.standard_normal((7,)))

    def test_sigmoid_extreme_values_stable(self):
        y = Tensor(np.array([-1000.0, 1000.0])).sigmoid()
        assert np.all(np.isfinite(y.data))
        assert y.data[0] == pytest.approx(0.0)
        assert y.data[1] == pytest.approx(1.0)

    def test_relu(self):
        check_gradient(lambda x: x.relu().sum(), rng.standard_normal((9,)) + 0.1)

    def test_abs(self):
        check_gradient(lambda x: x.abs().sum(), rng.standard_normal((9,)) + 0.05)

    def test_sqrt(self):
        check_gradient(lambda x: x.sqrt().sum(), rng.random((5,)) + 0.5)

    def test_clip_gradient_masked(self):
        x = Tensor(np.array([-2.0, 0.0, 2.0]), requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_axis(self):
        check_gradient(lambda x: (x.sum(axis=0) ** 2).sum(), rng.standard_normal((3, 4)))

    def test_sum_keepdims(self):
        check_gradient(lambda x: (x.sum(axis=1, keepdims=True) * x).sum(), rng.standard_normal((3, 4)))

    def test_mean(self):
        check_gradient(lambda x: (x.mean(axis=1) ** 2).sum(), rng.standard_normal((3, 4)))

    def test_mean_value(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert np.allclose(x.mean(axis=1).data, [1.0, 4.0])

    def test_max(self):
        x0 = rng.standard_normal((3, 4))
        check_gradient(lambda x: x.max(axis=1).sum(), x0)

    def test_max_tie_splits_gradient(self):
        x = Tensor(np.array([[1.0, 1.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        assert np.allclose(x.grad, [[0.5, 0.5]])


class TestShapeOps:
    def test_reshape(self):
        check_gradient(lambda x: (x.reshape(6) ** 2).sum(), rng.standard_normal((2, 3)))

    def test_transpose(self):
        a = Tensor(rng.standard_normal((3, 2)))
        check_gradient(lambda x: ((x.transpose() + a) ** 2).sum(), rng.standard_normal((2, 3)))

    def test_transpose_axes(self):
        check_gradient(
            lambda x: (x.transpose(2, 0, 1) ** 2).sum(), rng.standard_normal((2, 3, 4))
        )

    def test_getitem_slice(self):
        check_gradient(lambda x: (x[1:3] ** 2).sum(), rng.standard_normal((5, 2)))

    def test_getitem_fancy_accumulates_duplicates(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = x[np.array([0, 0, 1])]
        y.sum().backward()
        assert np.array_equal(x.grad, [2.0, 1.0])

    def test_broadcast_to(self):
        check_gradient(lambda x: (x.broadcast_to((4, 3)) ** 2).sum(), rng.standard_normal((1, 3)))


class TestCombinators:
    def test_concat_gradients(self):
        a0 = rng.standard_normal((2, 3))
        b = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        check_gradient(lambda a: (concat([a, b], axis=1) ** 2).sum(), a0)

    def test_stack_gradients(self):
        a0 = rng.standard_normal((3,))
        b = Tensor(rng.standard_normal((3,)))
        check_gradient(lambda a: (stack([a, b], axis=0) ** 2).sum(), a0)

    def test_maximum_minimum(self):
        b = Tensor(np.zeros(5))
        check_gradient(lambda x: maximum(x, b).sum(), rng.standard_normal(5) + 0.01)
        check_gradient(lambda x: minimum(x, b).sum(), rng.standard_normal(5) + 0.01)

    def test_maximum_tie_split(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = Tensor(np.array([1.0]), requires_grad=True)
        maximum(x, y).sum().backward()
        assert np.allclose(x.grad, 0.5) and np.allclose(y.grad, 0.5)


class TestAutodiffMachinery:
    def test_gradient_accumulates_over_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x * 3.0
        y.sum().backward()
        assert np.allclose(x.grad, 2 * 2.0 + 3.0)

    def test_diamond_graph(self):
        x = Tensor(np.array([1.5]), requires_grad=True)
        a = x * 2
        b = x * 3
        (a * b).sum().backward()
        assert np.allclose(x.grad, 2 * 3 * 2 * 1.5)

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        assert np.allclose(x.grad, 1.0)

    def test_no_grad_context(self):
        x = Tensor(np.ones(2), requires_grad=True)
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            y = (x * 2).sum()
        assert is_grad_enabled()
        assert not y.requires_grad

    def test_no_grad_nesting(self):
        with no_grad():
            with no_grad():
                pass
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_is_per_thread(self):
        """Two threads interleave ``no_grad`` enter and exit, in lock step:
        neither sees the other's flag, and both end with grad mode on."""
        x = Tensor(np.ones(2), requires_grad=True)
        barrier = threading.Barrier(2, timeout=10.0)
        seen = {}

        def first():
            with no_grad():
                barrier.wait()  # 1: first is inside, second is not
                barrier.wait()  # 2: second records, then enters
                barrier.wait()  # 3: both inside
            barrier.wait()  # 4: first has left, second is still inside
            barrier.wait()  # 5: second has left
            seen["first_after"] = is_grad_enabled()

        def second():
            barrier.wait()  # 1
            seen["outside_tape"] = (x * 2).requires_grad
            barrier.wait()  # 2
            with no_grad():
                barrier.wait()  # 3
                barrier.wait()  # 4
                seen["inside_tape"] = (x * 2).requires_grad
            barrier.wait()  # 5
            seen["second_after"] = is_grad_enabled()

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert seen == {
            "outside_tape": True,
            "inside_tape": False,
            "first_after": True,
            "second_after": True,
        }
        assert is_grad_enabled()

    def test_comparisons_return_arrays(self):
        x = Tensor(np.array([1.0, 3.0]))
        assert (x > 2.0).dtype == bool
        assert (x <= 3.0).all()
