"""Tests for Module/Parameter plumbing, Linear/MLP, activations, norm."""

import numpy as np
import pytest

from repro.nn import MLP, LayerNorm, Linear, Module, Parameter, PReLU, Tensor, apply_activation
from tests.helpers import check_gradient, composed_prelu

rng = np.random.default_rng(11)


class TestModuleRegistry:
    def test_parameters_discovered_recursively(self):
        mlp = MLP([4, 8, 2], rng=0)
        names = [n for n, _ in mlp.named_parameters()]
        assert "layer0.weight" in names and "layer1.bias" in names
        assert len(mlp.parameters()) == 4

    def test_num_parameters(self):
        lin = Linear(4, 3, rng=0)
        assert lin.num_parameters() == 4 * 3 + 3

    def test_state_dict_roundtrip(self):
        a = MLP([4, 8, 2], rng=0)
        b = MLP([4, 8, 2], rng=99)
        b.load_state_dict(a.state_dict())
        x = Tensor(rng.standard_normal((5, 4)))
        assert np.allclose(a(x).data, b(x).data)

    def test_load_state_dict_strict_mismatch(self):
        a = Linear(4, 3, rng=0)
        with pytest.raises(KeyError):
            a.load_state_dict({"weight": a.weight.data})

    def test_load_state_dict_shape_mismatch(self):
        a = Linear(4, 3, rng=0)
        state = a.state_dict()
        state["weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_zero_grad_clears(self):
        lin = Linear(3, 2, rng=0)
        lin(Tensor(np.ones((1, 3)))).sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None


class TestLinearMLP:
    def test_linear_shapes(self):
        lin = Linear(6, 4, rng=0)
        assert lin(Tensor(np.zeros((2, 3, 6)))).shape == (2, 3, 4)

    def test_linear_no_bias(self):
        lin = Linear(3, 2, bias=False, rng=0)
        assert len(lin.parameters()) == 1
        assert np.allclose(lin(Tensor(np.zeros((1, 3)))).data, 0.0)

    def test_mlp_requires_two_sizes(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_mlp_gradcheck(self):
        mlp = MLP([3, 5, 1], activation="tanh", rng=2)
        check_gradient(lambda x: mlp(x).sum(), rng.standard_normal((2, 3)))


class TestActivations:
    def test_prelu_positive_passthrough(self):
        act = PReLU(init_slope=0.25)
        x = Tensor(np.array([2.0, -4.0]))
        assert np.allclose(composed_prelu(act, x).data, [2.0, -1.0])

    def test_prelu_slope_is_learnable(self):
        act = PReLU()
        x = Tensor(np.array([-1.0]), requires_grad=True)
        composed_prelu(act, x).sum().backward()
        assert act.slope.grad is not None
        assert act.slope.grad == pytest.approx(-1.0)

    def test_apply_activation_unknown(self):
        with pytest.raises(ValueError):
            apply_activation(Tensor(np.zeros(2)), "swish")

    def test_apply_activation_identity(self):
        x = Tensor(np.ones(3))
        assert apply_activation(x, "identity") is x


class TestLayerNorm:
    def test_output_normalized(self):
        ln = LayerNorm(8)
        x = Tensor(rng.standard_normal((4, 8)) * 5 + 3)
        out = ln(x).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_gradcheck(self):
        ln = LayerNorm(5)
        check_gradient(lambda x: (ln(x) ** 2).sum(), rng.standard_normal((2, 5)))
