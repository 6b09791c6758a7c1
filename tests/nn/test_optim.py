"""Tests for optimizers and gradient clipping."""

import numpy as np
import pytest

from repro.nn import Adam, Linear, Tensor, clip_grad_norm
from repro.nn.module import Parameter
from tests.helpers import reference_adam_step

rng = np.random.default_rng(3)


def quadratic_loss(p: Parameter) -> Tensor:
    return ((p - 3.0) ** 2).sum()


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([10.0]))
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        assert p.data[0] == pytest.approx(3.0, abs=1e-2)

    def test_bias_correction_first_step_magnitude(self):
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.1)
        quadratic_loss(p).backward()
        opt.step()
        # First Adam step has magnitude ~lr regardless of gradient scale.
        assert abs(p.data[0]) == pytest.approx(0.1, rel=1e-3)

    def test_weight_decay_shrinks(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        (p * Tensor(np.zeros(1))).sum().backward()  # zero task gradient
        opt.step()
        assert p.data[0] < 5.0

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_in_place_step_keeps_reference_bits(self, weight_decay):
        """Several steps against the allocating step: parameters, moments
        and state dict bit-equal, a parameter with no gradient untouched,
        a Fortran-ordered one (as ``init.orthogonal`` returns) included."""
        shapes = [(7, 5), (5,), (), (3, 4, 2), (6,)]
        init = [rng.standard_normal(s) * 3.0 for s in shapes]
        init.append(np.asfortranarray(rng.standard_normal((4, 9))))
        runs = []
        for step in (Adam.step, reference_adam_step):
            params = [Parameter(x.copy(order="K")) for x in init]
            opt = Adam(params, lr=0.01, weight_decay=weight_decay)
            grad_rng = np.random.default_rng(4)
            for _ in range(5):
                for i, p in enumerate(params):
                    scale = 10.0 ** grad_rng.integers(-6, 3)
                    p.grad = grad_rng.standard_normal(p.shape) * scale
                params[3].grad = None
                step(opt)
            runs.append((params, opt.state_dict()))
        (got, got_state), (want, want_state) = runs
        assert got[-1].data.flags.f_contiguous and not got[-1].data.flags.c_contiguous
        assert np.array_equal(got[3].data, init[3])
        for a, b in zip(got, want):
            assert a.data.tobytes() == b.data.tobytes()
        assert got_state["t"] == want_state["t"] == 5
        for key in ("m", "v"):
            for a, b in zip(got_state[key], want_state[key]):
                assert a.tobytes() == b.tobytes()

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_linear_regression_training(self):
        lin = Linear(3, 1, rng=0)
        true_w = np.array([[1.0], [-2.0], [0.5]])
        x = rng.standard_normal((64, 3))
        y = x @ true_w
        opt = Adam(lin.parameters(), lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            diff = lin(Tensor(x)) - Tensor(y)
            loss = (diff * diff).mean()
            loss.backward()
            opt.step()
        assert loss.item() < 1e-3
        assert np.allclose(lin.weight.data, true_w, atol=0.05)


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        p = Parameter(np.array([1.0]))
        p.grad = np.array([0.5])
        norm = clip_grad_norm([p], 1.0)
        assert norm == pytest.approx(0.5)
        assert p.grad[0] == pytest.approx(0.5)

    def test_clips_to_max_norm(self):
        p1 = Parameter(np.zeros(2))
        p2 = Parameter(np.zeros(2))
        p1.grad = np.array([3.0, 0.0])
        p2.grad = np.array([0.0, 4.0])
        norm = clip_grad_norm([p1, p2], 1.0)
        assert norm == pytest.approx(5.0)
        total = np.sqrt((p1.grad**2).sum() + (p2.grad**2).sum())
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_handles_missing_grads(self):
        p = Parameter(np.zeros(2))
        assert clip_grad_norm([p], 1.0) == 0.0
