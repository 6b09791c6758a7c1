"""Tests for composite differentiable ops (softmax family, spmm, the BCE
loss, and the log-prob gather and entropy of :func:`logits_to_choice`)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import Tensor
from repro.nn import functional as F
from repro.placers.base import logits_to_choice
from tests.helpers import check_gradient

rng = np.random.default_rng(7)


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(rng.standard_normal((4, 6)))
        s = F.softmax(x, axis=-1)
        assert np.allclose(s.data.sum(axis=-1), 1.0)

    def test_softmax_shift_invariance(self):
        x = rng.standard_normal((3, 5))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 1000.0)).data
        assert np.allclose(a, b)

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(rng.standard_normal((3, 5)))
        assert np.allclose(F.log_softmax(x).data, np.log(F.softmax(x).data))

    def test_log_softmax_stable_at_extremes(self):
        x = Tensor(np.array([[0.0, -1e6], [1e6, 0.0]]))
        out = F.log_softmax(x).data
        # The chosen-class log-prob must be finite (0 here); the other entry
        # may legitimately be -inf at this magnitude but never NaN.
        assert out[0, 0] == pytest.approx(0.0)
        assert out[1, 0] == pytest.approx(0.0)
        assert not np.any(np.isnan(out))

    def test_logsumexp_value(self):
        x = rng.standard_normal((4, 3))
        expected = np.log(np.exp(x).sum(axis=1))
        assert np.allclose(F.logsumexp(Tensor(x), axis=1).data, expected)

    def test_softmax_gradient(self):
        check_gradient(
            lambda x: (F.softmax(x, axis=-1) ** 2).sum(), rng.standard_normal((3, 4))
        )

    def test_log_softmax_gradient(self):
        acts = np.array([0, 2, 1])
        check_gradient(
            lambda x: F.log_softmax(x, axis=-1)[np.arange(3), acts].sum(),
            rng.standard_normal((3, 4)),
        )

    def test_softmax_axis0(self):
        x = Tensor(rng.standard_normal((4, 2)))
        assert np.allclose(F.softmax(x, axis=0).data.sum(axis=0), 1.0)


class TestSpmm:
    def test_value_matches_dense(self):
        a = sp.random(6, 6, density=0.4, random_state=3, format="csr")
        x = Tensor(rng.standard_normal((6, 3)))
        assert np.allclose(F.spmm(a, x).data, a.toarray() @ x.data)

    def test_gradient(self):
        a = sp.random(5, 5, density=0.5, random_state=1, format="csr")
        check_gradient(lambda x: (F.spmm(a, x) ** 2).sum(), rng.standard_normal((5, 2)))


class TestLosses:
    def test_bce_with_logits_matches_reference(self):
        z = rng.standard_normal(20)
        y = (rng.random(20) > 0.5).astype(float)
        p = 1.0 / (1.0 + np.exp(-z))
        expected = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
        got = F.bce_with_logits(Tensor(z), y).item()
        assert got == pytest.approx(expected, rel=1e-9)

    def test_bce_stable_for_large_logits(self):
        z = Tensor(np.array([1e4, -1e4]))
        val = F.bce_with_logits(z, np.array([1.0, 0.0])).item()
        assert np.isfinite(val) and val < 1e-3

    def test_bce_gradient(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        check_gradient(lambda x: F.bce_with_logits(x, y), rng.standard_normal(4))


class TestGatherAndEntropy:
    """The chosen actions' log-probs and the entropy, as every placer
    scores its logits."""

    def test_gather_log_probs_values(self):
        logits = Tensor(rng.standard_normal((2, 3)))
        acts = np.array([2, 0])
        _, out, _ = logits_to_choice(logits, None, acts)
        assert out.shape == (2,)
        assert out.data[0] == F.log_softmax(logits).data[0, 2]

    def test_entropy_uniform_is_log_k(self):
        _, _, ent = logits_to_choice(Tensor(np.zeros((2, 8))), None, np.zeros(2, dtype=int))
        assert np.allclose(ent.data, np.log(8))

    def test_entropy_onehot_is_zero(self):
        logits = Tensor(np.array([[100.0, 0.0, 0.0]]))
        _, _, ent = logits_to_choice(logits, None, np.zeros(1, dtype=int))
        assert ent.data[0] == pytest.approx(0.0, abs=1e-6)
