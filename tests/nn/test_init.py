"""Tests for weight initializers."""

import numpy as np
import pytest

from repro.nn import init

rng = np.random.default_rng(0)


class TestXavier:
    def test_bounds(self):
        w = init.xavier_uniform(rng, 100, 50)
        limit = np.sqrt(6.0 / 150)
        assert w.shape == (100, 50)
        assert np.abs(w).max() <= limit

    def test_custom_shape(self):
        w = init.xavier_uniform(rng, 10, 10, shape=(2, 10, 10))
        assert w.shape == (2, 10, 10)

    def test_scale_shrinks_with_fan(self):
        small = np.abs(init.xavier_uniform(rng, 4, 4)).max()
        large = np.abs(init.xavier_uniform(rng, 4000, 4000)).max()
        assert large < small


class TestOrthogonal:
    def test_square_is_orthogonal(self):
        q = init.orthogonal(rng, 16, 16)
        assert np.allclose(q @ q.T, np.eye(16), atol=1e-10)

    def test_tall_has_orthonormal_columns(self):
        q = init.orthogonal(rng, 20, 8)
        assert q.shape == (20, 8)
        assert np.allclose(q.T @ q, np.eye(8), atol=1e-10)

    def test_wide_has_orthonormal_rows(self):
        q = init.orthogonal(rng, 8, 20)
        assert q.shape == (8, 20)
        assert np.allclose(q @ q.T, np.eye(8), atol=1e-10)

    def test_gain_scales(self):
        q = init.orthogonal(rng, 6, 6, gain=3.0)
        assert np.allclose(q @ q.T, 9.0 * np.eye(6), atol=1e-9)
