"""Tests for utils: rng, serialization, logging."""

import logging
import os

import numpy as np
import pytest

from repro.utils import get_logger, new_rng, spawn_rng
from repro.utils.rng import hash_seed
from repro.utils.serialization import load_state_dict, save_state_dict


class TestRng:
    def test_new_rng_from_int_deterministic(self):
        assert new_rng(7).random() == new_rng(7).random()

    def test_new_rng_passthrough(self):
        g = np.random.default_rng(0)
        assert new_rng(g) is g

    def test_spawn_independent_streams(self):
        children = spawn_rng(new_rng(0), 3)
        values = [c.random() for c in children]
        assert len(set(values)) == 3

    def test_spawn_requires_positive(self):
        with pytest.raises(ValueError):
            spawn_rng(new_rng(0), 0)

    def test_hash_seed_stable_and_distinct(self):
        assert hash_seed(1, "a") == hash_seed(1, "a")
        assert hash_seed(1, "a") != hash_seed(1, "b")
        assert 0 <= hash_seed("x") < 2**63


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        state = {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}
        path = os.path.join(tmp_path, "ckpt")
        save_state_dict(path, state)
        loaded = load_state_dict(path)
        assert set(loaded) == {"w", "b"}
        assert np.array_equal(loaded["w"], state["w"])

    def test_npz_suffix_optional(self, tmp_path):
        path = os.path.join(tmp_path, "model.npz")
        save_state_dict(path, {"x": np.ones(2)})
        assert np.array_equal(load_state_dict(path)["x"], np.ones(2))


class TestLogging:
    def test_namespaced_logger(self):
        log = get_logger("repro.test")
        assert log.name == "repro.test"
        assert isinstance(log, logging.Logger)
