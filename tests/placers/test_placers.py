"""Tests shared across all placer designs plus design-specific behaviour."""

import numpy as np
import pytest

from repro.nn import Tensor, no_grad
from repro.placers import (
    MLPGrouper,
    MLPPlacer,
    SegmentSeq2SeqPlacer,
    TransformerXLPlacer,
    sample_categorical,
)
from repro.placers.base import logits_to_choice

rng = np.random.default_rng(17)

N_OPS, IN_DIM, N_DEV = 37, 9, 5


def make_placers():
    return [
        ("segment", SegmentSeq2SeqPlacer(IN_DIM, N_DEV, hidden_size=16, segment_size=8, action_embed_dim=4, rng=0)),
        ("plain", SegmentSeq2SeqPlacer(IN_DIM, N_DEV, hidden_size=16, segment_size=None, action_embed_dim=4, rng=1)),
        ("txl", TransformerXLPlacer(IN_DIM, N_DEV, model_dim=16, n_layers=1, n_heads=2, segment_size=8, rng=2)),
        ("mlp", MLPPlacer(IN_DIM, N_DEV, hidden_size=8, rng=3)),
    ]


@pytest.fixture
def reps():
    return Tensor(rng.standard_normal((N_OPS, IN_DIM)), requires_grad=False)


@pytest.mark.parametrize("name,placer", make_placers(), ids=lambda p: p if isinstance(p, str) else "")
class TestPlacerContract:
    def test_sample_shapes_and_ranges(self, name, placer, reps):
        out = placer.run(reps, n_samples=4, rng=np.random.default_rng(0))
        assert out.actions.shape == (4, N_OPS)
        assert out.actions.dtype == np.int64
        assert out.actions.min() >= 0 and out.actions.max() < N_DEV
        assert out.log_probs.shape == (4, N_OPS)
        assert out.entropy.shape == (4, N_OPS)

    def test_log_probs_negative(self, name, placer, reps):
        out = placer.run(reps, n_samples=2, rng=np.random.default_rng(1))
        assert np.all(out.log_probs.data <= 0)

    def test_entropy_bounded_by_log_k(self, name, placer, reps):
        out = placer.run(reps, n_samples=2, rng=np.random.default_rng(2))
        assert np.all(out.entropy.data >= -1e-9)
        assert np.all(out.entropy.data <= np.log(N_DEV) + 1e-9)

    def test_teacher_forcing_reproduces_logp(self, name, placer, reps):
        out = placer.run(reps, n_samples=3, rng=np.random.default_rng(3))
        scored = placer.run(reps, actions=out.actions)
        assert np.allclose(out.log_probs.data, scored.log_probs.data, atol=1e-10)

    def test_greedy_is_deterministic(self, name, placer, reps):
        a = placer.run(reps, n_samples=1, greedy=1, rng=np.random.default_rng(0))
        b = placer.run(reps, n_samples=1, greedy=1, rng=np.random.default_rng(9))
        assert np.array_equal(a.actions, b.actions)

    @pytest.mark.parametrize("n,k", [(3, 1), (6, 2), (3, 3)])
    def test_greedy_rows_trail_the_sampled_rows(self, name, placer, reps, n, k):
        """The leading ``n - k`` rows of a batch with ``k`` greedy rows
        are the samples of a batch of ``n - k``: same actions, same
        log-prob bits, same draws from the rng. ``n - k`` is even: an
        odd batch's attention scores go through a BLAS gemv that rounds
        its last row apart from the others, so appending a row to one
        can move that row's last bits."""
        r_mixed, r_sampled = np.random.default_rng(6), np.random.default_rng(6)
        mixed = placer.run(reps, n_samples=n, rng=r_mixed, greedy=k)
        greedy = placer.run(reps, n_samples=1, greedy=1)
        if n > k:
            sampled = placer.run(reps, n_samples=n - k, rng=r_sampled)
            assert np.array_equal(mixed.actions[: n - k], sampled.actions)
            assert np.array_equal(mixed.log_probs.data[: n - k], sampled.log_probs.data)
        assert r_mixed.random() == r_sampled.random()
        assert np.array_equal(mixed.actions[n - k :], np.repeat(greedy.actions, k, axis=0))

    @pytest.mark.parametrize("k", [-1, 3])
    def test_greedy_count_out_of_range(self, name, placer, reps, k):
        with pytest.raises(ValueError, match="greedy"):
            placer.run(reps, n_samples=2, rng=np.random.default_rng(0), greedy=k)

    def test_gradients_reach_parameters(self, name, placer, reps):
        """The teacher-forced pass a policy update differentiates."""
        with no_grad():
            sampled = placer.run(reps, n_samples=2, rng=np.random.default_rng(4))
        out = placer.run(reps, actions=sampled.actions)
        loss = -(out.log_probs.mean()) - 0.01 * out.entropy.mean()
        placer.zero_grad()
        loss.backward()
        grads = [p.grad is not None for p in placer.parameters()]
        assert all(grads)

    def test_actions_shape_validation(self, name, placer, reps):
        with pytest.raises(ValueError):
            placer.run(reps, actions=np.zeros((2, 3), dtype=int))


class TestSegmentSpecifics:
    def test_segment_boundaries(self):
        placer = SegmentSeq2SeqPlacer(IN_DIM, N_DEV, hidden_size=16, segment_size=10, rng=0)
        segs = placer._segments(N_OPS)
        assert segs[0] == slice(0, 10)
        assert segs[-1] == slice(30, 37)

    def test_single_segment_when_none(self):
        placer = SegmentSeq2SeqPlacer(IN_DIM, N_DEV, hidden_size=16, segment_size=None, rng=0)
        assert placer._segments(N_OPS) == [slice(0, 37)]

    def test_invalid_segment_size(self):
        with pytest.raises(ValueError):
            SegmentSeq2SeqPlacer(IN_DIM, N_DEV, segment_size=0)

    def test_action_feedback_matters(self, reps):
        """Teacher-forcing different actions changes subsequent logits."""
        placer = SegmentSeq2SeqPlacer(IN_DIM, N_DEV, hidden_size=16, segment_size=8, rng=5)
        base = np.zeros((1, N_OPS), dtype=np.int64)
        alt = base.copy()
        alt[0, 0] = 3  # change only the first action
        lp_base = placer.run(reps, actions=base).log_probs.data
        lp_alt = placer.run(reps, actions=alt).log_probs.data
        # Later log-probs must differ (the decoder feeds actions back).
        assert not np.allclose(lp_base[0, 1:], lp_alt[0, 1:])


class TestSamplingHelpers:
    def test_sample_categorical_distribution(self):
        probs = np.tile(np.array([0.8, 0.2]), (5000, 1))
        samples = sample_categorical(probs, np.random.default_rng(0))
        assert samples.mean() == pytest.approx(0.2, abs=0.02)

    def test_sample_categorical_deterministic_onehot(self):
        probs = np.tile(np.array([0.0, 0.0, 1.0]), (10, 1))
        samples = sample_categorical(probs, np.random.default_rng(0))
        assert np.all(samples == 2)

    def test_logits_to_choice_requires_rng(self):
        with pytest.raises(ValueError):
            logits_to_choice(Tensor(np.zeros((2, 3))), None, None)


class TestGrouper:
    def test_run_shapes(self):
        g = MLPGrouper(IN_DIM, 6, hidden_size=8, rng=0)
        feats = Tensor(rng.standard_normal((N_OPS, IN_DIM)))
        groups, logp, ent = g.run(feats, n_samples=3, rng=np.random.default_rng(0))
        assert groups.shape == (3, N_OPS)
        assert groups.max() < 6

    def test_group_embeddings_means(self):
        feats = np.array([[2.0, 0.0], [4.0, 0.0], [0.0, 6.0]])
        groups = np.array([[0, 0, 1], [1, 1, 1]])
        emb = MLPGrouper.group_embeddings(feats, groups, 2)
        assert np.allclose(emb[0, 0], [3.0, 0.0])
        assert np.allclose(emb[0, 1], [0.0, 6.0])
        assert np.allclose(emb[1, 0], 0.0)  # empty group
        assert np.allclose(emb[1, 1], feats.mean(axis=0))
