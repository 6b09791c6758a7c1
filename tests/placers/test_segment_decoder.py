"""The segment placer's fused ops against a composed reference.

``SegmentSeq2SeqPlacer.run`` builds a segment-level tape: each encoder
direction is one sequence op per segment and the attention decoder over
all segments is one op. These tests pin it to the same forward composed
from tensor ops one step at a time (bit-equal values, gradients within
1e-10), check its gradients numerically on the placer's shapes (a batch-1
memory against a batch-B decoder state, a segment size that does not
divide the op count, one segment, a 1-op graph), and check that sampling,
which decodes one step at a time, and teacher-forced scoring, which runs
the attention over blocks of steps, give the same bits: with the block
budget shrunk, scoring crosses block boundaries inside a segment and ends
on a short block and a short last segment.
"""

import numpy as np
import pytest

from repro.nn import BiLSTM, Tensor, concat, no_grad, stack
from repro.placers import SegmentSeq2SeqPlacer, segment_seq2seq
from repro.placers.base import logits_to_choice
from tests.helpers import (
    check_gradient,
    composed_attention,
    composed_embedding,
    composed_lstm,
    composed_lstm_step,
)

rng = np.random.default_rng(23)

IN_DIM, N_DEV = 3, 3

# (n_ops, segment_size): one that does not divide n_ops, one segment,
# and a 1-op graph.
SHAPES = [(5, 2), (5, None), (1, 2)]


def make_placer(segment_size, seed=0):
    return SegmentSeq2SeqPlacer(
        IN_DIM, N_DEV, hidden_size=4, segment_size=segment_size, action_embed_dim=2, rng=seed
    )


def composed_logits(placer, reps, actions):
    """The placer's logits ``(B,N,D)`` composed from tensor ops per step."""
    n_ops, B, H = reps.shape[0], actions.shape[0], placer.hidden_size
    seq = reps.reshape(n_ops, 1, placer.input_dim)
    cell = placer.decoder_cell
    fwd_state = dec_state = None
    prev = np.full(B, placer.num_devices)
    logits = []
    for seg in placer._segments(n_ops):
        x = seq[seg]
        out_f, fwd_state = composed_lstm(placer.encoder.fwd.cell, x, fwd_state)
        out_b, bwd_state = composed_lstm(placer.encoder.bwd.cell, x, None, reverse=True)
        mem = concat([out_f, out_b], axis=2)
        if dec_state is None:
            h0, c0 = BiLSTM.merge_state((fwd_state, bwd_state))
            dec_state = (h0.broadcast_to((B, H)), c0.broadcast_to((B, H)))
        enc_gates = mem @ cell.w_ih[:H] + cell.bias
        for t in range(seg.stop - seg.start):
            gates_x = enc_gates[t] + composed_embedding(placer.action_embed, prev) @ cell.w_ih[H:]
            dec_state = composed_lstm_step(cell, gates_x, dec_state)
            h = dec_state[0]
            ctx = composed_attention(placer.attention, mem, h)
            logits.append(placer.head(concat([h, ctx], axis=1)))
            prev = actions[:, seg.start + t]
    return stack(logits, axis=1)


def random_actions(batch, n_ops):
    return rng.integers(0, N_DEV, size=(batch, n_ops))


def _loss(logp, ent, r):
    return (logp * r[0]).sum() + (ent * r[1]).sum()


def _assert_matches_composed_reference(placer, n_ops, batch):
    reps0 = rng.standard_normal((n_ops, IN_DIM))
    actions = random_actions(batch, n_ops)
    r = rng.standard_normal((2, batch, n_ops))
    results = []
    for fused in (True, False):
        reps = Tensor(reps0, requires_grad=True)
        placer.zero_grad()
        if fused:
            out = placer.run(reps, actions=actions)
            logp, ent = out.log_probs, out.entropy
        else:
            _, logp, ent = logits_to_choice(composed_logits(placer, reps, actions), None, actions)
        _loss(logp, ent, r).backward()
        grads = [reps.grad] + [p.grad for p in placer.parameters()]
        results.append(((logp.data, ent.data), grads))
    (fused_out, fused_grads), (ref_out, ref_grads) = results
    for a, b in zip(fused_out, ref_out):
        assert np.array_equal(a, b)
    for a, b in zip(fused_grads, ref_grads):
        assert a.shape == b.shape
        assert np.allclose(a, b, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("n_ops,segment_size", SHAPES)
def test_matches_composed_reference(n_ops, segment_size, batch):
    _assert_matches_composed_reference(make_placer(segment_size, seed=1), n_ops, batch)


# Hidden 4 gives attention width 2, so at batch 3 a segment of T steps
# holds 6T score elements per step: a budget of 60 makes blocks of
# 10 // T steps (2, 2 and 1 over a 5-op segment), and 1 makes every
# block one step.
@pytest.mark.parametrize("budget", [1, 60])
@pytest.mark.parametrize("n_ops,segment_size", [(7, 5), (7, None), (5, 2)])
def test_blocks_match_composed_reference(monkeypatch, n_ops, segment_size, budget):
    monkeypatch.setattr(segment_seq2seq, "_BLOCK_ELEMENTS", budget)
    _assert_matches_composed_reference(make_placer(segment_size, seed=9), n_ops, batch=3)


@pytest.mark.parametrize("n_ops,segment_size", SHAPES)
def test_gradcheck_reps(n_ops, segment_size):
    placer = make_placer(segment_size, seed=2)
    actions = random_actions(3, n_ops)
    r = rng.standard_normal((2, 3, n_ops))

    def f(reps):
        out = placer.run(reps, actions=actions)
        return _loss(out.log_probs, out.entropy, r)

    check_gradient(f, rng.standard_normal((n_ops, IN_DIM)), tol=1e-5)


@pytest.mark.parametrize("n_ops,segment_size", SHAPES)
def test_gradcheck_decoder_parameters(n_ops, segment_size):
    """Every parameter the decoder op reads, against central differences."""
    placer = make_placer(segment_size, seed=3)
    reps = Tensor(rng.standard_normal((n_ops, IN_DIM)))
    actions = random_actions(3, n_ops)
    r = rng.standard_normal((2, 3, n_ops))

    def loss():
        out = placer.run(reps, actions=actions)
        return _loss(out.log_probs, out.entropy, r)

    placer.zero_grad()
    loss().backward()
    eps = 1e-6
    for name, p in placer.named_parameters():
        if name.startswith("encoder."):
            continue  # covered through the reps and the sequence-op tests
        auto = p.grad.copy()
        base = p.data.copy()
        num = np.zeros(base.size)
        for i in range(base.size):
            vals = []
            for sign in (1, -1):
                flat = base.copy().reshape(-1)
                flat[i] += sign * eps
                p.data = flat.reshape(base.shape)
                vals.append(float(loss().data))
            num[i] = (vals[0] - vals[1]) / (2 * eps)
        p.data = base
        err = np.abs(num.reshape(base.shape) - auto).max()
        assert err < 1e-5, (name, err)


def _assert_sample_then_evaluate_bit_identical():
    placer = make_placer(3, seed=4)
    reps = Tensor(rng.standard_normal((7, IN_DIM)))
    for greedy in (0, 1, 4):
        with no_grad():
            sampled = placer.run(reps, n_samples=4, rng=np.random.default_rng(5), greedy=greedy)
        scored = placer.run(reps, actions=sampled.actions)
        assert scored.log_probs.requires_grad
        assert np.array_equal(sampled.log_probs.data, scored.log_probs.data)
        assert np.array_equal(sampled.entropy.data, scored.entropy.data)


def test_sample_then_evaluate_log_probs_bit_identical():
    """A sampled rollout, scored at the same parameters, gives the same
    bits: a stacked attention call or head matmul rounds each step as the
    sampling loop's one-step call does."""
    _assert_sample_then_evaluate_bit_identical()


@pytest.mark.parametrize("budget", [1, 48])
def test_sample_then_evaluate_bit_identical_small_blocks(monkeypatch, budget):
    """The same bits when the block budget splits a segment's scoring
    into several attention calls, down to one step per call."""
    monkeypatch.setattr(segment_seq2seq, "_BLOCK_ELEMENTS", budget)
    _assert_sample_then_evaluate_bit_identical()


def test_sampling_with_grad_matches_no_grad():
    """Sampling builds no decoder tape with grad enabled either: its
    outputs need no gradient, and its choices and values have the bits
    of sampling under ``no_grad``."""
    placer = make_placer(2, seed=6)
    reps = Tensor(rng.standard_normal((5, IN_DIM)))
    with no_grad():
        a = placer.run(reps, n_samples=3, rng=np.random.default_rng(8))
    b = placer.run(reps, n_samples=3, rng=np.random.default_rng(8))
    assert not (b.log_probs.requires_grad or b.entropy.requires_grad)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.log_probs.data, b.log_probs.data)
    assert np.array_equal(a.entropy.data, b.entropy.data)


@pytest.mark.parametrize("bad", [-1, N_DEV, N_DEV + 1])
def test_out_of_range_actions_rejected(bad):
    """Device ``N_DEV`` is the decoder's ``<start>`` embedding row: an
    unchecked loop would feed it back silently."""
    placer = make_placer(2)
    actions = np.zeros((2, 5), dtype=np.int64)
    actions[1, 3] = bad
    with pytest.raises(ValueError, match="device indices"):
        placer.run(Tensor(rng.standard_normal((5, IN_DIM))), actions=actions)
