"""The segment-level sequence-to-sequence placer (paper Section 3.3, Fig. 6).

The op sequence is split into segments of length ``segment_size``. Each
segment is encoded by a bidirectional LSTM; a unidirectional LSTM decoder
with context-based input attention (over the current segment's memory)
emits a device for every op, feeding back an embedding of the previous
device choice. When moving to the next segment, both the encoder's forward
state and the decoder state carry over — "the placer recalls previous
decisions when predicting the placement of the next segment".

With ``segment_size=None`` the whole sequence is one segment, which is
exactly the *plain* seq2seq placer of the comparison in Table 1.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn import BahdanauAttention, BiLSTM, Embedding, LSTMCell, Linear, Tensor, concat, stack
from repro.placers.base import Placer, PlacerOutput, logits_to_choice, sample_categorical
from repro.utils.rng import new_rng


def _choose(logits: np.ndarray, rng: Optional[np.random.Generator], greedy: bool) -> np.ndarray:
    """Sample (or argmax) device indices from raw per-sample logits."""
    if greedy:
        return np.argmax(logits, axis=-1).astype(np.int64)
    if rng is None:
        raise ValueError("sampling requires an rng")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=-1, keepdims=True)
    return sample_categorical(probs, rng)


class SegmentSeq2SeqPlacer(Placer):
    """Mars's placer: bi-LSTM encoder + attention LSTM decoder, per segment."""

    def __init__(
        self,
        input_dim: int,
        num_devices: int,
        hidden_size: int = 512,
        segment_size: Optional[int] = 128,
        attn_size: Optional[int] = None,
        action_embed_dim: int = 32,
        rng=None,
    ):
        super().__init__()
        rng = new_rng(rng)
        if segment_size is not None and segment_size < 1:
            raise ValueError("segment_size must be positive or None")
        self.input_dim = input_dim
        self.num_devices = num_devices
        self.hidden_size = hidden_size
        self.segment_size = segment_size
        attn_size = attn_size or hidden_size // 2

        self.encoder = BiLSTM(input_dim, hidden_size, rng=rng)
        self.decoder_cell = LSTMCell(hidden_size + action_embed_dim, hidden_size, rng=rng)
        self.attention = BahdanauAttention(hidden_size, hidden_size, attn_size, rng=rng)
        # <start> token is index ``num_devices``.
        self.action_embed = Embedding(num_devices + 1, action_embed_dim, rng=rng)
        self.head = Linear(2 * hidden_size, num_devices, rng=rng)

    # ------------------------------------------------------------------
    def _segments(self, n_ops: int) -> List[slice]:
        size = self.segment_size or n_ops
        return [slice(lo, min(lo + size, n_ops)) for lo in range(0, n_ops, size)]

    def run(
        self,
        reps: Tensor,
        n_samples: int = 1,
        actions: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
        greedy: bool = False,
    ) -> PlacerOutput:
        n_ops = reps.shape[0]
        B = n_samples if actions is None else actions.shape[0]
        if actions is not None and actions.shape != (B, n_ops):
            raise ValueError(f"actions shape {actions.shape} != ({B}, {n_ops})")

        # The representation sequence is shared across the sample batch;
        # keep it at batch 1 and let broadcasting against the batched
        # decoder state do the fan-out (gradients sum back correctly).
        seq = reps.reshape(n_ops, 1, self.input_dim)

        enc_fwd_state = None  # carried across segments
        dec_state = None
        prev_action = np.full(B, self.num_devices, dtype=np.int64)  # <start>

        all_actions: List[np.ndarray] = []
        all_logits: List[Tensor] = []

        for seg in self._segments(n_ops):
            mem, (enc_fwd_state, enc_bwd_state) = self.encoder(
                seq[seg], (enc_fwd_state, None)
            )
            if dec_state is None:
                h0, c0 = BiLSTM.merge_state((enc_fwd_state, enc_bwd_state))
                dec_state = (
                    h0.broadcast_to((B, self.hidden_size)),
                    c0.broadcast_to((B, self.hidden_size)),
                )
            # Precompute the (batch-independent) encoded-op part of the
            # decoder input projection: one fused matmul per segment.
            w = self.decoder_cell.w_ih
            enc_gates = mem @ w[: self.hidden_size] + self.decoder_cell.bias  # (s,1,4H)
            w_act = w[self.hidden_size :]
            keys = self.attention.project_memory(mem)  # once per segment

            for t in range(seg.stop - seg.start):
                act_emb = self.action_embed(prev_action)  # (B, a)
                gates_x = enc_gates[t] + act_emb @ w_act  # (B, 4H) via broadcast
                dec_state = self.decoder_cell.step(gates_x, dec_state)
                h = dec_state[0]
                ctx = self.attention(mem, h, keys=keys)  # (B, H)
                logits = self.head(concat([h, ctx], axis=1))  # (B, D)
                all_logits.append(logits)
                if actions is None:
                    choice = _choose(logits.data, rng, greedy)
                else:
                    choice = actions[:, seg.start + t]
                all_actions.append(choice)
                prev_action = choice

        chosen = np.stack(all_actions, axis=1)
        # Score every op in one stacked softmax (cheaper than per-step).
        logits_all = stack(all_logits, axis=1)  # (B, N, D)
        _, logp, ent = logits_to_choice(logits_all, None, actions=chosen)
        return PlacerOutput(actions=chosen, log_probs=logp, entropy=ent)
