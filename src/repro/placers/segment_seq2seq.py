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

The tape is segment-level: each segment's encoder is one op that runs
both directions in one time loop (:func:`repro.nn.rnn.lstm_sequence`),
and the decoder over all segments is one op whose forward loops raw
arrays through the shared LSTM-cell and attention helpers and whose
backward is hand-written BPTT.
The loop samples, argmaxes or teacher-forces each choice, so ``sample``
(under ``no_grad``, keeping no caches) and ``evaluate`` run the same code.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import (
    BahdanauAttention,
    BiLSTM,
    Embedding,
    LSTMCell,
    Linear,
    Tensor,
    is_grad_enabled,
)
from repro.nn.attention import attention_step, attention_step_backward
from repro.nn.rnn import lstm_cell, lstm_cell_backward
from repro.nn.tensor import _unbroadcast
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
        B = n_samples
        if actions is not None:
            actions = np.asarray(actions, dtype=np.int64)
            B = actions.shape[0]
            if actions.shape != (B, n_ops):
                raise ValueError(f"actions shape {actions.shape} != ({B}, {n_ops})")
            if actions.size and (actions.min() < 0 or actions.max() >= self.num_devices):
                raise ValueError(f"actions must be device indices in [0, {self.num_devices})")

        mems, state = self._encode(reps)
        logits, chosen = self._decode(mems, state, B, actions, rng, greedy)
        # Score every op in one stacked softmax.
        _, logp, ent = logits_to_choice(logits, None, actions=chosen)
        return PlacerOutput(actions=chosen, log_probs=logp, entropy=ent)

    def _encode(self, reps: Tensor) -> Tuple[List[Tensor], Tuple[Tensor, Tensor]]:
        """The bi-LSTM encoder over every segment: ``(memories, (h0, c0))``.

        The representation sequence is shared across the sample batch, so
        it stays at batch 1 and broadcasting against the batched decoder
        state does the fan-out (gradients sum back correctly). The
        encoder's forward state carries across segments; the first
        segment's final states, merged, seed the decoder.
        """
        n_ops = reps.shape[0]
        seq = reps.reshape(n_ops, 1, self.input_dim)
        mems: List[Tensor] = []
        fwd_state = None
        for seg in self._segments(n_ops):
            mem, (fwd_state, bwd_state) = self.encoder(seq[seg], (fwd_state, None))
            if not mems:
                state = BiLSTM.merge_state((fwd_state, bwd_state))
            mems.append(mem)
        return mems, state

    def _decode(
        self,
        mems: Sequence[Tensor],
        state: Tuple[Tensor, Tensor],
        B: int,
        actions: Optional[np.ndarray],
        rng: Optional[np.random.Generator],
        greedy: bool,
    ) -> Tuple[Tensor, np.ndarray]:
        """The attention decoder over every segment, as one op.

        Each step embeds the previous choice, runs the LSTM cell, attends
        over its segment's memory ``(s,1,H)`` and applies the head; then it
        takes the next choice from ``actions``, by argmax or by sampling.
        The decoder state carries across segments. Returns the logits
        ``(B,N,D)`` as one tape node, and the choices ``(B,N)``.
        """
        H, D = self.hidden_size, self.num_devices
        cell, attn = self.decoder_cell, self.attention
        w_ih, bias, w_hh = cell.w_ih, cell.bias, cell.w_hh
        w_m, w_q, b_q, v = attn.w_memory.weight, attn.w_query.weight, attn.w_query.bias, attn.v
        embed, w_head, b_head = self.action_embed.weight, self.head.weight, self.head.bias
        h0, c0 = state
        parents = (*mems, h0, c0, w_ih, bias, w_hh, w_m, w_q, b_q, v, embed, w_head, b_head)
        keep = is_grad_enabled() and any(p.requires_grad for p in parents)

        w_enc, w_act = w_ih.data[:H], w_ih.data[H:]
        # A contiguous fan-out: a stride-0 view of the batch-1 state would
        # round the recurrent matmul differently.
        h = np.ascontiguousarray(np.broadcast_to(h0.data, (B, H)))
        c = np.ascontiguousarray(np.broadcast_to(c0.data, (B, H)))
        h_init = h
        N = sum(mem.shape[0] for mem in mems)
        logits = np.empty((B, N, D))
        chosen = np.empty((B, N), dtype=np.int64)
        prev = np.full(B, D, dtype=np.int64)  # <start>
        if keep:
            # Step-major records for the backward's folded products.
            prevs = np.empty((N, B), dtype=np.int64)
            acts = np.empty((N, B, embed.shape[1]))
            cats = np.empty((N, B, 2 * H))
            caches = []
        j = 0
        for mem in mems:
            m = mem.data
            # The batch-independent encoded-op part of the decoder input
            # projection, and the attention keys: one matmul each per segment.
            enc_gates = m @ w_enc + bias.data  # (s,1,4H)
            keys = m @ w_m.data  # (s,1,A)
            for t in range(m.shape[0]):
                act = embed.data[prev]  # (B, a)
                h, c, cell_cache = lstm_cell(enc_gates[t] + act @ w_act, h, c, w_hh.data)
                ctx, attn_cache = attention_step(m, keys, h, w_q.data, b_q.data, v.data)
                cat = np.concatenate([h, ctx], axis=1)
                out = cat @ w_head.data + b_head.data  # (B, D)
                logits[:, j] = out
                if keep:
                    prevs[j], acts[j], cats[j] = prev, act, cat
                    caches.append((cell_cache, attn_cache))
                prev = actions[:, j] if actions is not None else _choose(out, rng, greedy)
                chosen[:, j] = prev
                j += 1

        def backward(g: np.ndarray) -> None:
            g = g.transpose(1, 0, 2)  # step-major (N,B,D)
            dcat = g @ w_head.data.T  # (N,B,2H)
            dgates = np.empty((N, B, 4 * H))
            dq = np.empty((N, B, w_q.shape[1]))
            dv = np.zeros_like(v.data)
            dw_enc = np.zeros_like(w_enc)
            dw_m = np.zeros_like(w_m.data)
            dh_prev = dc = None
            j = N
            for mem in reversed(mems):
                m = mem.data
                dmem = np.zeros_like(m)
                d_enc = np.empty((m.shape[0], 1, 4 * H))
                dkeys = np.zeros(m.shape[:2] + (w_m.shape[1],))
                for t in range(m.shape[0] - 1, -1, -1):
                    j -= 1
                    cell_cache, attn_cache = caches[j]
                    dm, dk, dquery, dq[j], dv_t = attention_step_backward(
                        dcat[j, :, H:], attn_cache, m, dkeys.shape, w_q.data, v.data
                    )
                    dmem += dm
                    dkeys += dk
                    dv += dv_t
                    dh = dcat[j, :, :H] + dquery
                    if dh_prev is not None:
                        dh += dh_prev
                    dgates[j], dh_prev, dc = lstm_cell_backward(dh, dc, cell_cache, w_hh.data)
                    d_enc[t] = dgates[j].sum(axis=0)
                dmem += d_enc @ w_enc.T + dkeys @ w_m.data.T
                flat_m = m.reshape(-1, H).T
                dw_enc += flat_m @ d_enc.reshape(-1, 4 * H)
                dw_m += flat_m @ dkeys.reshape(-1, dkeys.shape[-1])
                if mem.requires_grad:
                    mem._accumulate(dmem)
            flat = dgates.reshape(-1, 4 * H)
            queries = cats[:, :, :H]
            if h0.requires_grad:
                h0._accumulate(_unbroadcast(dh_prev, h0.shape))
            if c0.requires_grad:
                c0._accumulate(_unbroadcast(dc, c0.shape))
            if w_ih.requires_grad:
                dw_act = acts.reshape(-1, acts.shape[-1]).T @ flat
                w_ih._accumulate(np.concatenate((dw_enc, dw_act)))
            if bias.requires_grad:
                bias._accumulate(flat.sum(axis=0))
            if w_hh.requires_grad:
                # Step j's previous h is step j-1's; step 0's is the fan-out.
                dw_hh = h_init.T @ dgates[0]
                dw_hh += queries[:-1].reshape(-1, H).T @ dgates[1:].reshape(-1, 4 * H)
                w_hh._accumulate(dw_hh)
            if w_m.requires_grad:
                w_m._accumulate(dw_m)
            if w_q.requires_grad:
                w_q._accumulate(queries.reshape(-1, H).T @ dq.reshape(-1, dq.shape[-1]))
            if b_q.requires_grad:
                b_q._accumulate(dq.sum(axis=(0, 1)))
            if v.requires_grad:
                v._accumulate(dv)
            if embed.requires_grad:
                dembed = np.zeros_like(embed.data)
                np.add.at(dembed, prevs.reshape(-1), flat @ w_act.T)
                embed._accumulate(dembed)
            if w_head.requires_grad:
                w_head._accumulate(cats.reshape(-1, 2 * H).T @ g.reshape(-1, D))
            if b_head.requires_grad:
                b_head._accumulate(g.sum(axis=(0, 1)))

        return Tensor._make(logits, parents, backward), chosen
