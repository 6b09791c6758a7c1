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

Sampling and teacher-forced scoring share the decoder's setup but not
its loop. Sampling needs each step's logits to choose the next step's
input, so it runs the cell, the attention and the head one step at a
time; it keeps no caches and returns its logits as a leaf, since the
agent samples under ``no_grad`` and differentiates only the scoring
pass. Scoring (``evaluate``) knows every choice up front, and the
attention context feeds only the head, never the cell, so only the cell
is sequential: the attention runs over blocks of steps whose
``(C, T, B, A)`` scores stay within ``_BLOCK_ELEMENTS``, and the head
over whole segments. The stacked products round each step as a lone
step's do, so both paths give the same logits bit for bit. The scoring
op's backward runs the attention's gradient per forward call before a
reverse loop that is the cell's alone.
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
from repro.placers.base import (
    Placer,
    PlacerOutput,
    check_greedy,
    logits_to_choice,
    sample_categorical,
)
from repro.utils.rng import new_rng

# The most float64 elements that one block of teacher-forced attention
# steps holds in its (C, T, B, A) scores; a block is at least one step.
_BLOCK_ELEMENTS = 1 << 16


def _choose(logits: np.ndarray, rng: Optional[np.random.Generator], n: int) -> np.ndarray:
    """Device indices from raw per-sample logits: the first ``n`` rows
    sample, the rest take the argmax."""
    choices = np.empty(logits.shape[0], dtype=np.int64)
    choices[n:] = np.argmax(logits[n:], axis=-1)
    if n:
        if rng is None:
            raise ValueError("sampling requires an rng")
        shifted = logits[:n] - logits[:n].max(axis=-1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        choices[:n] = sample_categorical(probs, rng)
    return choices


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
        greedy: int = 0,
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
        n_sampled = check_greedy(greedy, B) if actions is None else 0

        mems, state = self._encode(reps)
        logits, chosen = self._decode(mems, state, B, actions, rng, n_sampled)
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
        n_sampled: int,
    ) -> Tuple[Tensor, np.ndarray]:
        """The attention decoder over every segment.

        Each step embeds the previous choice and runs the LSTM cell; the
        cell's output attends over its segment's memory ``(s,1,H)``, and
        the head maps ``[h, context]`` to the step's logits. The decoder
        state carries across segments. Sampling runs the steps one at a
        time, since each choice needs its step's logits, and returns the
        logits as a leaf; the first ``n_sampled`` rows sample, the rest
        take the argmax. Teacher forcing knows every choice
        up front, and the context feeds only the head, so only the cell is
        sequential: per segment the action projection is one stacked
        matmul, the cell loops alone, the attention runs over blocks of
        steps and the head is one stacked matmul. A stacked product makes
        the same BLAS call per step as a lone step's, so both paths give
        the same bits. Returns the logits ``(B,N,D)``, as one tape node
        when teacher-forced, and the choices ``(B,N)``.
        """
        H, D = self.hidden_size, self.num_devices
        cell, attn = self.decoder_cell, self.attention
        w_ih, bias, w_hh = cell.w_ih, cell.bias, cell.w_hh
        w_m, w_q, b_q, v = attn.w_memory.weight, attn.w_query.weight, attn.w_query.bias, attn.v
        embed, w_head, b_head = self.action_embed.weight, self.head.weight, self.head.bias
        h0, c0 = state
        parents = (*mems, h0, c0, w_ih, bias, w_hh, w_m, w_q, b_q, v, embed, w_head, b_head)
        keep = (
            actions is not None
            and is_grad_enabled()
            and any(p.requires_grad for p in parents)
        )

        A = w_m.shape[1]
        w_enc, w_act = w_ih.data[:H], w_ih.data[H:]
        # A contiguous fan-out: a stride-0 view of the batch-1 state would
        # round the recurrent matmul differently.
        h = np.ascontiguousarray(np.broadcast_to(h0.data, (B, H)))
        c = np.ascontiguousarray(np.broadcast_to(c0.data, (B, H)))
        h_init = h
        N = sum(mem.shape[0] for mem in mems)
        logits = np.empty((B, N, D))
        start = np.full((1, B), D, dtype=np.int64)  # <start>
        prev = start[0]
        if actions is None:
            chosen = np.empty((B, N), dtype=np.int64)
        else:
            chosen = actions.copy()
            # Step-major previous choices: <start>, then each step's choice.
            prevs = np.concatenate((start, actions.T[:-1]))
        if keep:
            # Step-major [h, context] rows (the head's input), each
            # segment's tiled keys, every cell step's gate activations (the
            # backward overwrites each step's row with its gate gradients),
            # and the caches: one per cell step, one per attention call.
            cats = np.empty((N, B, 2 * H))
            slab = np.empty((N, B, 4 * H))
            seg_keys, cell_caches, attn_calls = [], [], []
        j = 0
        for k, mem in enumerate(mems):
            m = mem.data
            T = m.shape[0]
            # The batch-independent encoded-op part of the decoder input
            # projection, and the attention keys: one matmul each per
            # segment. The keys are tiled to the batch once, so no score's
            # add broadcasts.
            enc_gates = m @ w_enc + bias.data  # (T,1,4H)
            keys = np.ascontiguousarray(np.broadcast_to(m @ w_m.data, (T, B, A)))
            if keep:
                seg_keys.append(keys)
            if actions is None:
                for t in range(T):
                    act = embed.data[prev]  # (B, a)
                    gx = enc_gates[t] + act @ w_act
                    h, c, _ = lstm_cell(gx, h, c, w_hh.data)
                    ctx, _ = attention_step(m, keys, h[None], w_q.data, b_q.data, v.data)
                    cat = np.concatenate([h, ctx[0]], axis=1)
                    out = cat @ w_head.data + b_head.data  # (B, D)
                    logits[:, j] = out
                    prev = _choose(out, rng, n_sampled)
                    chosen[:, j] = prev
                    j += 1
                continue
            gates_x = embed.data[prevs[j : j + T]] @ w_act  # (T,B,4H)
            gates_x += enc_gates
            hs = np.empty((T, B, H))
            for t in range(T):
                acts = slab[j + t] if keep else None
                h, c, cell_cache = lstm_cell(gates_x[t], h, c, w_hh.data, acts)
                hs[t] = h
                if keep:
                    cell_caches.append(cell_cache)
            seg_cats = cats[j : j + T] if keep else np.empty((T, B, 2 * H))
            seg_cats[:, :, :H] = hs
            # Blocks of steps whose (C,T,B,A) scores stay within the budget.
            C = max(1, _BLOCK_ELEMENTS // keys.size)
            for lo in range(0, T, C):
                hi = min(lo + C, T)
                ctx, attn_cache = attention_step(m, keys, hs[lo:hi], w_q.data, b_q.data, v.data)
                seg_cats[lo:hi, :, H:] = ctx
                if keep:
                    attn_calls.append((j + lo, j + hi, k, attn_cache))
            logits[:, j : j + T] = (seg_cats @ w_head.data + b_head.data).transpose(1, 0, 2)
            j += T
        if actions is None:
            return Tensor(logits), chosen

        def backward(g: np.ndarray) -> None:
            g = np.ascontiguousarray(g.transpose(1, 0, 2))  # step-major (N,B,D)
            dcat = (g.reshape(-1, D) @ w_head.data.T).reshape(N, B, 2 * H)
            # The context feeds only the head, so every step's context
            # gradient is known here: the attention's backward runs per
            # forward call, and the reverse loop below is the cell's alone.
            # Each attention call's and cell step's cache is dropped once
            # consumed, so the tape shrinks as this walk proceeds. The h
            # gradients gather in place, in dcat's first half.
            dh = dcat[:, :, :H]
            dq = np.empty((N, B, A))
            dv = np.zeros_like(v.data)
            dmems = [np.zeros_like(mem.data) for mem in mems]
            dkeys = [np.zeros_like(keys) for keys in seg_keys]
            attn_calls.reverse()  # popped in forward order, as summed before
            while attn_calls:
                lo, hi, k, cache = attn_calls.pop()
                dm, dk, dquery, dq[lo:hi], dv_call = attention_step_backward(
                    dcat[lo:hi, :, H:], cache, mems[k].data, seg_keys[k], w_q.data, v.data
                )
                dmems[k] += dm
                dkeys[k] += dk
                dv += dv_call
                dh[lo:hi] += dquery
            # Step j's gate gradients are written over its activations in
            # the slab, which its backward reads before it writes.
            dgates = slab
            dh_prev = dc = None
            for j in range(N - 1, -1, -1):
                dh_j = dh[j] if dh_prev is None else dh[j] + dh_prev
                _, dh_prev, dc = lstm_cell_backward(
                    dh_j, dc, cell_caches.pop(), w_hh.data, out=dgates[j]
                )
            dw_enc = np.zeros_like(w_enc)
            dw_m = np.zeros_like(w_m.data)
            j = 0
            for mem, dmem, dk in zip(mems, dmems, dkeys):
                m = mem.data
                d_enc = dgates[j : j + m.shape[0]].sum(axis=1)  # (T,4H)
                dk = dk.sum(axis=1)  # (T,A): the tiled keys' batch
                dmem[:, 0] += d_enc @ w_enc.T + dk @ w_m.data.T
                flat_m = m.reshape(-1, H).T
                dw_enc += flat_m @ d_enc
                dw_m += flat_m @ dk
                if mem.requires_grad:
                    mem._accumulate(dmem)
                j += m.shape[0]
            flat = dgates.reshape(-1, 4 * H)
            queries = cats[:, :, :H]
            # The gate gradients summed per previous choice: the action
            # embedding's and w_act's gradients both contract through them.
            onehot = np.zeros((N * B, D + 1))
            onehot[np.arange(N * B), prevs.reshape(-1)] = 1.0
            by_prev = onehot.T @ flat  # (D+1, 4H)
            if h0.requires_grad:
                h0._accumulate(_unbroadcast(dh_prev, h0.shape))
            if c0.requires_grad:
                c0._accumulate(_unbroadcast(dc, c0.shape))
            if w_ih.requires_grad:
                w_ih._accumulate(np.concatenate((dw_enc, embed.data.T @ by_prev)))
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
                w_q._accumulate(queries.reshape(-1, H).T @ dq.reshape(-1, A))
            if b_q.requires_grad:
                b_q._accumulate(dq.sum(axis=(0, 1)))
            if v.requires_grad:
                v._accumulate(dv)
            if embed.requires_grad:
                embed._accumulate(by_prev @ w_act.T)
            if w_head.requires_grad:
                w_head._accumulate(cats.reshape(-1, 2 * H).T @ g.reshape(-1, D))
            if b_head.requires_grad:
                b_head._accumulate(g.sum(axis=(0, 1)))

        return Tensor._make(logits, parents, backward), chosen
