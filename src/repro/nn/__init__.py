"""A from-scratch reverse-mode autodiff framework on NumPy.

Implements exactly the neural building blocks the agents run: dense
layers, the bidirectional LSTM sequence op, the parameters of the LSTM
cell and additive attention whose raw-array kernels the segment placer's
decoder runs, Transformer-XL, GraphSAGE support (via sparse matmul in
:mod:`repro.nn.functional`), Adam, and gradient clipping.
"""

from repro.nn.tensor import (
    Tensor,
    as_tensor,
    concat,
    stack,
    maximum,
    minimum,
    no_grad,
    is_grad_enabled,
)
from repro.nn.module import Module, Parameter
from repro.nn.linear import Linear, MLP
from repro.nn.activations import PReLU, apply_activation
from repro.nn.rnn import LSTMCell, LSTM, BiLSTM
from repro.nn.attention import BahdanauAttention
from repro.nn.embedding import Embedding
from repro.nn.norm import LayerNorm
from repro.nn.transformer_xl import TransformerXL, TransformerXLLayer
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn import functional

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "concat",
    "stack",
    "maximum",
    "minimum",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "PReLU",
    "apply_activation",
    "LSTMCell",
    "LSTM",
    "BiLSTM",
    "BahdanauAttention",
    "Embedding",
    "LayerNorm",
    "TransformerXL",
    "TransformerXLLayer",
    "Adam",
    "clip_grad_norm",
    "functional",
]
