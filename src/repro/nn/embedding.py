"""Embedding table."""

from __future__ import annotations

from repro.nn.module import Module, Parameter
from repro.utils.rng import new_rng


class Embedding(Module):
    """Lookup table ``(num_embeddings, dim)``. The module holds the table;
    the segment placer's fused decoder kernels read its rows directly."""

    def __init__(self, num_embeddings: int, dim: int, rng=None, scale: float = 0.1):
        super().__init__()
        rng = new_rng(rng)
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(rng.uniform(-scale, scale, size=(num_embeddings, dim)))
