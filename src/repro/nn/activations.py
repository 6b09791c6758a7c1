"""Activation functions, including the learnable PReLU used by the encoder."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class PReLU(Module):
    """Parametric ReLU (He et al., 2015): ``max(0, x) + a * min(0, x)``.

    ``a`` is a learnable per-module scalar, initialized to 0.25 as in the
    original paper. Mars uses PReLU after each GCN layer (Eq. 1). The
    module holds the slope; the fused GCN layer op
    (:mod:`repro.gnn.gcn`) applies it.
    """

    def __init__(self, init_slope: float = 0.25):
        super().__init__()
        self.slope = Parameter(np.asarray(init_slope))


def apply_activation(x: Tensor, name: str) -> Tensor:
    """Apply a (non-learnable) activation by name."""
    if name == "relu":
        return x.relu()
    if name == "tanh":
        return x.tanh()
    if name == "sigmoid":
        return x.sigmoid()
    if name == "identity":
        return x
    raise ValueError(f"unknown activation {name!r}")
