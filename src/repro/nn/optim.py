"""Optimizers and gradient utilities."""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.nn.module import Parameter


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so the global L2 norm is at most ``max_norm``.

    Returns the norm before clipping (as reported by torch's helper).
    The paper uses a 1.0-norm clip with Adam (Section 4.2).
    """
    params = [p for p in params if p.grad is not None]
    if not params:
        return 0.0
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for p in params:
            p.grad *= scale
    return total


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, params: Iterable[Parameter]):
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba). Paper setting: lr=3e-4."""

    def __init__(
        self,
        params,
        lr: float = 3e-4,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m, v = self._m[i], self._v[i]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / b1t
            v_hat = v / b2t
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> dict:
        """The moments and step count needed to resume training exactly.

        Hyper-parameters (lr, betas, ...) are *not* included — they come
        from the config the optimizer is rebuilt with.
        """
        return {
            "t": int(self.t),
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: dict) -> None:
        m, v = state["m"], state["v"]
        if len(m) != len(self.params) or len(v) != len(self.params):
            raise ValueError(
                f"moment count ({len(m)}, {len(v)}) != parameter count {len(self.params)}"
            )
        for i, p in enumerate(self.params):
            if np.shape(m[i]) != p.data.shape or np.shape(v[i]) != p.data.shape:
                raise ValueError(f"moment shape mismatch at parameter {i}")
        self.t = int(state["t"])
        self._m = [np.asarray(x).copy() for x in m]
        self._v = [np.asarray(x).copy() for x in v]
