"""Deterministic random-number management.

Every stochastic component in the library accepts either an integer seed or a
``numpy.random.Generator``.  All randomness flows through
:func:`new_rng`/:func:`spawn_rng` so a single top-level seed makes an entire
experiment reproducible.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def new_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``Generator``.

    ``None`` gives fresh OS entropy, an ``int`` gives a seeded generator and
    an existing ``Generator`` is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rng(rng: np.random.Generator, n: int = 1) -> list:
    """Derive ``n`` statistically independent child generators from ``rng``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(n)]


def hash_seed(*parts: object) -> int:
    """Stable 63-bit seed derived from arbitrary hashable parts.

    Used to make simulated measurement noise a deterministic function of the
    placement (same placement -> same noisy runtime within a protocol), which
    keeps experiments reproducible without a global mutable RNG.
    """
    import hashlib

    h = hashlib.blake2b(repr(parts).encode("utf-8"), digest_size=8)
    return int.from_bytes(h.digest(), "little") & ((1 << 63) - 1)


class RngMixin:
    """Mixin giving a class a lazily constructed private generator."""

    _rng: Optional[np.random.Generator] = None

    def init_rng(self, seed: SeedLike = None) -> None:
        self._rng = new_rng(seed)

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = new_rng(None)
        return self._rng
