"""Deterministic random-number management.

Every stochastic component in the library accepts either an integer seed or a
``numpy.random.Generator``.  All randomness flows through
:func:`new_rng` so a single top-level seed makes an entire experiment
reproducible.
"""

from __future__ import annotations

from typing import Union

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


def hash_seed(*parts: object) -> int:
    """Stable 63-bit seed derived from arbitrary hashable parts.

    Used to make simulated measurement noise a deterministic function of the
    placement (same placement -> same noisy runtime within a protocol), which
    keeps experiments reproducible without a global mutable RNG.
    """
    import hashlib

    h = hashlib.blake2b(repr(parts).encode("utf-8"), digest_size=8)
    return int.from_bytes(h.digest(), "little") & ((1 << 63) - 1)
