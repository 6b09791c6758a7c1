"""Shared utilities: RNG management, logging, serialization."""

from repro.utils.rng import RngMixin, new_rng, spawn_rng
from repro.utils.logging import get_logger

__all__ = ["RngMixin", "new_rng", "spawn_rng", "get_logger"]
