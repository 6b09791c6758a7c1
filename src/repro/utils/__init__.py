"""Shared utilities: RNG management, logging, serialization."""

from repro.utils.rng import new_rng
from repro.utils.logging import get_logger

__all__ = ["new_rng", "get_logger"]
