"""Atomic file writes: parameter archives and JSON documents.

Parameters are stored as flat ``name -> ndarray`` dicts in ``.npz`` files so
that checkpoints are portable and dependency-free. Every write here is
atomic (temp file + ``os.replace``), so a crash mid-save can never leave a
truncated file where a loadable one used to be — the policy registry in
``repro.serve`` hot-reloads checkpoint directories and relies on every
``.npz`` it sees being complete, and the report CLI reads a live run
directory's ``metrics.json`` while the run rewrites it.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict

import numpy as np


def _replace_atomically(path: str, suffix: str, mode: str, write) -> None:
    """Call ``write(fh)`` on a temp file beside ``path``, then move it
    over ``path``; on any failure the temp file goes and ``path`` is
    left as it was."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=suffix)
    try:
        with os.fdopen(fd, mode) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, doc, **dump_kwargs) -> None:
    """Write ``doc`` as JSON to ``path`` so readers never see it half-written.

    ``dump_kwargs`` go to :func:`json.dump` (``indent``, ``default``).
    """
    _replace_atomically(path, ".json.tmp", "w", lambda fh: json.dump(doc, fh, **dump_kwargs))


def save_state_dict(path: str, state: Dict[str, np.ndarray]) -> None:
    """Atomically write a flat state dict to ``path`` (``.npz`` appended
    if missing)."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    final = path if path.endswith(".npz") else path + ".npz"
    _replace_atomically(final, ".npz.tmp", "wb", lambda fh: np.savez(fh, **state))


def load_state_dict(path: str) -> Dict[str, np.ndarray]:
    """Load a flat state dict previously written by :func:`save_state_dict`."""
    if not path.endswith(".npz"):
        path = path + ".npz"
    with np.load(path) as data:
        return {k: data[k] for k in data.files}
