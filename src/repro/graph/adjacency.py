"""Adjacency matrices for GCN layers (paper Eq. 1).

The GCN propagation uses the symmetric normalization
``D̂^{-1/2} (A + I) D̂^{-1/2}`` where ``A`` is treated as *undirected*: the
dependency direction matters to the scheduler but for representation
learning information should flow both ways along data-flow edges (this is
what DGI and GDP do as well).

Both matrices are built as CSR arrays directly from the sorted nonzero
positions, with none of SciPy's per-operation overhead: binding a graph
to a served policy builds one on every never-seen graph.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.graph import CompGraph


def _nonzeros(graph: CompGraph, undirected: bool, self_loops: bool):
    """The ``(rows, cols)`` of the adjacency's nonzeros in CSR order."""
    n = graph.num_nodes
    edges = np.array(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
    u, v = edges[:, 0], edges[:, 1]
    keys = [u * n + v]
    if undirected:
        keys.append(v * n + u)
    if self_loops:
        keys.append(np.arange(n, dtype=np.int64) * (n + 1))
    # Sorted unique row-major keys: duplicate entries from bidirectional
    # pairs collapse, and each row's columns come out sorted.
    return np.divmod(np.unique(np.concatenate(keys)), n)


def _csr(rows: np.ndarray, cols: np.ndarray, data: np.ndarray, n: int) -> sp.csr_matrix:
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sp.csr_matrix((data, cols.astype(np.int32), indptr), shape=(n, n))


def adjacency_matrix(graph: CompGraph, undirected: bool = True) -> sp.csr_matrix:
    """Binary adjacency of ``graph`` as CSR (no self-loops)."""
    rows, cols = _nonzeros(graph, undirected, self_loops=False)
    return _csr(rows, cols, np.ones(len(rows)), graph.num_nodes)


def normalized_adjacency(graph: CompGraph, undirected: bool = True) -> sp.csr_matrix:
    """``D̂^{-1/2} (A + I) D̂^{-1/2}`` as CSR, ready for the GCN layers."""
    n = graph.num_nodes
    # A graph has no self-loops, so every entry of A + I is 1 and a row's
    # degree is its entry count.
    rows, cols = _nonzeros(graph, undirected, self_loops=True)
    inv_sqrt = 1.0 / np.sqrt(np.bincount(rows, minlength=n))
    return _csr(rows, cols, inv_sqrt[rows] * inv_sqrt[cols], n)
