"""Adjacency matrices for GCN layers (paper Eq. 1).

The GCN propagation uses the symmetric normalization
``D̂^{-1/2} (A + I) D̂^{-1/2}`` where ``A`` is treated as *undirected*: the
dependency direction matters to the scheduler but for representation
learning information should flow both ways along data-flow edges (this is
what DGI and GDP do as well).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.graph import CompGraph


def adjacency_matrix(graph: CompGraph, undirected: bool = True) -> sp.csr_matrix:
    """Binary adjacency of ``graph`` as CSR (no self-loops)."""
    n = graph.num_nodes
    rows, cols = [], []
    for u, v in graph.edges():
        rows.append(u)
        cols.append(v)
        if undirected:
            rows.append(v)
            cols.append(u)
    data = np.ones(len(rows))
    mat = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    mat.data[:] = 1.0  # collapse duplicate entries from bidirectional pairs
    return mat


def normalized_adjacency(graph: CompGraph, undirected: bool = True) -> sp.csr_matrix:
    """``D̂^{-1/2} (A + I) D̂^{-1/2}`` as CSR, ready for the GCN layers."""
    a = adjacency_matrix(graph, undirected=undirected)
    a_hat = a + sp.identity(graph.num_nodes, format="csr")
    degrees = np.asarray(a_hat.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(degrees)
    d = sp.diags(inv_sqrt)
    return (d @ a_hat @ d).tocsr()
