"""Static placement baselines (paper Section 4.1).

* **GPU Only** — every GPU-compatible op on one GPU (valid only for models
  that fit, e.g. Inception-V3).
* **Human Expert** — the hand-crafted placements of Google's reference
  implementations: single-GPU for the vision models (TF-Slim), per-layer
  round-robin for GNMT (Google NMT), and no model parallelism for BERT
  (which therefore OOMs, as in the paper's Table 2).
* **Balanced chain** — contiguous topological chunks balanced by compute
  time, one per GPU: a non-learned heuristic for comparison.
"""

from __future__ import annotations

import re
from typing import Optional

import numpy as np

from repro.graph import CompGraph
from repro.sim.cluster import ClusterSpec
from repro.sim.costmodel import CostModel
from repro.sim.placement import Placement, resolve_placement


def gpu_only_placement(graph: CompGraph, cluster: ClusterSpec, gpu: int = 0) -> Placement:
    """All GPU-compatible ops on ``cluster.gpu_indices[gpu]``."""
    device = cluster.gpu_indices[gpu]
    return resolve_placement(np.full(graph.num_nodes, device), graph, cluster)


_LAYER_RE = re.compile(r"(?:^|/)(?:enc|dec)/l(\d+)/")


def human_expert_placement(graph: CompGraph, cluster: ClusterSpec) -> Placement:
    """Reproduce the hand-crafted expert placement for each workload family.

    The family is inferred from the graph's op names:

    * RNN seq2seq graphs (``enc/l{i}``/``dec/l{i}`` ops): LSTM layer ``i``
      goes to GPU ``i % num_gpus``; embeddings stay with the first layer's
      device; the softmax/projection goes to the last GPU — Google's NMT
      round-robin scheme.
    * Transformer graphs (``layer{i}`` ops): no model-parallel reference
      implementation exists (the paper notes BERT "does not support
      multi-GPU training using model parallelism by default"), so the
      expert placement is single-GPU — OOM for BERT, exactly as reported.
    * Everything else (vision models): single GPU (TF-Slim).
    """
    gpus = cluster.gpu_indices
    names = [n.name for n in graph.nodes]
    is_rnn = any(_LAYER_RE.search(name) for name in names)
    if not is_rnn:
        return gpu_only_placement(graph, cluster)

    actions = np.full(graph.num_nodes, gpus[0])
    for i, name in enumerate(names):
        m = _LAYER_RE.search(name)
        if m:
            actions[i] = gpus[int(m.group(1)) % len(gpus)]
        elif name.startswith("proj/") or name.startswith("loss/"):
            actions[i] = gpus[-1]
        elif "embedding" in name:
            actions[i] = gpus[0]
        elif name.startswith("dec/attn"):
            actions[i] = gpus[0]  # attention lives with decoder layer 0
    return resolve_placement(actions, graph, cluster)


def balanced_chain_placement(graph: CompGraph, cluster: ClusterSpec, k: Optional[int] = None) -> Placement:
    """Contiguous topological chunks balanced by per-op compute time.

    A strong non-learned heuristic: split the topological order into ``k``
    contiguous ranges with (approximately) equal total best-device compute
    time and map range ``j`` to GPU ``j``.
    """
    gpus = cluster.gpu_indices
    k = k or len(gpus)
    k = min(k, len(gpus))
    if graph.num_nodes == 0:
        return resolve_placement(np.empty(0, dtype=np.int64), graph, cluster)
    if k <= 1:
        return resolve_placement(np.full(graph.num_nodes, gpus[0]), graph, cluster)
    cost = CostModel().op_time_matrix(graph, cluster).min(axis=1)
    order = np.asarray(graph.topological_order())
    cum = np.cumsum(cost[order])
    bounds = np.searchsorted(cum, np.linspace(0, cum[-1], k + 1)[1:-1])
    chunk_of_position = np.zeros(graph.num_nodes, dtype=np.int64)
    for j, b in enumerate(bounds):
        chunk_of_position[b:] = j + 1
    actions = np.empty(graph.num_nodes, dtype=np.int64)
    for position, op in enumerate(order):
        actions[op] = gpus[chunk_of_position[position]]
    return resolve_placement(actions, graph, cluster)
