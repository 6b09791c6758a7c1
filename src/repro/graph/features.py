"""Node feature extraction (paper Section 3.1).

Each operation is featurized as:

* a one-hot encoding of its op type,
* its output shape and (first) input shape, zero-padded to a fixed rank and
  normalized by the largest dimension size found in the graph,
* optionally, log-scaled cost attributes (FLOPs, parameter bytes,
  activation bytes) and normalized degrees — these are not in the paper's
  minimal description but are cheap, deterministic features that all
  encoder-placer systems (GDP, Placeto) include; they can be disabled.

A shared :class:`OpTypeVocabulary` makes feature spaces compatible across
workloads, which the generalization experiments (Table 3) require.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import CompGraph

#: Canonical op types emitted by the built-in workload generators. Keeping a
#: global list (instead of fitting per graph) keeps feature dims identical
#: across workloads so one agent can be fine-tuned on another workload.
CANONICAL_OP_TYPES: Tuple[str, ...] = (
    "Input",
    "Variable",
    "Conv2D",
    "DepthwiseConv2D",
    "MaxPool",
    "AvgPool",
    "BatchNorm",
    "ReLU",
    "Concat",
    "MatMul",
    "BiasAdd",
    "Softmax",
    "Embedding",
    "LSTMCell",
    "Attention",
    "LayerNorm",
    "GeLU",
    "Tanh",
    "Add",
    "Mul",
    "Reshape",
    "Transpose",
    "Split",
    "Reduce",
    "Dropout",
    "CrossEntropy",
    "ApplyGradient",
    "Identity",
)

SHAPE_RANK = 4  # shapes are padded/truncated to this many dims


class OpTypeVocabulary:
    """Mapping op-type string -> one-hot index, with an <UNK> bucket."""

    def __init__(self, types: Sequence[str] = CANONICAL_OP_TYPES):
        self._types: List[str] = list(dict.fromkeys(types))
        self._index = {t: i for i, t in enumerate(self._types)}

    @classmethod
    def from_graphs(cls, graphs: Iterable[CompGraph]) -> "OpTypeVocabulary":
        seen: List[str] = []
        for g in graphs:
            for node in g.nodes:
                if node.op_type not in seen:
                    seen.append(node.op_type)
        return cls(seen)

    def __len__(self) -> int:
        return len(self._types) + 1  # +1 for <UNK>

    @property
    def unk_index(self) -> int:
        return len(self._types)

    def index(self, op_type: str) -> int:
        return self._index.get(op_type, self.unk_index)

    def one_hot(self, op_type: str) -> np.ndarray:
        vec = np.zeros(len(self))
        vec[self.index(op_type)] = 1.0
        return vec


class FeatureExtractor:
    """Builds the node-feature matrix ``X`` for a :class:`CompGraph`."""

    def __init__(
        self,
        vocab: Optional[OpTypeVocabulary] = None,
        include_costs: bool = True,
        include_degrees: bool = True,
    ):
        self.vocab = vocab or OpTypeVocabulary()
        self.include_costs = include_costs
        self.include_degrees = include_degrees

    @property
    def dim(self) -> int:
        d = len(self.vocab) + 2 * SHAPE_RANK
        if self.include_costs:
            d += 3
        if self.include_degrees:
            d += 2
        return d

    def __call__(self, graph: CompGraph) -> np.ndarray:
        return self.features(graph)

    def features(self, graph: CompGraph) -> np.ndarray:
        """Feature matrix of shape ``(num_nodes, dim)``."""
        n = graph.num_nodes
        if n == 0:
            return np.zeros((0, self.dim))
        nodes = graph.nodes
        preds = [graph.predecessors(i) for i in range(n)]

        # Largest dimension across all op outputs — the paper's shape
        # normalizer — guarded to at least 1.
        max_dim = max(
            [1.0] + [float(max(node.output_shape)) for node in nodes if node.output_shape]
        )
        # Output shapes, keeping the last SHAPE_RANK dims, zero-padded.
        shapes = np.zeros((n, SHAPE_RANK))
        for i, node in enumerate(nodes):
            trimmed = node.output_shape[-SHAPE_RANK:]
            shapes[i, : len(trimmed)] = trimmed
        shapes /= max_dim
        # Each op's input shape is its first producer's output shape.
        first_pred = np.array([p[0] if p else -1 for p in preds])

        x = np.zeros((n, self.dim))
        type_width = len(self.vocab)
        x[np.arange(n), [self.vocab.index(node.op_type) for node in nodes]] = 1.0
        col = type_width
        x[:, col : col + SHAPE_RANK] = shapes
        col += SHAPE_RANK
        has_input = first_pred >= 0
        x[has_input, col : col + SHAPE_RANK] = shapes[first_pred[has_input]]
        col += SHAPE_RANK
        if self.include_costs:
            costs = np.array(
                [(node.flops, node.param_bytes, node.activation_bytes) for node in nodes],
                dtype=float,
            )
            x[:, col : col + 3] = np.log1p(costs) / 40.0
            col += 3
        if self.include_degrees:
            x[:, col] = np.array([len(p) for p in preds]) / 8.0
            x[:, col + 1] = np.array([len(graph.successors(i)) for i in range(n)]) / 8.0
        return x
