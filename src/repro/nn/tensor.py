"""Reverse-mode automatic differentiation over NumPy arrays.

This is the computational core of the agent: a tape-based autodiff engine in
the style of micrograd/PyTorch, but vectorized — every node holds a full
``ndarray`` and gradients are propagated with NumPy kernels, so the Python
interpreter overhead is amortized over large array operations (see the
"vectorizing for loops" guidance in the scientific-Python optimization
notes).

Only the features required by the Mars agent are implemented, but they are
implemented completely: broadcasting-aware binary ops, matmul (2-D and
batched), reductions with axis/keepdims, indexing/slicing/gather, shape
manipulation, and the nonlinearities used by the encoder and placers.

Every tensor takes a creation sequence number. A node's parents exist
before it does, so creation order is a topological order of the tape:
:meth:`Tensor.backward` collects the nodes reachable from its root and
runs their backward closures in reverse creation order.

A graph is single-use. As the walk passes a node it drops the node's
closure and parent links, so the arrays the closure captured (an LSTM
step's activations, attention weights) are freed during the walk, not
after it. A second ``backward()`` over a consumed graph raises
``RuntimeError``; gradients already accumulated, on parameters and on
non-leaf nodes alike, stay readable.
"""

from __future__ import annotations

import itertools
import threading
from operator import attrgetter
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, "Tensor"]

_DEFAULT_DTYPE = np.float64


class _GradMode(threading.local):
    """Per-thread grad mode: every thread starts with tape construction on,
    so a ``no_grad`` in one thread never changes what another records."""

    enabled = True


_grad_mode = _GradMode()

# Creation sequence numbers. Only a counter is global: the tape itself is
# the graph of ``_parents`` links, alive exactly as long as its nodes.
_next_seq = itertools.count().__next__
_by_seq = attrgetter("_seq")


class no_grad:
    """Context manager disabling tape construction.

    Inside the context every op produces a detached tensor — used for
    action sampling in RL rollouts, where gradients are recomputed later by
    teacher-forcing the stored actions. The flag is per thread: concurrent
    serve workers each enter and exit their own.
    """

    def __enter__(self) -> "no_grad":
        self._prev = _grad_mode.enabled
        _grad_mode.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _grad_mode.enabled = self._prev


def is_grad_enabled() -> bool:
    return _grad_mode.enabled


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def stable_sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Logistic function without overflow, into ``out`` when given.

    ``1 / (1 + exp(-x))`` where ``x >= 0`` and ``exp(x) / (1 + exp(x))``
    elsewhere: both branches share ``z = exp(-|x|)`` and the denominator
    ``1 + z``, so the value is one elementwise select and one divide,
    without masked gathers and scatters.
    """
    z = np.abs(x)
    np.negative(z, out=z)
    np.exp(z, out=z)
    return np.divide(np.where(x >= 0, 1.0, z), 1.0 + z, out=out)


class Tensor:
    """A node in the autodiff tape.

    Attributes
    ----------
    data:
        The value, always an ``ndarray`` of float64.
    grad:
        Accumulated gradient, allocated lazily during :meth:`backward`.
    requires_grad:
        Whether gradients should flow to this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_seq")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
    ):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: Tuple[Tensor, ...] = tuple(_parents)
        self._backward = _backward
        self._seq = _next_seq()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Autodiff machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=_DEFAULT_DTYPE, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor through the tape."""
        if grad is None:
            if self.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"output, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=_DEFAULT_DTYPE)
        if grad.shape != self.shape:
            raise ValueError(f"gradient shape {grad.shape} != tensor shape {self.shape}")

        order = _reachable_ops(self)
        if any(node._backward is _spent for node in order):
            raise RuntimeError(_SPENT)
        order.sort(key=_by_seq)
        self._accumulate(grad)
        # Pop in reverse creation order. Each node drops its closure and
        # parent links once it has run, so the caches it captured, and the
        # nodes only it still referenced, are freed as the walk passes them.
        while order:
            node = order.pop()
            if node.grad is not None:
                node._backward(node.grad)
            node._backward = _spent
            node._parents = ()

    # ------------------------------------------------------------------
    # Construction of result nodes
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        if _grad_mode.enabled:
            live = tuple([p for p in parents if p.requires_grad])
            if live:
                return Tensor(data, requires_grad=True, _parents=live, _backward=backward)
        return Tensor(data)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    ga = np.multiply.outer(g, other.data) if g.ndim else g * other.data
                else:
                    ga = g @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(np.asarray(ga), self.shape))
            if other.requires_grad:
                if other.data.ndim == 1:
                    # out = x @ v contracts the last axis of x; sum the
                    # gradient over every leading axis.
                    gb = (self.data * np.expand_dims(g, -1)).sum(
                        axis=tuple(range(self.data.ndim - 1))
                    )
                elif self.data.ndim == 1:
                    gb = np.multiply.outer(self.data, g)
                elif other.data.ndim == 2:
                    # Fold the leading axes into one contraction instead of
                    # a batched product summed over the batch afterwards.
                    k = self.data.shape[-1]
                    gb = self.data.reshape(-1, k).T @ g.reshape(-1, g.shape[-1])
                else:
                    gb = np.swapaxes(self.data, -1, -2) @ g
                other._accumulate(_unbroadcast(np.asarray(gb), other.shape))

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = stable_sigmoid(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, 0.0)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * mask)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * sign)

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient is passed through inside the interval."""
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * mask)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad = np.asarray(g)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.data.ndim for a in axes)
                grad = np.expand_dims(grad, tuple(sorted(axes)))
            self._accumulate(np.broadcast_to(grad, self.shape))

        return Tensor._make(np.asarray(out_data), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad = np.asarray(g)
            expanded = self.data.max(axis=axis, keepdims=True)
            mask = self.data == expanded
            # Split gradient evenly over ties for symmetry.
            counts = mask.sum(axis=axis, keepdims=True)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.data.ndim for a in axes)
                grad = np.expand_dims(grad, tuple(sorted(axes)))
            self._accumulate(np.broadcast_to(grad, self.shape) * mask / counts)

        return Tensor._make(np.asarray(out_data), (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        in_shape = self.shape

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.reshape(in_shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        basic = _is_basic_index(index)

        def backward(g: np.ndarray) -> None:
            # Scatter straight into this tensor's gradient buffer: no
            # full-size temporary per slice (a time loop slicing one step
            # at a time would otherwise cost O(T^2)).
            if self.requires_grad:
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                if basic:
                    self.grad[index] += g
                else:
                    np.add.at(self.grad, index, g)

        return Tensor._make(np.asarray(out_data), (self,), backward)

    def broadcast_to(self, shape: Tuple[int, ...]) -> "Tensor":
        """Broadcast to ``shape``; the gradient sums over broadcast axes."""
        shape = tuple(shape)
        out_data = np.broadcast_to(self.data, shape)
        in_shape = self.shape

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, in_shape))

        return Tensor._make(np.ascontiguousarray(out_data), (self,), backward)

    # Comparison helpers produce plain arrays (no gradients flow).
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _raw(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _raw(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _raw(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _raw(other)


def _is_basic_index(index) -> bool:
    """True for int/slice indexing, which never selects an element twice."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(isinstance(i, (int, np.integer, slice)) for i in parts)


def _raw(x: ArrayLike) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def as_tensor(x: ArrayLike) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_SPENT = (
    "backward() through a graph that an earlier backward() consumed; "
    "rebuild the graph to differentiate it again"
)


def _spent(g: np.ndarray) -> None:
    """The backward of a node an earlier :meth:`Tensor.backward` consumed."""
    raise RuntimeError(_SPENT)


def _reachable_ops(root: Tensor) -> List[Tensor]:
    """Every non-leaf tensor reachable from ``root``, in no particular order."""
    ops = [root] if root._backward is not None else []
    seen = {root}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if parent not in seen:
                seen.add(parent)
                if parent._backward is not None:
                    ops.append(parent)
                    stack.append(parent)
    return ops


# ----------------------------------------------------------------------
# Free functions over tensors
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(start, stop)
                t._accumulate(g[tuple(sl)])

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray) -> None:
        slices = np.moveaxis(g, axis, 0)
        for t, gi in zip(tensors, slices):
            if t.requires_grad:
                t._accumulate(gi)

    return Tensor._make(out_data, tensors, backward)


def maximum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise maximum with subgradient split evenly at ties."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = np.maximum(a.data, b.data)
    a_wins = a.data > b.data
    tie = a.data == b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * (a_wins + 0.5 * tie), a.shape))
        if b.requires_grad:
            b_wins = (~a_wins) & (~tie)
            b._accumulate(_unbroadcast(g * (b_wins + 0.5 * tie), b.shape))

    return Tensor._make(out_data, (a, b), backward)


def minimum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise minimum with subgradient split evenly at ties."""
    a, b = as_tensor(a), as_tensor(b)
    return -maximum(-a, -b)
