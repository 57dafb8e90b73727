"""Dense float64 tensors with taped reverse-mode differentiation.

Every differentiable value in the library is a :class:`Tensor` wrapping a
C-contiguous float64 numpy array. Operations build a tape (each output
remembers its parents and a closure that pushes gradients to them);
``backward`` walks the tape once in reverse topological order.

Design constraints:
  * first-order gradients only, single-threaded per graph
  * ``matmul`` multiplies over the last two axes, batched over equal leading axes
  * all randomness flows through an explicit :class:`RngState`
  * gradients are never changed in place: a tensor's first gradient is kept
    as given and may be shared with other tensors, later ones add out of place
  * matmul work is tallied in a module-level multiply-accumulate counter
    so attention cost scaling can be measured rather than estimated
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class NumericError(ValueError):
    """An operation received values outside its numeric domain."""


_grad_enabled = True

_mac_count = 0


def reset_mac_count() -> None:
    global _mac_count
    _mac_count = 0


def mac_count() -> int:
    """Multiply-accumulate operations performed by matmul since the last reset."""
    return _mac_count


class no_grad:
    """Context manager that disables tape construction (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class RngState:
    """Deterministic random stream with an explicit position counter.

    The same seed and the same sequence of draw calls produce bit-identical
    values. ``position`` counts draw calls, so two states are interchangeable
    exactly when seed and call history agree.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.position = 0
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def random(self, shape=None) -> np.ndarray:
        self.position += 1
        return self._gen.random(shape)

    def uniform(self, low: float, high: float, shape=None) -> np.ndarray:
        self.position += 1
        return self._gen.uniform(low, high, shape)

    def normal(self, shape=None, scale: float = 1.0) -> np.ndarray:
        self.position += 1
        return self._gen.normal(0.0, scale, shape)

    def integers(self, low: int, high: int, size=None):
        self.position += 1
        return self._gen.integers(low, high, size=size)


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    return np.ascontiguousarray(arr)


class Tensor:
    """A float64 array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._backward_done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; all routed through the module-level ops
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return mul(self, 1.0 / float(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _coerce(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward
    return out


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # kept as given, so it may share memory with another tensor's gradient;
        # views that are not C-contiguous (transposes, broadcasts, splits) are copied
        t.grad = grad if grad.flags.c_contiguous else grad.copy()
    else:
        t.grad = t.grad + grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data - b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward)


def neg(a) -> Tensor:
    a = _coerce(a)

    def backward(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading (batch) axes must be equal, not broadcast."""
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim < 2 or a.data.ndim != b.data.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul requires 2-D operands or equal batch axes, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    global _mac_count
    _mac_count += a.size * b.shape[-1]
    data = a.data @ b.data

    def backward(g):
        _accumulate(a, g @ b.data.swapaxes(-1, -2))
        _accumulate(b, a.data.swapaxes(-1, -2) @ g)

    return _make(data, (a, b), backward)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    """Permute the axes; ``axes[i]`` names the input axis that becomes axis i."""
    a = _coerce(a)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"transpose axes {axes} are not a permutation of the axes of shape {a.shape}")

    def backward(g):
        _accumulate(a, g.transpose(np.argsort(axes)))

    return _make(a.data.transpose(axes), (a,), backward)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    a = _coerce(a)

    def backward(g):
        _accumulate(a, g.reshape(a.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def sum_(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _coerce(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        ge = g if keepdims or axis is None else np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(ge, a.shape))

    return _make(data, (a,), backward)


def mean(a: Tensor) -> Tensor:
    a = _coerce(a)
    return mul(sum_(a), 1.0 / a.data.size)


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    a = _coerce(a)
    data = np.maximum(a.data, 0.0)

    def backward(g):
        _accumulate(a, g * (a.data > 0.0))

    return _make(data, (a,), backward)


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), evaluated without overflow for either sign of x."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    a = _coerce(a)
    data = _logistic(a.data)

    def backward(g):
        _accumulate(a, g * data * (1.0 - data))

    return _make(data, (a,), backward)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), evaluated stably."""
    a = _coerce(a)
    data = np.logaddexp(0.0, a.data)

    def backward(g):
        _accumulate(a, g * _logistic(a.data))

    return _make(data, (a,), backward)


def exp(a: Tensor) -> Tensor:
    a = _coerce(a)
    data = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * data)

    return _make(data, (a,), backward)


def log(a: Tensor) -> Tensor:
    a = _coerce(a)
    if np.any(a.data <= 0.0):
        raise NumericError("log requires strictly positive input")

    def backward(g):
        _accumulate(a, g / a.data)

    return _make(np.log(a.data), (a,), backward)


def power(a: Tensor, p: float) -> Tensor:
    """Elementwise a**p for a constant exponent."""
    a = _coerce(a)
    p = float(p)
    data = a.data ** p

    def backward(g):
        _accumulate(a, g * p * a.data ** (p - 1.0))

    return _make(data, (a,), backward)


def absolute(a: Tensor) -> Tensor:
    a = _coerce(a)

    def backward(g):
        _accumulate(a, g * np.sign(a.data))

    return _make(np.abs(a.data), (a,), backward)


def clip(a: Tensor, low: float, high: float) -> Tensor:
    """Clamp values into [low, high]; gradient is zero where clamping bound."""
    a = _coerce(a)
    data = np.clip(a.data, low, high)

    def backward(g):
        mask = (a.data >= low) & (a.data <= high)
        _accumulate(a, g * mask)

    return _make(data, (a,), backward)


# ---------------------------------------------------------------------------
# indexing and concatenation
# ---------------------------------------------------------------------------


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    a = _coerce(a)
    data = a.data[start:stop].copy()

    def backward(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        _accumulate(a, full)

    return _make(data, (a,), backward)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows (or elements of a 1-D tensor) by integer index, with repeats allowed."""
    a = _coerce(a)
    idx = np.asarray(indices, dtype=np.intp)
    data = a.data[idx].copy()

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        _accumulate(a, full)

    return _make(data, (a,), backward)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [_coerce(t) for t in tensors]
    if not parts:
        raise ShapeError("concat requires at least one tensor")
    data = np.concatenate([p.data for p in parts], axis=axis)
    splits = np.cumsum([p.shape[axis] for p in parts[:-1]])

    def backward(g):
        for p, part in zip(parts, np.split(g, splits, axis=axis)):
            _accumulate(p, part)

    return _make(data, tuple(parts), backward)


# ---------------------------------------------------------------------------
# normalization, softmax, dropout
# ---------------------------------------------------------------------------


def softmax(a: Tensor, axis: int = -1, scale: float = 1.0) -> Tensor:
    """Numerically stabilized softmax of ``scale * a``, built in one buffer; rejects non-finite input."""
    a = _coerce(a)
    data = a.data * scale
    peak = data.max(axis=axis, keepdims=True)
    # NaN and +inf show in a row maximum, -inf in the global minimum
    if not (np.isfinite(peak).all() and np.isfinite(data.min())):
        raise NumericError("softmax requires finite input")
    data -= peak
    np.exp(data, out=data)
    data /= data.sum(axis=axis, keepdims=True)

    def backward(g):
        dx = g * data
        dot = dx.sum(axis=axis, keepdims=True)
        np.subtract(g, dot, out=dx)
        dx *= data
        dx *= scale
        _accumulate(a, dx)

    return _make(data, (a,), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row to zero mean / unit variance (eps 1e-5), then apply an affine map.

    1-D input is treated as a single row. ``gain`` and ``bias`` must match the
    trailing (normalized) dimension.
    """
    a, gain, bias = _coerce(a), _coerce(gain), _coerce(bias)
    x = a.data
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    dim = x.shape[-1]
    if gain.shape != (dim,) or bias.shape != (dim,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match normalized dim {dim}"
        )
    centred = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centred * centred).mean(axis=-1, keepdims=True) + 1e-5)
    xhat = centred * inv
    data = xhat * gain.data + bias.data
    if squeeze:
        data = data[0]

    def backward(g):
        gz = g[None, :] if squeeze else g
        dxhat = gz * gain.data
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        _accumulate(a, dx[0] if squeeze else dx)
        _accumulate(gain, (gz * xhat).reshape(-1, dim).sum(axis=0))
        _accumulate(bias, gz.reshape(-1, dim).sum(axis=0))

    return _make(data, (a, gain, bias), backward)


def dropout(a: Tensor, rate: float, rng: RngState | None) -> Tensor:
    """Zero elements with probability ``rate`` and rescale survivors.

    Dropout runs exactly when a stream is passed: with ``rng=None`` (or a zero
    rate) it returns ``a`` itself and draws nothing; otherwise it draws one
    mask from ``rng``. The rate is checked either way.
    """
    a = _coerce(a)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return a
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)

    def backward(g):
        _accumulate(a, g * mask)

    return _make(a.data * mask, (a,), backward)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Populate gradients for every requires_grad leaf under a scalar loss.

    Returns a map from leaf tensors (graph inputs with requires_grad) to their
    gradients; interior nodes release theirs once pushed to their parents.
    Running backward twice on the same loss is an error; build a fresh graph
    instead.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._backward_done:
        raise RuntimeError("backward was already run on this loss; rebuild the graph before calling again")
    loss._backward_done = True
    if not loss.requires_grad:
        return {}
    loss.grad = np.ones_like(loss.data)
    order = _topo_order(loss)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
            node.grad = None
    return {t: t.grad for t in order if t.requires_grad and not t._parents and t.grad is not None}
