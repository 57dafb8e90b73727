"""Dense float64 tensors with taped reverse-mode differentiation.

Every differentiable value in the library is a :class:`Tensor` wrapping a
C-contiguous float64 numpy array. Operations build a tape (each output
remembers its parents and a closure that pushes gradients to them);
``backward`` walks the tape once in reverse topological order and consumes
it: each node drops its closure and parent links as soon as it has run, so an
intermediate array is freed once the last node that reads it is done, and a
second backward through any node of a consumed graph is an error.

Design constraints:
  * first-order gradients only, single-threaded per graph
  * ``matmul`` multiplies 2-D operands only; ``sum_`` sums every element
  * ``attend`` is multi-head attention as one tape node: it computes the heads
    one at a time, each head's (Nq, Nk) scores built, softmaxed and mixed in
    one buffer, and shares its softmax kernels with ``softmax``
  * fused nodes are bitwise equal to the ops they replace: ``linear`` is
    ``add(matmul(x, w), b)`` and ``residual_dropout`` is
    ``add(x, dropout(a))``
  * dropout keeps a boolean keep-mask (1 byte per element) and applies it as
    ``(a * keep) * (1 / (1 - rate))``, bitwise ``a`` times the float mask
  * all randomness flows through an explicit :class:`RngState`
  * gradients are never changed in place: a tensor's first gradient is kept
    as given and may be shared with other tensors, later ones add out of place
  * matmul and attend work is tallied in a module-level multiply-accumulate counter
    so attention cost scaling can be measured rather than estimated
"""

from __future__ import annotations

from typing import Callable, Sequence

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
    """Multiply-accumulate operations performed by matmul and attend since the last reset."""
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


def _product(a: Tensor, b: Tensor) -> np.ndarray:
    """``a.data @ b.data`` for 2-D operands, tallied in the MAC counter."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul requires 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    global _mac_count
    _mac_count += a.size * b.shape[1]
    return a.data @ b.data


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of two 2-D operands."""
    a, b = _coerce(a), _coerce(b)
    data = _product(a, b)

    def backward(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _make(data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node, the bias added into the product in place.

    Bitwise equal to ``add(matmul(x, w), b)`` in value and gradients, with the
    same MAC count.
    """
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    if b.shape != w.shape[1:]:
        raise ShapeError(f"linear bias shape {b.shape} does not match weight shape {w.shape}")
    data = _product(x, w)
    data += b.data

    def backward(g):
        _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(data, (x, w, b), backward)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    a = _coerce(a)

    def backward(g):
        _accumulate(a, g.reshape(a.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def sum_(a: Tensor) -> Tensor:
    """Sum of every element, as a 0-D tensor."""
    a = _coerce(a)

    def backward(g):
        _accumulate(a, np.broadcast_to(g, a.shape))

    return _make(a.data.sum(), (a,), backward)


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
# indexing
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


# ---------------------------------------------------------------------------
# softmax and attention
# ---------------------------------------------------------------------------


def _softmax_(data: np.ndarray, axis: int) -> None:
    """Softmax of already-scaled ``data`` along ``axis``, in place; rejects non-finite input."""
    peak = data.max(axis=axis, keepdims=True)
    # NaN and +inf show in a row maximum, -inf in the global minimum
    if not (np.isfinite(peak).all() and np.isfinite(data.min())):
        raise NumericError("softmax requires finite input")
    data -= peak
    np.exp(data, out=data)
    data /= data.sum(axis=axis, keepdims=True)


def _softmax_grad(g: np.ndarray, data: np.ndarray, axis: int, scale: float) -> np.ndarray:
    """Gradient of the scores given the output gradient ``g`` and the softmax output ``data``."""
    dx = g * data
    dot = dx.sum(axis=axis, keepdims=True)
    np.subtract(g, dot, out=dx)
    dx *= data
    dx *= scale
    return dx


def softmax(a: Tensor, axis: int = -1, scale: float = 1.0) -> Tensor:
    """Numerically stabilized softmax of ``scale * a``, built in one buffer; rejects non-finite input."""
    a = _coerce(a)
    data = a.data * scale
    _softmax_(data, axis)

    def backward(g):
        _accumulate(a, _softmax_grad(g, data, axis, scale))

    return _make(data, (a,), backward)


def attend(q: Tensor, k: Tensor, v: Tensor, n_heads: int, scale: float) -> Tensor:
    """Multi-head attention over (N, dim) projections: softmax(scale * q_h k_h^T) v_h per head.

    Head h owns columns [h*head_dim, (h+1)*head_dim) of q, k, v and of the
    (Nq, dim) output. Its (Nq, Nk) scores are built, softmaxed and mixed while
    they sit in cache, one head at a time. Without a tape every head reuses
    one score buffer; with one, the (heads, Nq, Nk) weights are kept for
    backward, which runs the same float ops head by head.
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    if q.data.ndim != 2 or k.data.ndim != 2 or v.shape != k.shape or k.shape[1] != q.shape[1] \
            or q.shape[1] % n_heads:
        raise ShapeError(f"attend needs (Nq, d), (Nk, d) and (Nk, d) with d divisible by {n_heads} heads, "
                         f"got {q.shape}, {k.shape} and {v.shape}")
    (n_q, dim), n_k = q.shape, k.shape[0]
    global _mac_count
    _mac_count += 2 * n_q * n_k * dim
    head_dim = dim // n_heads
    heads = [slice(h * head_dim, (h + 1) * head_dim) for h in range(n_heads)]

    def k_t(cols: slice) -> np.ndarray:
        # k_h^T copied row-major: BLAS picks its kernel, and with it the
        # rounding, by operand layout; this one matches the per-head oracle
        return np.ascontiguousarray(k.data[:, cols].T)

    taped = _grad_enabled and (q.requires_grad or k.requires_grad or v.requires_grad)
    weights = np.empty((n_heads if taped else 1, n_q, n_k))
    out = np.empty((n_q, dim))
    for h, cols in enumerate(heads):
        w = weights[h if taped else 0]
        np.matmul(q.data[:, cols], k_t(cols), out=w)
        w *= scale
        _softmax_(w, -1)
        np.matmul(w, v.data[:, cols], out=out[:, cols])

    def backward(g):
        gq, gk, gv = np.empty_like(q.data), np.empty_like(k.data), np.empty_like(v.data)
        for h, cols in enumerate(heads):
            np.matmul(weights[h].T, g[:, cols], out=gv[:, cols])
            gs = _softmax_grad(g[:, cols] @ v.data[:, cols].T, weights[h], -1, scale)
            np.matmul(gs, k_t(cols).T, out=gq[:, cols])
            gk[:, cols] = (q.data[:, cols].T @ gs).T
        _accumulate(q, gq)
        _accumulate(k, gk)
        _accumulate(v, gv)

    return _make(out, (q, k, v), backward)


# ---------------------------------------------------------------------------
# normalization and dropout
# ---------------------------------------------------------------------------


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row to zero mean / unit variance (eps 1e-5), then apply an affine map.

    1-D input is a single row. ``gain`` and ``bias`` must match the trailing
    (normalized) dimension.
    """
    a, gain, bias = _coerce(a), _coerce(gain), _coerce(bias)
    x = a.data
    dim = x.shape[-1]
    if gain.shape != (dim,) or bias.shape != (dim,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match normalized dim {dim}"
        )
    centred = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centred * centred).mean(axis=-1, keepdims=True) + 1e-5)
    xhat = centred * inv
    data = xhat * gain.data + bias.data

    def backward(g):
        dxhat = g * gain.data
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        _accumulate(a, dx)
        _accumulate(gain, (g * xhat).reshape(-1, dim).sum(axis=0))
        _accumulate(bias, g.reshape(-1, dim).sum(axis=0))

    return _make(data, (a, gain, bias), backward)


def _keep_mask(shape, rate: float, rng: RngState | None) -> np.ndarray | None:
    """One boolean keep-mask drawn from ``rng``, or ``None`` when dropout does not run.

    The rate is checked either way; no stream or a zero rate draws nothing.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return None
    return rng.random(shape) >= rate


def _masked(x: np.ndarray, keep: np.ndarray, rate: float) -> np.ndarray:
    """``(x * keep) * (1 / (1 - rate))``: bitwise ``x * mask`` for the float mask ``keep / (1 - rate)``."""
    out = x * keep
    out *= 1.0 / (1.0 - rate)
    return out


def dropout(a: Tensor, rate: float, rng: RngState | None) -> Tensor:
    """Zero elements with probability ``rate`` and rescale survivors.

    Dropout runs exactly when a stream is passed: with ``rng=None`` (or a zero
    rate) it returns ``a`` itself and draws nothing; otherwise it draws one
    mask from ``rng`` and keeps it as booleans. The rate is checked either way.
    """
    a = _coerce(a)
    keep = _keep_mask(a.shape, rate, rng)
    if keep is None:
        return a

    def backward(g):
        _accumulate(a, _masked(g, keep, rate))

    return _make(_masked(a.data, keep, rate), (a,), backward)


def residual_dropout(residual: Tensor, a: Tensor, rate: float, rng: RngState | None) -> Tensor:
    """``add(residual, dropout(a, rate, rng))`` as one node: a block's residual connection.

    Draws the same mask as ``dropout`` and is bitwise equal to the two-node
    form in value and gradients; without a stream it is ``add(residual, a)``.
    """
    residual, a = _coerce(residual), _coerce(a)
    if residual.shape != a.shape:
        raise ShapeError(f"residual_dropout needs equal shapes, got {residual.shape} and {a.shape}")
    keep = _keep_mask(a.shape, rate, rng)
    if keep is None:
        return add(residual, a)
    data = _masked(a.data, keep, rate)
    data += residual.data

    def backward(g):
        _accumulate(residual, g)
        _accumulate(a, _masked(g, keep, rate))

    return _make(data, (residual, a), backward)


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
        if node._backward_done:
            raise RuntimeError("backward already ran through part of this graph; rebuild it before calling again")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Populate gradients for every requires_grad leaf under a scalar loss.

    Returns a map from leaf tensors (graph inputs with requires_grad) to their
    gradients. Backward consumes the graph as it runs: once a node has pushed
    its gradient to its parents, it drops that gradient, its closure and its
    parent links, so each intermediate array is released when the last node
    that reads it has run, even while the caller still holds the loss.
    Running backward again through any node of a consumed graph is an error;
    build a fresh graph instead. A leaf passed as the loss has no closure to
    consume and stays usable.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._backward_done:
        raise RuntimeError("backward was already run on this loss; rebuild the graph before calling again")
    order = _topo_order(loss) if loss.requires_grad else []
    if loss._backward_fn is not None or not loss.requires_grad:
        loss._backward_done = True
    if not order:
        return {}
    leaves = [t for t in order if t._backward_fn is None]
    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        if node._backward_fn is None:
            continue
        if node.grad is not None:
            node._backward_fn(node.grad)
        node.grad = node._backward_fn = None
        node._parents = ()
        node._backward_done = True
    return {t: t.grad for t in leaves if t.grad is not None}
