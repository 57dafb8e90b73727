"""Dense float64 tensors with taped reverse-mode differentiation.

Every differentiable value in the library is a :class:`Tensor` wrapping a
C-contiguous float64 numpy array. An op output that needs a gradient also
gets a tape node, and the two are split: the ``Tensor`` is the handle the
caller holds (its ``data`` and a link to its node), while the node holds its
operands' vertices (parent nodes, leaf tensors that require grad, or
``None``), the op's backward closure and the gradient slot. A closure returns
one gradient per operand and captures only the arrays, shapes and scalars it
reads, never a node or a ``Tensor``: an output that no backward reads (a
residual sum, a product only ``relu`` or a constant factor consumes) is freed
as soon as the caller drops its handle, and ``relu`` keeps a boolean mask
rather than its input.
``backward`` walks the nodes once in reverse topological order, adds each
returned gradient into its vertex and consumes the node, dropping its closure,
gradient and inputs, so an array a closure read is freed once the last node
that reads it is done, and a second backward through any node of a consumed
graph is an error.

Design constraints:
  * first-order gradients only
  * a large op runs as two halves, one on a single worker thread and one on
    the caller (``_in_two``): ``matmul`` and ``linear`` split the rows of their
    (..., k) operand and run their two gradient products at once, ``attend``
    splits its query rows forward and its heads backward. Whether and where an
    op splits follows from its shapes alone (``_cut``), never from the CPU
    count, and each half makes the BLAS calls it would make on one CPU, so the
    bytes do not depend on the host's CPUs. The worker starts on first use and
    only where the process may run on more than one CPU; taping, the grad mode
    and the MAC tally stay on the caller, and BLAS's own thread settings are
    left alone
  * a leading sample axis runs a stack of same-shape samples as one pass
    (the model runs every forward as a stack, a lone sample as a stack of one):
    ``matmul`` and ``linear`` multiply an (..., k) operand by a 2-D (k, n)
    weight as one product over all rows, and the weight's gradient is one
    product over all rows too; ``add`` broadcasts (N, d) tables over the
    stack and ``broadcast_to`` repeats a parameter over it, each summing its
    gradient back over the stack; ``unstack`` splits the (B, N, 1) heads into
    one (N,) node per sample; ``sum_`` sums every element
  * ``attend`` is multi-head attention over (B, N, dim) stacks as one tape
    node: it computes the heads one at a time, each head's (B, Nq, Nk) scores
    for the whole stack built, softmaxed and mixed by batched products
  * an operand that needs no gradient gets none: ``mul``, ``matmul`` and
    ``linear`` neither compute its gradient nor keep the other operand's data
    for it
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

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class NumericError(ValueError):
    """An operation received values outside its numeric domain."""


_grad_enabled = True

_mac_count = 0


# multiply-accumulates below which an op runs whole on the caller (see ``_in_two``)
_SPLIT_WORK = 2**20

# the one worker thread of ``_in_two``: ``None`` until first use, ``False`` where
# this process may run on only one CPU
_worker: ThreadPoolExecutor | bool | None = None


def _forget_worker() -> None:
    # a forked child has no worker thread; it starts its own on first use
    global _worker
    _worker = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _in_two(first: Callable[[], object], second: Callable[[], object]) -> tuple:
    """``(first(), second())``, with ``first`` run on the worker thread while the caller runs ``second``.

    The worker starts on first use, and only where this process may run on
    more than one CPU; otherwise both parts run inline, first then second.
    The calls each part makes do not depend on which of the two ways runs, so
    neither does a byte. The parts write disjoint memory, and neither splits
    again, builds a node, reads the grad mode or tallies MACs: that all stays
    on the caller. Both parts finish before this returns or raises, and the
    first part's exception wins, as it would inline.
    """
    global _worker
    if _worker is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        _worker = ThreadPoolExecutor(1) if cpus > 1 else False
    if not _worker:
        return first(), second()
    pending = _worker.submit(first)
    try:
        second_result = second()
    finally:
        first_result = pending.result()
    return first_result, second_result


def _cut(rows: int, row_macs: int) -> int:
    """Where an op splits its ``rows`` in two, or 0 to run them whole.

    ``row_macs`` is what one row costs in each BLAS call of the op. The cut is
    half the rows rounded down to a multiple of 24, made only when every call
    on the smaller half still does at least ``_SPLIT_WORK`` MACs. It depends
    on shapes alone, never on the CPU count, and it keeps every byte of the
    unsplit call: OpenBLAS runs rows in tiles whose heights divide 24 and
    rounds a tile cut short on its own path, and it sends products of up to
    about 10**6 MACs to another kernel (on ``SkylakeX``).
    """
    half = rows // 48 * 24
    return half if half * row_macs >= _SPLIT_WORK else 0


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


class _Node:
    """The tape vertex of one op output that needs a gradient.

    ``_inputs`` holds one vertex per operand, in operand order: a node, a leaf
    tensor that requires grad, or ``None``. ``backward`` adds each gradient
    ``_backward_fn`` returns into the matching input, then sets all three
    slots to ``None``; ``_inputs is None`` marks a consumed node.
    """

    __slots__ = ("_inputs", "_backward_fn", "grad")
    requires_grad = True  # a node exists only where a gradient is needed

    def __init__(self, inputs: tuple, backward: Callable[[np.ndarray], tuple]):
        self._inputs: tuple | None = inputs
        self._backward_fn: Callable[[np.ndarray], tuple] | None = backward
        self.grad: np.ndarray | None = None

    @property
    def _parents(self) -> tuple | None:
        """The vertices the gradient flows to, or ``None`` once backward has consumed the node."""
        return None if self._inputs is None else tuple(v for v in self._inputs if v is not None)


class Tensor:
    """A float64 array, and for an op output that needs a gradient, the link to its tape node."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None  # a leaf's gradient; an op output's lives on its node
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None

    @property
    def _parents(self) -> tuple | None:
        """The node's parents: ``()`` for a leaf or constant, ``None`` once backward has consumed the node."""
        return () if self._node is None else self._node._parents

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


def _vertex(t: Tensor) -> _Node | Tensor | None:
    """Where ``t``'s gradient goes: its node, ``t`` itself for a leaf that requires grad, else ``None``."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _make(data: np.ndarray, operands: tuple, backward: Callable[[np.ndarray], tuple]) -> Tensor:
    """The op output ``data``, given a node when a tape runs and some operand needs a gradient.

    ``backward`` returns one gradient per operand (``None`` for one it skips)
    and closes over the arrays it reads, never over a ``Tensor`` or a node.
    """
    out = Tensor(data)
    if _grad_enabled:
        inputs = tuple(_vertex(t) for t in operands)
        if any(v is not None for v in inputs):
            out.requires_grad = True
            out._node = _Node(inputs, backward)
    return out


def _accumulate(v: _Node | Tensor | None, grad: np.ndarray | None) -> None:
    """Add ``grad`` into the vertex ``v``; a ``None`` vertex or gradient adds nothing."""
    if v is None or grad is None:
        return
    if v.grad is None:
        # kept as given, so it may share memory with another tensor's gradient;
        # views that are not C-contiguous (transposes, broadcasts, splits) are copied
        v.grad = grad if grad.flags.c_contiguous else grad.copy()
    else:
        v.grad = v.grad + grad


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
    a_shape, b_shape = a.shape, b.shape

    def backward(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _make(a.data + b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    """Elementwise product. An operand that needs no gradient gets none, so the other's data is not kept for it."""
    a, b = _coerce(a), _coerce(b)
    a_shape, b_shape = a.shape, b.shape
    a_data = a.data if b.requires_grad else None  # read only by b's gradient
    b_data = b.data if a.requires_grad else None

    def backward(g):
        return (None if b_data is None else _unbroadcast(g * b_data, a_shape),
                None if a_data is None else _unbroadcast(g * a_data, b_shape))

    return _make(a.data * b.data, (a, b), backward)


def _product(a: Tensor, w: Tensor) -> np.ndarray:
    """``a.data @ w.data`` for an (..., k) ``a`` and a 2-D (k, n) ``w``, as one product over all of ``a``'s rows.

    Tallied in the MAC counter. A product with n >= 256 runs as two halves of
    ``a``'s rows, split where ``_cut`` says; the (d, 1) heads never split.
    """
    if a.data.ndim < 2 or w.data.ndim != 2:
        raise ShapeError(f"matmul needs an (..., k) operand and a 2-D one, got {a.shape} and {w.shape}")
    if a.shape[-1] != w.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {w.shape}")
    global _mac_count
    _mac_count += a.size * w.shape[1]
    rows, w_data = a.data.reshape(-1, a.shape[-1]), w.data
    out = np.empty((rows.shape[0], w.shape[1]))
    cut = _cut(rows.shape[0], a.shape[-1] * w.shape[1]) if w.shape[1] >= 256 else 0
    if cut:
        _in_two(lambda: np.matmul(rows[:cut], w_data, out=out[:cut]),
                lambda: np.matmul(rows[cut:], w_data, out=out[cut:]))
    else:
        np.matmul(rows, w_data, out=out)
    return out.reshape(*a.shape[:-1], w.shape[1])


def _product_grads(a: Tensor, w: Tensor) -> Callable[[np.ndarray], tuple]:
    """The gradients of ``_product(a, w)``: ``g @ w.T`` for ``a`` and one ``a.T @ g`` over all rows for ``w``.

    An operand that needs no gradient gets ``None``, and the other's data is
    not kept for it. When both are needed and each is at least
    ``_SPLIT_WORK`` MACs, the two products run at the same time.
    """
    a_shape = a.shape
    a_rows = a.data.reshape(-1, a_shape[-1]) if w.requires_grad else None  # read only by w's gradient
    w_data = w.data if a.requires_grad else None

    def grads(g):
        rows = g.reshape(-1, g.shape[-1])
        ga = None if w_data is None else lambda: (rows @ w_data.T).reshape(a_shape)
        gw = None if a_rows is None else lambda: a_rows.T @ rows
        if ga and gw and rows.size * a_shape[-1] >= _SPLIT_WORK:
            return _in_two(ga, gw)
        return ga and ga(), gw and gw()

    return grads


def matmul(a: Tensor, w: Tensor) -> Tensor:
    """Product of an (..., k) operand and a 2-D (k, n) one, shared by every row of the first."""
    a, w = _coerce(a), _coerce(w)
    return _make(_product(a, w), (a, w), _product_grads(a, w))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node, the bias added into the product in place.

    Bitwise equal to ``add(matmul(x, w), b)`` in value and gradients, with the
    same MAC count. A constant ``x`` (a feature array) gets no ``g @ w.T``.
    """
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    if b.shape != w.shape[1:]:
        raise ShapeError(f"linear bias shape {b.shape} does not match weight shape {w.shape}")
    data = _product(x, w)
    data += b.data
    product_grads, b_shape = _product_grads(x, w), b.shape

    def backward(g):
        return (*product_grads(g), _unbroadcast(g, b_shape))

    return _make(data, (x, w, b), backward)


def sum_(a: Tensor) -> Tensor:
    """Sum of every element, as a one-element tensor of shape (1,)."""
    a = _coerce(a)
    a_shape = a.shape

    def backward(g):
        return (np.broadcast_to(g, a_shape),)

    return _make(a.data.sum(), (a,), backward)


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the node keeps the 1-byte mask ``x > 0``, not ``x``."""
    a = _coerce(a)
    positive = a.data > 0.0 if _grad_enabled and a.requires_grad else None

    def backward(g):
        return (g * positive,)

    return _make(np.maximum(a.data, 0.0), (a,), backward)


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), evaluated without overflow for either sign of x."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    a = _coerce(a)
    data = _logistic(a.data)

    def backward(g):
        return (g * data * (1.0 - data),)

    return _make(data, (a,), backward)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), evaluated stably."""
    a = _coerce(a)
    a_data = a.data

    def backward(g):
        return (g * _logistic(a_data),)

    return _make(np.logaddexp(0.0, a_data), (a,), backward)


# ---------------------------------------------------------------------------
# indexing
# ---------------------------------------------------------------------------


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of a 2-D table; on a stack it would cut samples, not rows."""
    a = _coerce(a)
    a_shape = a.shape

    def backward(g):
        full = np.zeros(a_shape)
        full[start:stop] = g
        return (full,)

    return _make(a.data[start:stop].copy(), (a,), backward)


def broadcast_to(a: Tensor, shape: Sequence[int]) -> Tensor:
    """A copy of ``a`` repeated over new leading axes up to ``shape``; its gradient is summed over them."""
    a = _coerce(a)
    a_shape = a.shape

    def backward(g):
        return (_unbroadcast(g, a_shape),)

    data = np.empty(tuple(shape))
    data[...] = a.data
    return _make(data, (a,), backward)


def unstack(a: Tensor) -> list[Tensor]:
    """``a[0], a[1], ...`` along the leading axis, each its own node.

    A trailing axis of size 1 is dropped, so the (B, N, 1) output of a
    one-unit head splits into B (N,) rows.
    """
    a = _coerce(a)
    a_shape = a.shape
    rows = a.data[..., 0] if a.data.ndim > 1 and a_shape[-1] == 1 else a.data

    def row(i: int) -> Tensor:
        def backward(g):
            full = np.zeros(a_shape)
            full[i] = g.reshape(a_shape[1:])
            return (full,)

        return _make(rows[i], (a,), backward)

    return [row(i) for i in range(a_shape[0])]


# ---------------------------------------------------------------------------
# softmax and attention
# ---------------------------------------------------------------------------


def _softmax_(data: np.ndarray) -> None:
    """Softmax of already-scaled ``data`` along its last axis, in place; rejects non-finite input."""
    peak = data.max(axis=-1, keepdims=True)
    # NaN and +inf show in a row maximum, -inf in the global minimum
    if not (np.isfinite(peak).all() and np.isfinite(data.min())):
        raise NumericError("softmax requires finite input")
    data -= peak
    np.exp(data, out=data)
    data /= data.sum(axis=-1, keepdims=True)


def _softmax_grad_(g: np.ndarray, data: np.ndarray, scale: float, scratch: np.ndarray) -> None:
    """Turn ``g``, the gradient of the last-axis softmax output ``data``, into the gradient of its scores, in place.

    ``scratch`` is a buffer of ``g``'s shape that is overwritten.
    """
    np.multiply(g, data, out=scratch)
    g -= scratch.sum(axis=-1, keepdims=True)
    g *= data
    g *= scale


def attend(q: Tensor, k: Tensor, v: Tensor, n_heads: int, scale: float) -> Tensor:
    """Multi-head attention over (B, N, dim) stacks: softmax(scale * q_h k_h^T) v_h per head and sample.

    Head h owns columns [h*head_dim, (h+1)*head_dim) of q, k, v and of the
    (B, Nq, dim) output. Its (B, Nq, Nk) scores are built by one batched
    product over the stack, softmaxed in place and mixed by another, one head
    at a time. Without a tape every head reuses one score buffer; with one,
    the (heads, B, Nq, Nk) weights are kept for backward, which runs the same
    float ops head by head over the whole stack, the softmax gradient in one
    reused buffer. Each sample gets the float ops of its own stack of one.

    An op of at least ``_SPLIT_WORK`` MACs runs as two halves: forward splits
    the query rows where ``_cut`` says, each half running every head into its
    own rows of the one buffer, taped or not; backward splits the heads.
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    if q.data.ndim != 3 or k.data.ndim != 3 or k.shape[0] != q.shape[0] or v.shape != k.shape \
            or k.shape[-1] != q.shape[-1] or q.shape[-1] % n_heads:
        raise ShapeError(f"attend needs (B, Nq, d), (B, Nk, d) and (B, Nk, d) stacks of one sample count, "
                         f"and d divisible by {n_heads} heads, got {q.shape}, {k.shape} and {v.shape}")
    q_data, k_data, v_data = q.data, k.data, v.data
    n_s, n_q, dim = q.shape
    n_k = k.shape[1]
    global _mac_count
    _mac_count += 2 * n_s * n_q * n_k * dim
    head_dim = dim // n_heads
    heads = [slice(h * head_dim, (h + 1) * head_dim) for h in range(n_heads)]

    def k_t(cols: slice) -> np.ndarray:
        # each sample's k_h^T copied row-major: BLAS picks its kernel, and with
        # it the rounding, by operand layout; this one matches the per-head oracle
        return np.ascontiguousarray(k_data[:, :, cols].transpose(0, 2, 1))

    taped = _grad_enabled and (q.requires_grad or k.requires_grad or v.requires_grad)
    weights = np.empty((n_heads if taped else 1, n_s, n_q, n_k))
    out = np.empty((n_s, n_q, dim))

    def query_rows(lo: int, hi: int) -> None:
        for h, cols in enumerate(heads):
            w = weights[h if taped else 0, :, lo:hi]
            np.matmul(q_data[:, lo:hi, cols], k_t(cols), out=w)
            w *= scale
            _softmax_(w)
            np.matmul(w, v_data[:, :, cols], out=out[:, lo:hi, cols])

    cut = _cut(n_q, n_k * head_dim)
    if cut:
        _in_two(lambda: query_rows(0, cut), lambda: query_rows(cut, n_q))
    else:
        query_rows(0, n_q)

    def backward(g):
        gq, gk, gv = np.empty_like(q_data), np.empty_like(k_data), np.empty_like(v_data)

        def head_range(lo: int, hi: int) -> None:
            gs, scratch = np.empty((n_s, n_q, n_k)), np.empty((n_s, n_q, n_k))
            for h in range(lo, hi):
                cols = heads[h]
                w, g_h = weights[h], g[:, :, cols]
                np.matmul(w.transpose(0, 2, 1), g_h, out=gv[:, :, cols])
                np.matmul(g_h, v_data[:, :, cols].transpose(0, 2, 1), out=gs)
                _softmax_grad_(gs, w, scale, scratch)
                np.matmul(gs, k_t(cols).transpose(0, 2, 1), out=gq[:, :, cols])
                gk[:, :, cols] = (q_data[:, :, cols].transpose(0, 2, 1) @ gs).transpose(0, 2, 1)

        half = n_heads // 2
        if half and n_q * n_k * head_dim >= _SPLIT_WORK:
            _in_two(lambda: head_range(0, half), lambda: head_range(half, n_heads))
        else:
            head_range(0, n_heads)
        return gq, gk, gv

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
    # ``sum / dim`` is how numpy computes ``mean``, bit for bit, without its overhead
    centred = x - x.sum(axis=-1, keepdims=True) / dim
    inv = 1.0 / np.sqrt((centred * centred).sum(axis=-1, keepdims=True) / dim + 1e-5)
    xhat = centred * inv
    data = xhat * gain.data + bias.data
    gain_data = gain.data

    def backward(g):
        dxhat = g * gain_data
        mean_dxhat = dxhat.sum(axis=-1, keepdims=True) / dim
        mean_proj = (dxhat * xhat).sum(axis=-1, keepdims=True) / dim
        dx = inv * (dxhat - mean_dxhat - xhat * mean_proj)
        return dx, (g * xhat).reshape(-1, dim).sum(axis=0), g.reshape(-1, dim).sum(axis=0)

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
        return (_masked(g, keep, rate),)

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
        return g, _masked(g, keep, rate)

    return _make(data, (residual, a), backward)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def _topo_order(root: Tensor) -> list[_Node | Tensor]:
    """The vertices under ``root``, parents first; a leaf or constant root is its own one vertex."""
    order: list[_Node | Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[_Node | Tensor, bool]] = [(root if root._node is None else root._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        inputs = () if isinstance(node, Tensor) else node._inputs
        if inputs is None:
            raise RuntimeError("backward already ran through part of this graph; rebuild it before calling again")
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((v, False) for v in inputs if v is not None)
    return order


def backward(loss: Tensor) -> None:
    """Add the gradient of a scalar loss into ``.grad`` of every requires_grad leaf under it.

    The root's own gradient of 1 is added like any other: a leaf root adds 1
    into its ``.grad`` and a root that needs no gradient makes the call a
    no-op. This loop is the one place a gradient is routed: each node's
    closure returns its operands' gradients, and each is added into its input.
    Backward consumes the graph as it runs: once a node has run, it drops its
    gradient, closure and inputs, so each intermediate array is released when
    the last node that reads it has run, even while the caller holds the loss.
    Running backward again through any node of a consumed graph is an error
    that changes no gradient; build a fresh graph instead.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    _accumulate(_vertex(loss), np.ones_like(loss.data))
    while order:
        node = order.pop()
        if isinstance(node, Tensor):  # a leaf keeps the gradient it was given
            continue
        if node.grad is not None:
            for v, grad in zip(node._inputs, node._backward_fn(node.grad)):
                _accumulate(v, grad)
        node.grad = node._backward_fn = node._inputs = None
