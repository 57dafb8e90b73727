"""Transformer building blocks on the autograd core.

Three attention wirings cover everything the model needs:

  * ``self_attention``  — queries, keys, values all from one sequence
  * ``compress``        — a small set of bottleneck tokens queries a long
                          sequence (cost linear in sequence length)
  * ``expand``          — the long sequence queries the bottleneck tokens
                          to read the fused information back out

All three share one primitive: out_i = res_i + W_z · sum_j a_ij · (v_j W_v)
with a_ij = softmax_j(s · (q_i W_q) · (k_j W_k)) per head, where the score
scale s is 1/sqrt(head_dim), or 1 for an unscaled block. The heads are computed
one at a time inside a single ``ag.attend`` op, which builds, softmaxes and
mixes each head's scores while they sit in cache. Learnable positional
encodings are added to the *inputs* of the query/key projections only — never
to the values — and each wiring chooses which side receives them.

Each ``AttentionParams`` owns its dropout rate and score scale, and each
``FeedForward`` its dropout rate; both are fixed when the block is built.
Dropout runs exactly when a dropout stream (``rng``) is passed: training
passes one, inference passes none and draws nothing.

Sequences are (N, dim) float64 tensors; one sample at a time.
"""

from __future__ import annotations

import math

import numpy as np

from . import autograd as ag
from .autograd import RngState, ShapeError, Tensor


class Module:
    """Minimal parameter container with deterministic reflective traversal."""

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        found: list[tuple[str, Tensor]] = []
        for name, value in vars(self).items():
            full = f"{prefix}.{name}" if prefix else name
            if isinstance(value, Tensor):
                if value.requires_grad:
                    found.append((full, value))
            elif isinstance(value, Module):
                found.extend(value.named_parameters(full))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        found.extend(item.named_parameters(f"{full}.{i}"))
        return found


def _uniform_init(rng: RngState, fan_in: int, shape) -> Tensor:
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)


class Linear(Module):
    """Affine map y = x W + b with uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init."""

    def __init__(self, in_dim: int, out_dim: int, rng: RngState):
        self.weight = _uniform_init(rng, in_dim, (in_dim, out_dim))
        self.bias = _uniform_init(rng, in_dim, (out_dim,))

    def __call__(self, x: Tensor) -> Tensor:
        return ag.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ag.layer_norm(x, self.gain, self.bias)


class PositionalEncoding(Module):
    """Learnable per-index encoding table; rows(n) returns the first n rows."""

    def __init__(self, max_len: int, dim: int, rng: RngState):
        self.max_len = max_len
        self.table = Tensor(rng.normal((max_len, dim), scale=0.02), requires_grad=True)

    def rows(self, n: int) -> Tensor:
        if n > self.max_len:
            raise ShapeError(f"sequence length {n} exceeds positional table capacity {self.max_len}")
        return ag.slice_rows(self.table, 0, n)


class BottleneckTokens(Module):
    """Learnable seed values for the cross-modal bottleneck (n_tokens, dim)."""

    def __init__(self, n_tokens: int, dim: int, rng: RngState):
        self.n_tokens = n_tokens
        self.tokens = Tensor(rng.normal((n_tokens, dim), scale=0.02), requires_grad=True)

    def value(self) -> Tensor:
        # a node per call sums each sample's token gradients before they reach
        # the parameter; that summation order is part of the checkpoint bytes
        return ag.slice_rows(self.tokens, 0, self.n_tokens)


class AttentionParams(Module):
    """Projection weights (no biases), output dropout rate and score scale of one multi-head attention block.

    ``scaled=False`` drops the 1/sqrt(head_dim) factor on the scores, reducing
    each head to the plain bilinear form that the reference oracles compute.
    """

    def __init__(self, dim: int, n_heads: int, rng: RngState, drop_rate: float = 0.0, scaled: bool = True):
        if dim % n_heads != 0:
            raise ShapeError(f"model dim {dim} is not divisible by head count {n_heads}")
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        self.drop_rate = drop_rate
        self.scale = 1.0 / math.sqrt(self.head_dim) if scaled else 1.0
        self.w_q = _uniform_init(rng, dim, (dim, dim))
        self.w_k = _uniform_init(rng, dim, (dim, dim))
        self.w_v = _uniform_init(rng, dim, (dim, dim))
        self.w_z = _uniform_init(rng, dim, (dim, dim))


def attention(
    params: AttentionParams,
    q_in: Tensor,
    kv_in: Tensor,
    residual: Tensor,
    q_pos: Tensor | None = None,
    k_pos: Tensor | None = None,
    rng: RngState | None = None,
) -> Tensor:
    """Multi-head attention of ``q_in`` over ``kv_in`` with a residual connection."""
    if q_pos is not None:
        q_in = ag.add(q_in, q_pos)
    k_in = ag.add(kv_in, k_pos) if k_pos is not None else kv_in

    q, k, v = ag.matmul(q_in, params.w_q), ag.matmul(k_in, params.w_k), ag.matmul(kv_in, params.w_v)
    out = ag.matmul(ag.attend(q, k, v, params.n_heads, params.scale), params.w_z)
    return ag.residual_dropout(residual, out, params.drop_rate, rng)


def self_attention(
    x: Tensor,
    params: AttentionParams,
    pos: Tensor | None = None,
    norm: LayerNorm | None = None,
    rng: RngState | None = None,
) -> Tensor:
    """Within-sequence attention; the positional encoding feeds both queries and keys."""
    h = norm(x) if norm is not None else x
    return attention(params, h, h, residual=x, q_pos=pos, k_pos=pos, rng=rng)


def compress(
    x: Tensor,
    z: Tensor,
    params: AttentionParams,
    pos: Tensor | None = None,
    norm_x: LayerNorm | None = None,
    norm_z: LayerNorm | None = None,
    rng: RngState | None = None,
) -> Tensor:
    """Bottleneck tokens z attend over sequence x: z_i' = z_i + W_z sum_j a_ij v_j.

    The positional encoding describes x, so it feeds the key side only.
    """
    hq = norm_z(z) if norm_z is not None else z
    hx = norm_x(x) if norm_x is not None else x
    return attention(params, hq, hx, residual=z, q_pos=None, k_pos=pos, rng=rng)


def expand(
    x: Tensor,
    z: Tensor,
    params: AttentionParams,
    pos: Tensor | None = None,
    norm_x: LayerNorm | None = None,
    norm_z: LayerNorm | None = None,
    rng: RngState | None = None,
) -> Tensor:
    """Sequence x reads the fused bottleneck z back out: x_i' = x_i + W_z sum_j a_ij v_j.

    The positional encoding describes x, so it feeds the query side only.
    """
    hq = norm_x(x) if norm_x is not None else x
    hz = norm_z(z) if norm_z is not None else z
    return attention(params, hq, hz, residual=x, q_pos=pos, k_pos=None, rng=rng)


class FeedForward(Module):
    """Position-wise two-layer MLP (ReLU, 4x hidden) with a residual connection."""

    def __init__(self, dim: int, rng: RngState, drop_rate: float = 0.0):
        self.lin1 = Linear(dim, 4 * dim, rng)
        self.lin2 = Linear(4 * dim, dim, rng)
        self.drop_rate = drop_rate

    def __call__(self, x: Tensor, norm: LayerNorm | None = None, rng: RngState | None = None) -> Tensor:
        h = norm(x) if norm is not None else x
        h = ag.dropout(ag.relu(self.lin1(h)), self.drop_rate, rng)
        return ag.residual_dropout(x, self.lin2(h), self.drop_rate, rng)
