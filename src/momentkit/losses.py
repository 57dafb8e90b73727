"""Supervision targets and the four training losses.

Ground truth per video is a set of moments (continuous center p, window d in
clip units) plus per-clip saliency in [0, 1]. Targets:

  * heatmap     — one gaussian bump per moment, centered at the quantized
                  center p~ = round(p), width sigma = RHO * (MU * d + 1);
                  overlapping bumps merge by pointwise max, so the map is
                  exactly 1 at every p~
  * window      — the duration d, supervised only at p~
  * offset      — the sub-clip correction p - p~, supervised only at p~
  * saliency    — copied through per clip

Losses: binary cross-entropy on saliency (soft targets allowed), a focal
objective on the heatmap that treats exact-1 coordinates as positives and
down-weights negatives near peaks by (1 - H)^GAMMA, and L1 losses on window
and offset sampled at ground-truth centers only. The weighted total uses
lambda = 3.0 / 1.0 / 0.1 / 1.0.

Predictions enter as probability-valued tensors; they are clamped to
[1e-7, 1 - 1e-7] before any log, so a "perfect" 0/1 prediction yields a loss
on the order of 1e-7 rather than an infinity; a prediction outside the clamp
gets zero gradient.

Each loss, and the weighted total, is one tape node with a closed-form
backward that, like every autograd op, returns its operands' gradients and
captures only the arrays it reads, never a ``Tensor`` or a tape node. Forward
and backward run the same float expressions, in the same order, as the chain
of elementwise ops the formula spells out (clamp, log, power, absolute value,
row gather, sum, scale), so values and gradients are bitwise those of that
chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import ShapeError, Tensor
from .data import DataError, MomentAnnotation
from .model import ConfigError

PROB_CLAMP = 1e-7
ALPHA = 2.0  # focal exponent on the prediction
GAMMA = 4.0  # focal exponent on (1 - target) for negatives
MU = 0.2     # kernel radius per unit window
RHO = 0.2    # sigma per unit radius


@dataclass
class LossWeights:
    """Loss mixing weights of the four tasks."""

    saliency: float = 3.0   # lambda_s
    center: float = 1.0     # lambda_c
    window: float = 0.1     # lambda_w
    offset: float = 1.0     # lambda_o

    def validate(self) -> None:
        for name in ("saliency", "center", "window", "offset"):
            if not 0.0 <= getattr(self, name) < np.inf:  # written so that NaN fails
                raise ConfigError(f"loss weight {name} must be finite and nonnegative, got {getattr(self, name)}")


@dataclass
class TargetSet:
    """Dense per-clip targets plus per-moment regression targets."""

    heatmap: np.ndarray            # (n_clips,) in [0, 1], exactly 1 at centers
    center_indices: np.ndarray     # (n_moments,) int
    window_targets: np.ndarray     # (n_moments,) clips
    offset_targets: np.ndarray     # (n_moments,) in [-0.5, 0.5]
    saliency_targets: np.ndarray   # (n_clips,) in [0, 1]

    @property
    def n_moments(self) -> int:
        return len(self.center_indices)


def build_targets(
    moments: list[MomentAnnotation],
    saliency: np.ndarray | None,
    n_clips: int,
) -> TargetSet:
    """Rasterize moment annotations into per-clip training targets.

    A center in the final half-clip would quantize to n_clips; it is clamped
    to the last valid index and its offset target saturates at +0.5 (sub-clip
    precision is given up only inside that half clip).
    """
    heat = np.zeros(n_clips)
    centers: list[int] = []
    windows: list[float] = []
    offsets: list[float] = []
    coords = np.arange(n_clips, dtype=np.float64)
    for m in moments:
        if not 0.0 <= m.center < n_clips:
            raise DataError(f"moment center {m.center} outside [0, {n_clips})")
        quant = int(min(np.floor(m.center + 0.5), n_clips - 1))
        radius = MU * m.window
        sigma = RHO * (radius + 1.0)
        heat = np.maximum(heat, np.exp(-((coords - quant) ** 2) / (2.0 * sigma**2)))
        centers.append(quant)
        windows.append(m.window)
        offsets.append(float(np.clip(m.center - quant, -0.5, 0.5)))
    if saliency is None:
        sal = np.zeros(n_clips)
    else:
        sal = np.asarray(saliency, dtype=np.float64)
        if sal.shape != (n_clips,):
            raise ShapeError(f"saliency targets shape {sal.shape} != ({n_clips},)")
    return TargetSet(
        heatmap=heat,
        center_indices=np.asarray(centers, dtype=np.intp),
        window_targets=np.asarray(windows, dtype=np.float64),
        offset_targets=np.asarray(offsets, dtype=np.float64),
        saliency_targets=sal,
    )


def _clamped(pred: Tensor) -> np.ndarray:
    return np.clip(pred.data, PROB_CLAMP, 1.0 - PROB_CLAMP)


def _through_clamp(x: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray]:
    """The prediction's gradient: ``grad`` where the clamp let its value ``x`` through, zero elsewhere."""
    return (grad * ((x >= PROB_CLAMP) & (x <= 1.0 - PROB_CLAMP)),)


def saliency_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean binary cross-entropy over clips; targets may be soft."""
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"saliency pred shape {pred.shape} != target shape {target.shape}")
    x, p = pred.data, _clamped(pred)
    scale = -1.0 / p.size
    per_clip = target * np.log(p) + (1.0 - target) * np.log(1.0 - p)

    def backward(g):
        g = g * scale
        return _through_clamp(x, (g * target) / p - (g * (1.0 - target)) / (1.0 - p))

    return ag._make(per_clip.sum() * scale, (pred,), backward)


def focal_center_loss(pred: Tensor, target: np.ndarray, n_moments: int) -> Tensor:
    """Focal heatmap objective, normalized by the number of moments.

    Coordinates where the target is exactly 1 are positives; everywhere else
    the penalty on the prediction is scaled by (1 - H)^GAMMA so clips right
    next to a peak are barely punished. Without moments (a highlight-only
    sample) the loss is a constant 0, as the regression losses are.
    """
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"heatmap pred shape {pred.shape} != target shape {target.shape}")
    if n_moments == 0:
        return Tensor(0.0)
    pos_mask = (target == 1.0).astype(np.float64)
    neg_weight = ((1.0 - target) ** GAMMA) * (1.0 - pos_mask)
    x, p = pred.data, _clamped(pred)
    q = 1.0 - p
    log_p, log_q = np.log(p), np.log(q)
    q_alpha, p_alpha = q**ALPHA, p**ALPHA
    scale = -1.0 / n_moments
    per_clip = pos_mask * (q_alpha * log_p) + neg_weight * (p_alpha * log_q)

    def backward(g):
        g = g * scale
        g_pos, g_neg = g * pos_mask, g * neg_weight
        # positives and negatives never share a coordinate: at most two of the four terms are
        # nonzero at each, so the order they are summed in cannot change a bit
        return _through_clamp(x, (g_pos * q_alpha) / p - g_pos * log_p * ALPHA * q ** (ALPHA - 1.0)
                              + g_neg * log_q * ALPHA * p ** (ALPHA - 1.0) - (g_neg * p_alpha) / q)

    return ag._make(per_clip.sum() * scale, (pred,), backward)


def _mean_abs_error_at(pred: Tensor, idx: np.ndarray, target: np.ndarray) -> Tensor:
    """Mean |pred[idx] - target|; an index listed twice gets both gradients."""
    shape = pred.shape
    err = pred.data[idx] - target
    scale = 1.0 / err.size

    def backward(g):
        full = np.zeros(shape)
        np.add.at(full, idx, (g * scale) * np.sign(err))
        return (full,)

    return ag._make(np.abs(err).sum() * scale, (pred,), backward)


def regression_losses(pred_window: Tensor, pred_offset: Tensor, targets: TargetSet) -> tuple[Tensor, Tensor]:
    """Mean absolute errors of window and offset, sampled at ground-truth centers."""
    if targets.n_moments == 0:
        return Tensor(0.0), Tensor(0.0)
    idx = targets.center_indices
    return (_mean_abs_error_at(pred_window, idx, targets.window_targets),
            _mean_abs_error_at(pred_offset, idx, targets.offset_targets))


def total_loss(l_s: Tensor, l_c: Tensor, l_w: Tensor, l_o: Tensor, weights: LossWeights | None = None) -> Tensor:
    weights = weights or LossWeights()
    scales = (weights.saliency, weights.center, weights.window, weights.offset)
    data = (l_s.data * scales[0] + l_c.data * scales[1]) + (l_w.data * scales[2] + l_o.data * scales[3])

    def backward(g):
        return tuple(g * s for s in scales)

    return ag._make(data, (l_s, l_c, l_w, l_o), backward)
