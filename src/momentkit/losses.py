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
on the order of 1e-7 rather than an infinity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import ShapeError, Tensor
from .data import DataError, MomentAnnotation

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


def _clamped(pred: Tensor) -> Tensor:
    return ag.clip(pred, PROB_CLAMP, 1.0 - PROB_CLAMP)


def saliency_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean binary cross-entropy over clips; targets may be soft."""
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"saliency pred shape {pred.shape} != target shape {target.shape}")
    p = _clamped(pred)
    t = Tensor(target)
    per_clip = ag.add(ag.mul(t, ag.log(p)), ag.mul(ag.sub(1.0, t), ag.log(ag.sub(1.0, p))))
    return ag.mul(ag.sum_(per_clip), -1.0 / per_clip.size)


def focal_center_loss(pred: Tensor, target: np.ndarray, n_moments: int) -> Tensor:
    """Focal heatmap objective, normalized by the number of moments.

    Coordinates where the target is exactly 1 are positives; everywhere else
    the penalty on the prediction is scaled by (1 - H)^GAMMA so clips right
    next to a peak are barely punished.
    """
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"heatmap pred shape {pred.shape} != target shape {target.shape}")
    if n_moments == 0:
        warnings.warn("focal_center_loss on a sample with no moments; returning 0", stacklevel=2)
        return Tensor(0.0)
    pos_mask = (target == 1.0).astype(np.float64)
    neg_weight = ((1.0 - target) ** GAMMA) * (1.0 - pos_mask)
    p = _clamped(pred)
    pos_terms = ag.mul(ag.power(ag.sub(1.0, p), ALPHA), ag.log(p))
    neg_terms = ag.mul(ag.power(p, ALPHA), ag.log(ag.sub(1.0, p)))
    total = ag.add(ag.mul(Tensor(pos_mask), pos_terms), ag.mul(Tensor(neg_weight), neg_terms))
    return ag.mul(ag.sum_(total), -1.0 / n_moments)


def regression_losses(pred_window: Tensor, pred_offset: Tensor, targets: TargetSet) -> tuple[Tensor, Tensor]:
    """Mean absolute errors of window and offset, sampled at ground-truth centers."""
    if targets.n_moments == 0:
        return Tensor(0.0), Tensor(0.0)
    idx = targets.center_indices
    w_err = ag.sub(ag.gather_rows(pred_window, idx), Tensor(targets.window_targets))
    o_err = ag.sub(ag.gather_rows(pred_offset, idx), Tensor(targets.offset_targets))
    return ag.mean(ag.absolute(w_err)), ag.mean(ag.absolute(o_err))


def total_loss(l_s: Tensor, l_c: Tensor, l_w: Tensor, l_o: Tensor, weights: LossWeights | None = None) -> Tensor:
    weights = weights or LossWeights()
    return ag.add(
        ag.add(ag.mul(l_s, weights.saliency), ag.mul(l_c, weights.center)),
        ag.add(ag.mul(l_w, weights.window), ag.mul(l_o, weights.offset)),
    )
