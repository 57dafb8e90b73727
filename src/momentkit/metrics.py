"""Retrieval and highlight evaluation.

Moment retrieval metrics compare ranked predicted intervals against ground
truth spans at IoU thresholds: Recall@k (any hit in the top k) and mean
average precision over the threshold grid 0.50, 0.55, ..., 0.95. AP uses
confidence-sorted greedy matching — each prediction claims the best still
unmatched ground truth at or above the threshold — and all-point
interpolation (the precision envelope). Queries with no ground-truth moments
are excluded from the averages.

Highlight metrics rank clips by predicted saliency within each video: mAP of
the ranking against binary positive flags, HIT@1 (is the top clip positive),
and a variant restricted to each video's five best-scored clips. Videos with
no positive clips are excluded.

Every ranking breaks score ties deterministically: earlier start time then
lower index for intervals, lower index for clips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decode import MomentPrediction

IOU_GRID: tuple[float, ...] = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
RECALL_THRESHOLDS: tuple[float, ...] = (0.5, 0.7)
TASKS = ("mr", "hd", "both")  # moment retrieval, highlight detection, or both

Interval = tuple[float, float]


def temporal_iou(a: Interval, b: Interval) -> float:
    """Intersection over union of two intervals; degenerate inputs score 0."""
    (a0, a1), (b0, b1) = a, b
    if a1 <= a0 or b1 <= b0:
        return 0.0
    inter = min(a1, b1) - max(a0, b0)
    if inter <= 0.0:
        return 0.0
    union = (a1 - a0) + (b1 - b0) - inter
    return inter / union


def _ranked(preds: Sequence[MomentPrediction]) -> list[MomentPrediction]:
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].confidence, preds[i].start, i))
    return [preds[i] for i in order]


def recall_at_k(
    preds_per_query: Sequence[Sequence[MomentPrediction]],
    gts_per_query: Sequence[Sequence[Interval]],
    k: int,
    threshold: float,
) -> float:
    """Fraction of queries whose top-k predictions hit any ground truth."""
    hits = 0
    counted = 0
    for preds, gts in zip(preds_per_query, gts_per_query):
        if not gts:
            continue
        counted += 1
        top = _ranked(preds)[:k]
        if any(temporal_iou((p.start, p.end), gt) >= threshold for p in top for gt in gts):
            hits += 1
    return hits / counted if counted else 0.0


def ap_from_hit_flags(flags: Sequence[bool], n_positive: int) -> float:
    """All-point interpolated AP of a ranked binary outcome list.

    ``n_positive`` is the number of positives that could have been retrieved;
    flags beyond the list (missed positives) count against recall.
    """
    if n_positive == 0:
        return 0.0
    flags = np.asarray(flags, dtype=bool)
    tp = np.cumsum(flags)
    ranks = np.arange(1, len(flags) + 1)
    precision = tp / ranks
    recall = tp / n_positive
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    for i in range(len(mpre) - 2, -1, -1):  # precision envelope
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def match_greedily(
    preds: Sequence[MomentPrediction], gts: Sequence[Interval], threshold: float
) -> list[bool]:
    """Confidence-ordered matching; each ground truth is claimable once."""
    taken = [False] * len(gts)
    flags = []
    for p in _ranked(preds):
        best, best_iou = -1, 0.0
        for j, gt in enumerate(gts):
            if taken[j]:
                continue
            iou = temporal_iou((p.start, p.end), gt)
            if iou >= threshold and iou > best_iou:
                best, best_iou = j, iou
        if best >= 0:
            taken[best] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


def average_precision(preds: Sequence[MomentPrediction], gts: Sequence[Interval], threshold: float) -> float:
    return ap_from_hit_flags(match_greedily(preds, gts, threshold), len(gts))


def mean_ap(
    preds_per_query: Sequence[Sequence[MomentPrediction]],
    gts_per_query: Sequence[Sequence[Interval]],
    thresholds: Sequence[float] = IOU_GRID,
) -> dict[float, float]:
    """Per-threshold AP averaged over queries that have ground truth."""
    out: dict[float, float] = {}
    for t in thresholds:
        vals = [
            average_precision(preds, gts, t)
            for preds, gts in zip(preds_per_query, gts_per_query)
            if gts
        ]
        out[t] = float(np.mean(vals)) if vals else 0.0
    return out


# ---------------------------------------------------------------------------
# highlight detection
# ---------------------------------------------------------------------------


def _clip_ranking(scores: np.ndarray) -> np.ndarray:
    return np.array(sorted(range(len(scores)), key=lambda i: (-scores[i], i)), dtype=np.intp)


def highlight_metrics(
    saliency_per_video: Sequence[np.ndarray], positives_per_video: Sequence[np.ndarray]
) -> tuple[float, float]:
    """(mAP of clip rankings, HIT@1), over videos that have positive clips."""
    aps, hits = [], []
    for scores, labels in zip(saliency_per_video, positives_per_video):
        scores = np.asarray(scores, dtype=np.float64)
        labels = np.asarray(labels, dtype=bool)
        if not labels.any():
            continue
        order = _clip_ranking(scores)
        aps.append(ap_from_hit_flags(labels[order], int(labels.sum())))
        hits.append(1.0 if labels[order[0]] else 0.0)
    if not aps:
        return 0.0, 0.0
    return float(np.mean(aps)), float(np.mean(hits))


def top5_map(
    saliency_per_video: Sequence[np.ndarray], positives_per_video: Sequence[np.ndarray]
) -> float:
    """AP restricted to each video's five best-scored clips, averaged.

    The five retained clips are treated as the whole instance: the AP
    denominator is the positive count among them (all five positive scores a
    perfect 1.0 even when the video has more positives elsewhere).
    """
    aps = []
    for scores, labels in zip(saliency_per_video, positives_per_video):
        scores = np.asarray(scores, dtype=np.float64)
        labels = np.asarray(labels, dtype=bool)
        if not labels.any():
            continue
        order = _clip_ranking(scores)[:5]
        flags = labels[order]
        aps.append(ap_from_hit_flags(flags, int(flags.sum())))
    return float(np.mean(aps)) if aps else 0.0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    """Metric bundle; retrieval or highlight fields are None when not evaluated."""

    r1_at: dict[float, float] | None = None
    r5_at: dict[float, float] | None = None
    map_at: dict[float, float] | None = None
    map_avg: float | None = None
    hd_map: float | None = None
    hit_at_1: float | None = None
    top5_map: float | None = None

    def as_dict(self) -> dict:
        doc: dict = {}
        for name in ("r1_at", "r5_at", "map_at"):
            val = getattr(self, name)
            if val is not None:
                doc[name] = {f"{t:.2f}": v for t, v in val.items()}
        for name in ("map_avg", "hd_map", "hit_at_1", "top5_map"):
            val = getattr(self, name)
            if val is not None:
                doc[name] = val
        return doc


def build_report(
    preds_per_query: Sequence[Sequence[MomentPrediction]] | None,
    gts_per_query: Sequence[Sequence[Interval]] | None,
    saliency_per_video: Sequence[np.ndarray] | None,
    positives_per_video: Sequence[np.ndarray] | None,
    tasks: str = "both",
) -> EvalReport:
    """Assemble an EvalReport for the requested task mix, one of ``TASKS``."""
    if tasks not in TASKS:
        raise ValueError(f"unknown task selection {tasks!r}")
    report = EvalReport()
    if tasks in ("mr", "both"):
        report.r1_at = {t: recall_at_k(preds_per_query, gts_per_query, 1, t) for t in RECALL_THRESHOLDS}
        report.r5_at = {t: recall_at_k(preds_per_query, gts_per_query, 5, t) for t in RECALL_THRESHOLDS}
        report.map_at = mean_ap(preds_per_query, gts_per_query, IOU_GRID)
        report.map_avg = float(np.mean(list(report.map_at.values())))
    if tasks in ("hd", "both"):
        report.hd_map, report.hit_at_1 = highlight_metrics(saliency_per_video, positives_per_video)
        report.top5_map = top5_map(saliency_per_video, positives_per_video)
    return report
