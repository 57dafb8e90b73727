"""Output checks. Each returns a list of problems; an empty list is a pass."""

from __future__ import annotations

import math

HEAD_FIELDS = ("saliency", "heatmap", "window", "offset")


def record_problems(record, n_clips: int, clip_seconds: float) -> list[str]:
    """A prediction record is well formed for a video of ``n_clips`` clips."""
    problems = []
    span = n_clips * clip_seconds
    for i, m in enumerate(record.moments):
        if not (0.0 <= m.start < m.end <= span):
            problems.append(f"moment {i}: [{m.start}, {m.end}] is not an interval inside [0, {span}]")
    conf = [m.confidence for m in record.moments]
    if any(b > a for a, b in zip(conf, conf[1:])):
        problems.append(f"confidences increase: {conf}")
    if len(record.saliency) != n_clips:
        problems.append(f"{len(record.saliency)} saliency values for {n_clips} clips")
    if not all(0.0 <= s <= 1.0 for s in record.saliency):
        problems.append("saliency outside [0, 1]")
    return problems


def loss_problems(history: list[float]) -> list[str]:
    return [] if history and all(math.isfinite(v) for v in history) else [f"non-finite or empty losses {history}"]


def replicate_problems(first: tuple, other: tuple) -> list[str]:
    """Two same-seed ``train()`` runs: equal loss history, byte-equal final checkpoint."""
    problems = []
    if first[0] != other[0]:
        problems.append(f"loss history {other[0]} != {first[0]}")
    if first[1] != other[1]:
        problems.append("final.ckpt bytes differ")
    return problems


def report_problems(report) -> list[str]:
    values = []
    for v in report.as_dict().values():
        values += list(v.values()) if isinstance(v, dict) else [v]
    return [] if all(0.0 <= v <= 1.0 for v in values) else [f"report values outside [0, 1]: {report.as_dict()}"]


def forward_mismatches(plain, taped) -> list[str]:
    """Head outputs of a no-grad forward that differ, bit for bit, from a grad-enabled one."""
    return [
        f"{name} differs with gradients enabled"
        for name in HEAD_FIELDS
        if getattr(plain, name).shape != getattr(taped, name).shape
        or getattr(plain, name).data.tobytes() != getattr(taped, name).data.tobytes()
    ]
