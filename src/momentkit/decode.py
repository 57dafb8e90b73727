"""Turn raw per-clip predictions into ranked moment intervals.

A moment is recovered from three aligned sequences: the center heatmap
supplies candidate positions and confidences, the offset sequence refines an
integer candidate to a continuous center, and the window sequence supplies a
duration. The interval is symmetric about the refined center:

    c = p~ + offset[p~]
    span = [c - window[p~]/2, c + window[p~]/2] * clip_seconds

clipped to the video extent; empty spans are dropped.

All ranking here and downstream breaks score ties by lower clip index so runs
are reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .data import DataError
from .losses import TargetSet


@dataclass
class MomentPrediction:
    """One ranked interval, in seconds."""

    start: float
    end: float
    confidence: float


def extract_centers(heatmap: np.ndarray, top_k: int = 10) -> list[int]:
    """Pick candidate center indices from a heatmap, best score first.

    Keeps the local maxima: indices at least as large as every neighbour (the
    two boundary clips compare against their single neighbour). Ties rank by
    lower index.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    heatmap = np.asarray(heatmap, dtype=np.float64)
    n = heatmap.shape[0]
    keep = []
    for i in range(n):
        left_ok = i == 0 or heatmap[i] >= heatmap[i - 1]
        right_ok = i == n - 1 or heatmap[i] >= heatmap[i + 1]
        if left_ok and right_ok:
            keep.append(i)
    keep.sort(key=lambda i: (-heatmap[i], i))
    return keep[:top_k]


def compose_moments(
    centers: Iterable[int],
    heatmap: np.ndarray,
    window: np.ndarray,
    offset: np.ndarray,
    clip_seconds: float,
) -> list[MomentPrediction]:
    """Assemble intervals from candidate centers; drop empties, rank by confidence."""
    heatmap = np.asarray(heatmap, dtype=np.float64)
    window = np.asarray(window, dtype=np.float64)
    offset = np.asarray(offset, dtype=np.float64)
    extent = heatmap.shape[0] * clip_seconds
    out = []
    for idx in centers:
        refined = idx + offset[idx]
        start = max((refined - window[idx] / 2.0) * clip_seconds, 0.0)
        end = min((refined + window[idx] / 2.0) * clip_seconds, extent)
        if end <= start:
            continue
        out.append((float(heatmap[idx]), int(idx), MomentPrediction(float(start), float(end), float(heatmap[idx]))))
    out.sort(key=lambda rec: (-rec[0], rec[1]))
    return [rec[2] for rec in out]


def decode_predictions(
    heatmap: np.ndarray,
    window: np.ndarray,
    offset: np.ndarray,
    clip_seconds: float,
    top_k: int = 10,
) -> list[MomentPrediction]:
    """Local-maximum centers of the heatmap, composed into ranked intervals."""
    centers = extract_centers(heatmap, top_k=top_k)
    return compose_moments(centers, heatmap, window, offset, clip_seconds)


def roundtrip(targets: TargetSet, clip_seconds: float = 1.0) -> list[MomentPrediction]:
    """Decode ground-truth targets back into moments (a self-consistency probe).

    Densifies the per-moment window/offset targets onto their center clips and
    runs the standard extraction path. With peaks at least two clips apart the
    annotated moments come back with sub-1e-9 center and window error; far
    away from any peak the heatmap underflows to exact zeros whose windows are
    zero too, so those plateau candidates are dropped as empty spans.
    """
    n = targets.heatmap.shape[0]
    window = np.zeros(n)
    offset = np.zeros(n)
    window[targets.center_indices] = targets.window_targets
    offset[targets.center_indices] = targets.offset_targets
    return decode_predictions(targets.heatmap, window, offset, clip_seconds, top_k=n)


# ---------------------------------------------------------------------------
# prediction interchange format (JSON lines)
# ---------------------------------------------------------------------------


@dataclass
class PredictionRecord:
    """Everything predicted for one (video, query) pair."""

    video_id: str
    moments: list[MomentPrediction]
    saliency: list[float]

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "id": self.video_id,
                "moments": [
                    {"start": m.start, "end": m.end, "confidence": m.confidence} for m in self.moments
                ],
                "saliency": self.saliency,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json_line(cls, line: str) -> "PredictionRecord":
        doc = json.loads(line)
        return cls(
            video_id=str(doc["id"]),
            moments=[
                MomentPrediction(float(m["start"]), float(m["end"]), float(m["confidence"]))
                for m in doc["moments"]
            ],
            saliency=[float(v) for v in doc["saliency"]],
        )


def write_predictions(path: str | Path, records: Iterable[PredictionRecord]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(rec.to_json_line() + "\n")


def read_predictions(path: str | Path) -> list[PredictionRecord]:
    """The records of a JSON-lines predictions file, skipping blank lines.

    A line that is not JSON, not an object, or lacks a field is a
    ``DataError`` naming the file and the 1-based line.
    """
    records = []
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(PredictionRecord.from_json_line(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise DataError(f"{path}: line {number}: malformed prediction record "
                            f"({type(exc).__name__}: {exc})") from exc
    return records
