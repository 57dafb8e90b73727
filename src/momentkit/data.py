"""Datasets of pre-extracted clip features, annotations, and a synthesizer.

On-disk layout:

  root/
    manifest.json            -- version, thresholds, sample records
    features/<id>.<mod>.bin  -- one binary matrix per modality per video

A matrix file is an 8-byte header (two little-endian uint32: row count and
dimension) followed by the row-major float32 payload.

All clip coordinates are 0-based half-open internally. Manifests produced by
pipelines that count clips from 1 may declare ``"coordinate_base": 1``; moment
centers are shifted once at load. Moments are stored as a continuous center
plus a window (duration), both in clip units.

Saliency is a per-clip score in [0, 1]; clips scoring at or above the
manifest's ``positive_threshold`` count as highlight positives (ordinal rating
schemes are binarized by the ingestion pipeline, which records its threshold
here).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autograd import RngState

MANIFEST_VERSION = 1
_HEADER = struct.Struct("<II")

MODALITIES = ("visual", "audio", "text")


class DataError(ValueError):
    """Malformed manifest, feature file, or annotation."""


def write_matrix(path: str | Path, array: np.ndarray) -> None:
    arr = np.asarray(array, dtype=np.float32)
    if arr.ndim != 2:
        raise DataError(f"feature matrices are 2-D, got shape {arr.shape}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(arr.shape[0], arr.shape[1]))
        fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_matrix(path: str | Path) -> np.ndarray:
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise DataError(f"{path}: feature file missing") from exc
    if len(raw) < _HEADER.size:
        raise DataError(f"{path}: truncated header ({len(raw)} bytes)")
    n, dim = _HEADER.unpack_from(raw)
    expected = _HEADER.size + 4 * n * dim
    if len(raw) != expected:
        raise DataError(f"{path}: payload size {len(raw)} does not match header {n}x{dim} (want {expected})")
    flat = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    return flat.reshape(n, dim).astype(np.float32)


@dataclass
class FeatureSequence:
    """Clip- or token-aligned feature rows for one modality of one video."""

    array: np.ndarray  # (length, dim) float32
    modality: str = "visual"

    def __post_init__(self):
        self.array = np.asarray(self.array, dtype=np.float32)
        if self.array.ndim != 2 or self.array.shape[0] < 1:
            raise DataError(f"feature sequence must be 2-D with at least one row, got shape {self.array.shape}")
        if self.modality not in MODALITIES:
            raise DataError(f"unknown modality {self.modality!r}")
        if not np.all(np.isfinite(self.array)):
            raise DataError(f"{self.modality} features contain non-finite values")

    @property
    def length(self) -> int:
        return self.array.shape[0]

    @property
    def dim(self) -> int:
        return self.array.shape[1]


@dataclass
class MomentAnnotation:
    """One ground-truth span: continuous center and duration, in clip units."""

    center: float
    window: float

    def __post_init__(self):
        self.center = float(self.center)
        self.window = float(self.window)
        if not (np.isfinite(self.center) and np.isfinite(self.window) and self.window > 0.0):
            raise DataError(f"moment needs a finite center and positive window, got {self.center}, {self.window}")

    @property
    def start_clips(self) -> float:
        return self.center - self.window / 2.0

    @property
    def end_clips(self) -> float:
        return self.center + self.window / 2.0

    def span_seconds(self, clip_seconds: float) -> tuple[float, float]:
        return self.start_clips * clip_seconds, self.end_clips * clip_seconds


@dataclass
class VideoSample:
    """Everything known about one video: features, query tokens, annotations."""

    video_id: str
    clip_seconds: float
    visual: FeatureSequence | None = None
    audio: FeatureSequence | None = None
    text: FeatureSequence | None = None
    moments: list[MomentAnnotation] = field(default_factory=list)
    saliency: np.ndarray | None = None  # (n_clips,) float64 targets in [0, 1]
    positive_threshold: float = 0.5

    def __post_init__(self):
        if self.visual is None and self.audio is None:
            raise DataError(f"{self.video_id}: need visual or audio features")
        if not (np.isfinite(self.clip_seconds) and self.clip_seconds > 0.0):
            raise DataError(f"{self.video_id}: clip_seconds must be finite and positive, got {self.clip_seconds}")
        if self.visual is not None and self.audio is not None and self.audio.length != self.visual.length:
            raise DataError(
                f"{self.video_id}: audio rows {self.audio.length} != visual rows {self.visual.length}"
            )
        if self.saliency is not None:
            self.saliency = np.asarray(self.saliency, dtype=np.float64)
            if self.saliency.shape != (self.n_clips,):
                raise DataError(
                    f"{self.video_id}: saliency length {self.saliency.shape} != clip count {self.n_clips}"
                )
            if not np.all((self.saliency >= 0.0) & (self.saliency <= 1.0)):
                raise DataError(f"{self.video_id}: saliency values must lie in [0, 1]")
        for m in self.moments:
            if m.end_clips <= 0.0 or m.start_clips >= self.n_clips:
                raise DataError(
                    f"{self.video_id}: moment center={m.center} window={m.window} lies outside the video"
                )

    @property
    def n_clips(self) -> int:
        seq = self.visual if self.visual is not None else self.audio
        return seq.length

    def positive_flags(self) -> np.ndarray:
        """Boolean highlight positives: saliency at or above the threshold."""
        if self.saliency is None:
            return np.zeros(self.n_clips, dtype=bool)
        return self.saliency >= self.positive_threshold


def save_dataset(root: str | Path, samples: list[VideoSample]) -> Path:
    """Write a manifest with the samples' one positive threshold, plus a matrix file per modality; returns its path."""
    thresholds = {s.positive_threshold for s in samples} or {0.5}
    if len(thresholds) > 1:
        raise DataError(f"a manifest holds one positive_threshold, the samples carry {sorted(thresholds)}")
    root = Path(root)
    feat_dir = root / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for s in samples:
        rec: dict = {
            "id": s.video_id,
            "clip_seconds": s.clip_seconds,
            "moments": [{"center": m.center, "window": m.window} for m in s.moments],
        }
        for mod in MODALITIES:
            seq = getattr(s, mod)
            if seq is None:
                continue
            rel = f"features/{s.video_id}.{mod}.bin"
            write_matrix(root / rel, seq.array)
            rec[f"{mod}_path"] = rel
        if s.saliency is not None:
            rec["saliency"] = [float(v) for v in s.saliency]
        records.append(rec)
    manifest = {
        "version": MANIFEST_VERSION,
        "positive_threshold": thresholds.pop(),
        "coordinate_base": 0,
        "samples": records,
    }
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1))
    return path


def _number(value: object, where: str) -> float:
    """``value`` as a float when it is a JSON number; booleans, numeric strings and ints beyond float range are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError(f"{where} must be a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError as exc:
        raise DataError(f"{where} must be a number within float range, got {len(str(value))} digits") from exc


def _numbers(values: object, where: str) -> np.ndarray:
    """``values`` as a float64 array when it is a JSON list of numbers, each value typed as ``_number`` types it.

    A list of plain ints and floats converts in one call; anything else goes
    value by value, so the error names the first value that is not a number.
    Typing every value one by one instead added about 6 ms to each load of
    the 24 x 512 saliency values of the ``predict_long`` benchmark corpus on a
    2-core Xeon, about a fifth of that workload's ``setup_s``.
    """
    if not isinstance(values, list):
        raise DataError(f"{where} must be a list of numbers, got {json.dumps(values)}")
    if {type(v) for v in values} <= {int, float}:
        try:
            return np.array(values, dtype=np.float64)
        except OverflowError:
            pass
    return np.array([_number(v, where) for v in values], dtype=np.float64)


def load_dataset(manifest_path: str | Path) -> list[VideoSample]:
    """Read a manifest and its feature files; sample order follows the manifest."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except FileNotFoundError as exc:
        raise DataError(f"{manifest_path}: manifest missing") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{manifest_path}: invalid JSON ({exc})") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("samples"), list):
        raise DataError(f"{manifest_path}: manifest must be a JSON object with a samples list")
    version = manifest.get("version")
    if isinstance(version, bool) or version != MANIFEST_VERSION:
        raise DataError(f"{manifest_path}: unsupported manifest version {json.dumps(version)}")
    base = manifest.get("coordinate_base", 0)
    if isinstance(base, bool) or base not in (0, 1):
        raise DataError(f"{manifest_path}: coordinate_base must be 0 or 1, got {base!r}")
    threshold = _number(manifest.get("positive_threshold", 0.5), f"{manifest_path}: positive_threshold")
    if not np.isfinite(threshold):
        raise DataError(f"{manifest_path}: positive_threshold must be finite, got {threshold}")
    root = manifest_path.parent
    samples = []
    for index, rec in enumerate(manifest["samples"]):
        if not isinstance(rec, dict):
            raise DataError(f"{manifest_path}: sample records must be JSON objects, got {rec!r}")
        vid = rec.get("id")
        if not isinstance(vid, str):
            raise DataError(f"{manifest_path}: sample {index}: id must be a string, got {json.dumps(vid)}")
        seqs: dict[str, FeatureSequence | None] = {}
        for mod in MODALITIES:
            rel = rec.get(f"{mod}_path")
            if rel is not None and not isinstance(rel, str):
                raise DataError(f"sample {vid}: {mod}_path must be a string, got {rel!r}")
            try:
                seqs[mod] = FeatureSequence(read_matrix(root / rel), mod) if rel else None
            except DataError as exc:
                raise DataError(f"sample {vid}: {exc}") from exc
        if not isinstance(rec.get("moments", []), list):
            raise DataError(f"sample {vid}: moments must be a list, got {rec['moments']!r}")
        moments = []
        for m in rec.get("moments", []):
            if not isinstance(m, dict):
                raise DataError(f"sample {vid}: moment record {m!r} needs a numeric center and window")
            center = _number(m.get("center"), f"sample {vid}: moment center")
            window = _number(m.get("window"), f"sample {vid}: moment window")
            try:
                moments.append(MomentAnnotation(center - base, window))
            except DataError as exc:
                raise DataError(f"sample {vid}: {exc}") from exc
        saliency = _numbers(rec["saliency"], f"sample {vid}: saliency") if "saliency" in rec else None
        samples.append(
            VideoSample(
                video_id=vid,
                clip_seconds=_number(rec.get("clip_seconds"), f"sample {vid}: clip_seconds"),
                visual=seqs["visual"],
                audio=seqs["audio"],
                text=seqs["text"],
                moments=moments,
                saliency=saliency,
                positive_threshold=threshold,
            )
        )
    return samples


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


@dataclass
class SynthConfig:
    """Controls for the synthetic corpus generator."""

    n_videos: int = 16
    n_clips: int = 32
    clip_seconds: float = 1.0
    visual_dim: int = 24
    audio_dim: int = 16
    text_dim: int = 20
    n_text_tokens: int = 4
    min_moments: int = 1
    max_moments: int = 2
    min_width_clips: float = 3.0
    max_width_clips: float = 8.0
    snr: float = 2.0
    seed: int = 0
    with_audio: bool = True
    with_text: bool = True

    def validate(self) -> None:
        if self.n_clips < 2:
            raise DataError(f"n_clips must be at least 2, got {self.n_clips}")
        if self.n_videos < 1:
            raise DataError(f"n_videos must be at least 1, got {self.n_videos}")
        if self.min_moments < 0 or self.max_moments < self.min_moments:
            raise DataError(f"bad moments range [{self.min_moments}, {self.max_moments}]")
        if self.snr < 0:
            raise DataError(f"snr must be nonnegative, got {self.snr}")


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def _place_moments(rng: RngState, cfg: SynthConfig) -> list[MomentAnnotation]:
    """Sample non-overlapping moments, in clip units.

    Spans stay strictly inside [0, n_clips) and rounded centers stay at least
    two clips apart so each moment owns a distinct heatmap peak.
    """
    count = int(rng.integers(cfg.min_moments, cfg.max_moments + 1))
    placed: list[tuple[float, float]] = []
    for _ in range(200):
        if len(placed) == count:
            break
        width = float(rng.uniform(cfg.min_width_clips, min(cfg.max_width_clips, cfg.n_clips - 3.0)))
        lo = max(width / 2.0, 1.0)
        hi = cfg.n_clips - 1.0 - width / 2.0
        if hi <= lo:
            continue
        center = float(rng.uniform(lo, hi))
        ok = True
        for c, w in placed:
            if abs(np.floor(center + 0.5) - np.floor(c + 0.5)) < 2:
                ok = False
            if (center - width / 2.0) < (c + w / 2.0) and (c - w / 2.0) < (center + width / 2.0):
                ok = False
        if ok:
            placed.append((center, width))
    return [MomentAnnotation(c, w) for c, w in sorted(placed)]


def synthesize_dataset(cfg: SynthConfig) -> list[VideoSample]:
    """Plant recoverable moments in gaussian noise features.

    Each video carries a latent topic vector. Clips inside a moment receive a
    topic-aligned offset of magnitude ``snr`` (scaled by a per-clip strength
    in [0.6, 1.0], which doubles as the saliency label); text tokens are noisy
    copies of the topic. With ``snr == 0`` the features carry no trace of the
    annotations.
    """
    cfg.validate()
    rng = RngState(cfg.seed)
    # fixed projections from topic space into each modality's feature space
    proj_rng = RngState(cfg.seed + 90001)
    p_vis = proj_rng.normal((cfg.text_dim, cfg.visual_dim))
    p_aud = proj_rng.normal((cfg.text_dim, cfg.audio_dim))
    samples = []
    for v in range(cfg.n_videos):
        topic = rng.normal((cfg.text_dim,))
        vis = rng.normal((cfg.n_clips, cfg.visual_dim))
        aud = rng.normal((cfg.n_clips, cfg.audio_dim))
        moments = _place_moments(rng, cfg)
        saliency = np.zeros(cfg.n_clips)
        vis_dir = _unit(topic @ p_vis)
        aud_dir = _unit(topic @ p_aud)
        for m in moments:
            for i in range(cfg.n_clips):
                if m.start_clips <= i + 0.5 <= m.end_clips:  # clip midpoints inside the span
                    strength = float(rng.uniform(0.6, 1.0))
                    saliency[i] = max(saliency[i], strength)
                    vis[i] += cfg.snr * strength * vis_dir
                    aud[i] += cfg.snr * strength * aud_dir
        text = topic[None, :] + rng.normal((cfg.n_text_tokens, cfg.text_dim), scale=0.1)
        samples.append(
            VideoSample(
                video_id=f"synth{v:04d}",
                clip_seconds=cfg.clip_seconds,
                visual=FeatureSequence(vis, "visual"),
                audio=FeatureSequence(aud, "audio") if cfg.with_audio else None,
                text=FeatureSequence(text, "text") if cfg.with_text else None,
                moments=moments,
                saliency=saliency,
            )
        )
    return samples
