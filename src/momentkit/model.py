"""The joint moment-retrieval / highlight-detection model.

Data flow for one video (sequences are (N, dim) tensors, one sample at a
time):

  visual ----> pre-dropout -> project -> self-attn encoder --+
                                                             |  compress into
  audio  ----> pre-dropout -> project -> self-attn encoder --+  N_b bottleneck
                                                             |  tokens, expand
                                joint = fuse(expanded pair) <-+  back out
  text   ----> pre-dropout -> project ----------------+
                                                      v
  queries = joint attending to text tokens   (or joint + learned seed
                                              positions when text is off)
  decoder: per layer, query self-attention, cross-attention into the joint
  sequence (separate learned positional tables for queries and memory), FFN
  heads: saliency & center heatmap (sigmoid), window (optionally softplus
  so durations stay positive), offset (linear)

With a single input modality the bottleneck stage is skipped and its closing
layer norm moves to the end of that modality's encoder, so disabled
modalities contribute neither parameters nor compute.

Checkpoints are a small versioned container: magic, version, a canonical JSON
header (config + parameter names/shapes) and the raw little-endian float64
parameter payload — written atomically, straight from the parameter arrays,
and byte-identical for identical states. The loader checks every size against
the file's length before it reads, builds the model without drawing an
initialisation, and reads the payload straight into the parameter arrays.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import RngState, Tensor
from .blocks import (
    AttentionParams,
    BottleneckTokens,
    FeedForward,
    LayerNorm,
    Linear,
    Module,
    PositionalEncoding,
    attention,
    compress,
    expand,
    self_attention,
)
from .data import VideoSample

FUSION_MODES = ("sum", "concat", "mean")


class ConfigError(ValueError):
    """Invalid model configuration, or a sample that does not match it."""


class CheckpointError(ValueError):
    """Unreadable or mismatched checkpoint file."""


@dataclass
class ModelConfig:
    model_dim: int = 256
    heads: int = 8
    uni_layers: int = 1
    cross_layers: int = 1
    decoder_layers: int = 1      # 3 suits large retrieval corpora; 1 suits small ones
    query_layers: int = 1
    n_bottleneck: int = 4
    dropout: float = 0.1
    pre_dropout_av: float = 0.5
    pre_dropout_text: float = 0.3
    use_visual: bool = True
    use_audio: bool = True
    use_text: bool = True
    visual_dim: int = 24
    audio_dim: int = 16
    text_dim: int = 20
    max_len: int = 512
    scaled_attention: bool = True
    positive_window: bool = True  # softplus on the window head
    fusion: str = "sum"
    share_cross_weights: bool = False

    def validate(self) -> None:
        if not (self.use_visual or self.use_audio):
            raise ConfigError("at least one of use_visual/use_audio must be enabled")
        for name in ("model_dim", "heads", "uni_layers", "cross_layers", "decoder_layers", "query_layers",
                     "n_bottleneck", "max_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.model_dim % self.heads != 0:
            raise ConfigError(f"model_dim {self.model_dim} not divisible by heads {self.heads}")
        if self.fusion not in FUSION_MODES:
            raise ConfigError(f"fusion must be one of {FUSION_MODES}, got {self.fusion!r}")
        for name in ("dropout", "pre_dropout_av", "pre_dropout_text"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        try:
            cfg = cls(**doc)
        except TypeError as exc:
            raise ConfigError(f"bad config fields: {exc}") from exc
        cfg.validate()
        return cfg


@dataclass
class RawPredictions:
    """Per-clip outputs of the four heads, each an (N,) tensor."""

    saliency: Tensor  # in (0, 1)
    heatmap: Tensor   # in (0, 1)
    window: Tensor    # clips
    offset: Tensor    # clips


class UniModalLayer(Module):
    """Pre-norm self-attention + feed-forward over one modality's sequence."""

    def __init__(self, dim: int, heads: int, drop: float, rng: RngState):
        self.attn = AttentionParams(dim, heads, rng, drop_rate=drop)
        self.norm_attn = LayerNorm(dim)
        self.ff = FeedForward(dim, rng, drop_rate=drop)
        self.norm_ff = LayerNorm(dim)

    def __call__(self, x, pos, scaled, rng):
        x = self_attention(x, self.attn, pos=pos, norm=self.norm_attn, scaled=scaled, rng=rng)
        return self.ff(x, norm=self.norm_ff, rng=rng)


class CrossModalLayer(Module):
    """One round of bottleneck fusion between the two modality sequences.

    The token set is compressed from the visual then the audio sequence (the
    updates accumulate on the same tokens), then each sequence reads the fused
    tokens back out and runs its own feed-forward. With ``share_weights`` the
    audio side reuses the visual attention projections; norms stay separate.
    """

    def __init__(self, dim: int, heads: int, drop: float, rng: RngState, share_weights: bool):
        self.compress_visual = AttentionParams(dim, heads, rng, drop_rate=drop)
        self.expand_visual = AttentionParams(dim, heads, rng, drop_rate=drop)
        self.compress_audio = None if share_weights else AttentionParams(dim, heads, rng, drop_rate=drop)
        self.expand_audio = None if share_weights else AttentionParams(dim, heads, rng, drop_rate=drop)
        self.norm_z_compress_visual = LayerNorm(dim)
        self.norm_x_compress_visual = LayerNorm(dim)
        self.norm_z_compress_audio = LayerNorm(dim)
        self.norm_x_compress_audio = LayerNorm(dim)
        self.norm_x_expand_visual = LayerNorm(dim)
        self.norm_z_expand_visual = LayerNorm(dim)
        self.norm_x_expand_audio = LayerNorm(dim)
        self.norm_z_expand_audio = LayerNorm(dim)
        self.ff_visual = FeedForward(dim, rng, drop_rate=drop)
        self.norm_ff_visual = LayerNorm(dim)
        self.ff_audio = FeedForward(dim, rng, drop_rate=drop)
        self.norm_ff_audio = LayerNorm(dim)

    def __call__(self, vis, aud, z, vis_pos, aud_pos, scaled, rng):
        kw = dict(scaled=scaled, rng=rng)
        z = compress(vis, z, self.compress_visual, pos=vis_pos,
                     norm_x=self.norm_x_compress_visual, norm_z=self.norm_z_compress_visual, **kw)
        z = compress(aud, z, self.compress_audio or self.compress_visual, pos=aud_pos,
                     norm_x=self.norm_x_compress_audio, norm_z=self.norm_z_compress_audio, **kw)
        vis = expand(vis, z, self.expand_visual, pos=vis_pos,
                     norm_x=self.norm_x_expand_visual, norm_z=self.norm_z_expand_visual, **kw)
        aud = expand(aud, z, self.expand_audio or self.expand_visual, pos=aud_pos,
                     norm_x=self.norm_x_expand_audio, norm_z=self.norm_z_expand_audio, **kw)
        vis = self.ff_visual(vis, norm=self.norm_ff_visual, rng=rng)
        aud = self.ff_audio(aud, norm=self.norm_ff_audio, rng=rng)
        return vis, aud, z


class QueryGeneratorLayer(Module):
    """Clip-aligned queries: the joint sequence attends into the text tokens."""

    def __init__(self, dim: int, heads: int, drop: float, rng: RngState):
        self.attn = AttentionParams(dim, heads, rng, drop_rate=drop)
        self.norm_joint = LayerNorm(dim)
        self.norm_text = LayerNorm(dim)

    def __call__(self, joint, text, scaled, rng):
        hq = self.norm_joint(joint)
        ht = self.norm_text(text)
        return attention(self.attn, hq, ht, residual=joint, scaled=scaled, rng=rng)


class DecoderLayer(Module):
    """Query self-attention, cross-attention into the joint sequence, FFN.

    Queries and memory carry independent positional tables: the query table
    feeds both sides of the self-attention and the Q side of the
    cross-attention; the memory table feeds its K side.
    """

    def __init__(self, dim: int, heads: int, drop: float, rng: RngState):
        self.self_attn = AttentionParams(dim, heads, rng, drop_rate=drop)
        self.norm_self = LayerNorm(dim)
        self.cross_attn = AttentionParams(dim, heads, rng, drop_rate=drop)
        self.norm_query = LayerNorm(dim)
        self.ff = FeedForward(dim, rng, drop_rate=drop)
        self.norm_ff = LayerNorm(dim)

    def __call__(self, q, memory, q_pos, m_pos, scaled, rng):
        q = self_attention(q, self.self_attn, pos=q_pos, norm=self.norm_self, scaled=scaled, rng=rng)
        hq = self.norm_query(q)
        q = attention(self.cross_attn, hq, memory, residual=q, q_pos=q_pos, k_pos=m_pos, scaled=scaled, rng=rng)
        return self.ff(q, norm=self.norm_ff, rng=rng)


class MomentModel(Module):
    """Full assembly; parameter layout is a deterministic function of (config, seed)."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self._build(config, RngState(seed))

    def _build(self, config: ModelConfig, rng: RngState) -> None:
        config.validate()
        self.config = config
        dim, heads, drop = config.model_dim, config.heads, config.dropout
        if config.use_visual:
            self.visual_proj = Linear(config.visual_dim, dim, rng)
            self.visual_pos = PositionalEncoding(config.max_len, dim, rng)
            self.visual_encoder = [UniModalLayer(dim, heads, drop, rng) for _ in range(config.uni_layers)]
            self.visual_out_norm = LayerNorm(dim)
        if config.use_audio:
            self.audio_proj = Linear(config.audio_dim, dim, rng)
            self.audio_pos = PositionalEncoding(config.max_len, dim, rng)
            self.audio_encoder = [UniModalLayer(dim, heads, drop, rng) for _ in range(config.uni_layers)]
            self.audio_out_norm = LayerNorm(dim)
        if config.use_visual and config.use_audio:
            self.bottleneck = BottleneckTokens(config.n_bottleneck, dim, rng)
            self.cross_encoder = [
                CrossModalLayer(dim, heads, drop, rng, config.share_cross_weights)
                for _ in range(config.cross_layers)
            ]
            if config.fusion == "concat":
                self.fuse_proj = Linear(2 * dim, dim, rng)
        if config.use_text:
            self.text_proj = Linear(config.text_dim, dim, rng)
            self.query_generator = [
                QueryGeneratorLayer(dim, heads, drop, rng) for _ in range(config.query_layers)
            ]
        else:
            self.query_seed_pos = PositionalEncoding(config.max_len, dim, rng)
        self.query_pos = PositionalEncoding(config.max_len, dim, rng)
        self.memory_pos = PositionalEncoding(config.max_len, dim, rng)
        self.decoder = [DecoderLayer(dim, heads, drop, rng) for _ in range(config.decoder_layers)]
        self.decoder_norm = LayerNorm(dim)
        self.saliency_head = Linear(dim, 1, rng)
        self.heatmap_head = Linear(dim, 1, rng)
        self.window_head = Linear(dim, 1, rng)
        self.offset_head = Linear(dim, 1, rng)

    # -- encoding ----------------------------------------------------------

    def encode_features(self, visual: Tensor | None, audio: Tensor | None, rng: RngState | None = None) -> Tensor:
        """Fuse raw modality features into the joint (N_v, model_dim) sequence."""
        cfg = self.config
        scaled = cfg.scaled_attention
        streams: dict[str, tuple[Tensor, Tensor]] = {}
        for name, feats in (("visual", visual), ("audio", audio)):
            if not getattr(cfg, f"use_{name}"):
                continue
            if feats is None:
                raise ConfigError(f"{name} modality enabled but features are missing")
            x = ag.dropout(feats, cfg.pre_dropout_av, rng)
            x = getattr(self, f"{name}_proj")(x)
            pos = getattr(self, f"{name}_pos").rows(x.shape[0])
            for layer in getattr(self, f"{name}_encoder"):
                x = layer(x, pos, scaled, rng)
            streams[name] = (x, pos)
        if len(streams) == 2:
            vis, vis_pos = streams["visual"]
            aud, aud_pos = streams["audio"]
            if vis.shape[0] < cfg.n_bottleneck:
                raise ConfigError(
                    f"sequence of {vis.shape[0]} clips is shorter than {cfg.n_bottleneck} bottleneck tokens"
                )
            z = self.bottleneck.value()
            for layer in self.cross_encoder:
                vis, aud, z = layer(vis, aud, z, vis_pos, aud_pos, scaled, rng)
            vis = self.visual_out_norm(vis)
            aud = self.audio_out_norm(aud)
            if cfg.fusion == "sum":
                return ag.add(vis, aud)
            if cfg.fusion == "mean":
                return ag.mul(ag.add(vis, aud), 0.5)
            return self.fuse_proj(ag.concat([vis, aud], axis=1))
        # single modality: no bottleneck stage; closing norm sits on the encoder
        ((name, (x, _)),) = streams.items()
        return getattr(self, f"{name}_out_norm")(x)

    def generate_queries(self, joint: Tensor, text: Tensor | None, rng: RngState | None = None) -> Tensor:
        """Build one query per clip, conditioned on text when available."""
        cfg = self.config
        if cfg.use_text:
            if text is None:
                raise ConfigError("text conditioning enabled but text features are missing")
            t = ag.dropout(text, cfg.pre_dropout_text, rng)
            t = self.text_proj(t)
            q = joint
            for layer in self.query_generator:
                q = layer(q, t, cfg.scaled_attention, rng)
            return q
        return ag.add(joint, self.query_seed_pos.rows(joint.shape[0]))

    def decode(self, joint: Tensor, queries: Tensor, rng: RngState | None = None) -> RawPredictions:
        """Run the query decoder and the four heads."""
        cfg = self.config
        n = queries.shape[0]
        q_pos = self.query_pos.rows(n)
        m_pos = self.memory_pos.rows(n)
        q = queries
        for layer in self.decoder:
            q = layer(q, joint, q_pos, m_pos, cfg.scaled_attention, rng)
        q = self.decoder_norm(q)

        def head(linear: Linear) -> Tensor:
            return ag.reshape(linear(q), (n,))

        window = head(self.window_head)
        if cfg.positive_window:
            window = ag.softplus(window)
        return RawPredictions(
            saliency=ag.sigmoid(head(self.saliency_head)),
            heatmap=ag.sigmoid(head(self.heatmap_head)),
            window=window,
            offset=head(self.offset_head),
        )

    # -- sample-level wrappers ----------------------------------------------

    def _sample_tensors(self, sample: VideoSample) -> dict[str, Tensor | None]:
        out: dict[str, Tensor | None] = {}
        for mod in ("visual", "audio", "text"):
            seq = getattr(sample, mod)
            out[mod] = Tensor(seq.array.astype(np.float64)) if seq is not None else None
        return out

    def forward(self, sample: VideoSample, rng: RngState | None = None) -> RawPredictions:
        """All four heads for one sample; a dropout stream ``rng`` makes it a training pass."""
        feats = self._sample_tensors(sample)
        joint = self.encode_features(feats["visual"], feats["audio"], rng)
        queries = self.generate_queries(joint, feats["text"], rng)
        return self.decode(joint, queries, rng)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"MKCK"
_CKPT_VERSION = 1


class _Unfilled(RngState):
    """Hands out uninitialised arrays in place of draws, for parameters a checkpoint is about to fill.

    The arrays may hold at most ``payload`` bytes in all, so a header whose
    configuration needs more parameters than the file holds fails before the
    allocation that would exceed it.
    """

    def __init__(self, path: Path, payload: int):
        super().__init__(0)
        self.path = path
        self.remaining = payload

    def uniform(self, low: float, high: float, shape=None) -> np.ndarray:
        return self.normal(shape)

    def normal(self, shape=None, scale: float = 1.0) -> np.ndarray:
        self.remaining -= 8 * math.prod(shape)
        if self.remaining < 0:
            raise CheckpointError(f"{self.path}: config needs more parameters than the file holds")
        return np.empty(shape)


def save_checkpoint(model: MomentModel, path: str | Path, extra: dict | None = None) -> None:
    """Write model config + parameters atomically; identical states give identical bytes."""
    path = Path(path)
    params = model.named_parameters()
    header = {
        "config": model.config.to_dict(),
        "extra": extra or {},
        "params": [{"name": name, "shape": list(p.shape)} for name, p in params],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", _CKPT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, p in params:
            # the parameter array itself on a little-endian host: nothing is copied
            fh.write(np.ascontiguousarray(p.data, dtype="<f8"))
    os.replace(tmp, path)


def load_checkpoint(path: str | Path) -> tuple[MomentModel, dict]:
    """Rebuild a model from a checkpoint; returns (model, extra header data).

    Every size is checked against the file's length before anything of that
    size is allocated or read, and the payload is read straight into the
    parameter arrays.
    """
    path = Path(path)
    try:
        fh = open(path, "rb")
    except FileNotFoundError as exc:
        raise CheckpointError(f"{path}: checkpoint missing") from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(16)
        if len(prefix) < 16 or prefix[:4] != _CKPT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        version, blob_len = struct.unpack_from("<IQ", prefix, 4)
        if version != _CKPT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        if blob_len > size - 16:
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(blob_len).decode("utf-8"))
            recorded = [(r["name"], tuple(r["shape"])) for r in header["params"]]
            config = ModelConfig.from_dict(header["config"])
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: malformed header ({type(exc).__name__}: {exc})") from exc
        if not all(type(d) is int and d >= 0 for _, shape in recorded for d in shape):
            raise CheckpointError(f"{path}: malformed header (parameter shapes must be non-negative integers)")
        end = 16 + blob_len
        for name, shape in recorded:
            end += 8 * math.prod(shape)
            if end > size:
                raise CheckpointError(f"{path}: truncated payload at {name}")
        model = MomentModel.__new__(MomentModel)
        model._build(config, _Unfilled(path, size - 16 - blob_len))
        params = model.named_parameters()
        if [name for name, _ in recorded] != [n for n, _ in params]:
            raise CheckpointError(f"{path}: parameter names do not match the configuration")
        for (_, shape), (name, p) in zip(recorded, params):
            if shape != p.shape:
                raise CheckpointError(f"{path}: {name} has shape {shape}, model expects {p.shape}")
        if end != size:
            raise CheckpointError(f"{path}: {size - end} trailing bytes")
        for name, p in params:
            dest = memoryview(p.data).cast("B")
            if fh.readinto(dest) != len(dest):  # the file shrank since fstat
                raise CheckpointError(f"{path}: truncated payload at {name}")
            if sys.byteorder == "big":
                p.data.byteswap(inplace=True)
    return model, header.get("extra", {})
