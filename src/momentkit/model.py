"""The joint moment-retrieval / highlight-detection model.

Data flow (every forward runs a stack of B videos that share every input
shape over (B, N, dim) tensors; a lone video is a stack of one):

  visual ----> pre-dropout -> project -> self-attn encoder --+
                                                             |  compress into
  audio  ----> pre-dropout -> project -> self-attn encoder --+  N_b bottleneck
                                                             |  tokens, expand
                             joint = sum of the normed pair <-+  back out
  text   ----> pre-dropout -> project ----------------+
                                                      v
  queries = joint attending to text tokens   (or joint + learned seed
                                              positions when text is off)
  decoder: per layer, query self-attention, cross-attention into the joint
  sequence (separate learned positional tables for queries and memory), FFN
  heads: saliency & center heatmap (sigmoid), window (softplus so durations
  stay positive), offset (linear); each (B, N, 1) head splits once into one
  (N,) row per video

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
import types
import typing
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import Tensor
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
from .data import MAX_DIM, MODALITIES, VideoSample, is_number


class ConfigError(ValueError):
    """Invalid model configuration, or a sample that does not match it."""


class CheckpointError(ValueError):
    """Unreadable or mismatched checkpoint file."""


def fits(value: object, hint) -> bool:
    """Whether ``value`` has the declared type ``hint``; a float field takes any value ``data.is_number`` accepts."""
    if isinstance(hint, types.UnionType):
        return any(fits(value, h) for h in typing.get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return is_number(value)
    return isinstance(value, hint)


def check_field_types(cfg, label: str, error: type[Exception]) -> None:
    """Raise ``error`` naming ``<label>.<field>`` at the first field of dataclass ``cfg`` of the wrong type.

    Configuration read from a file (``--config``) and from a checkpoint header
    goes through this one check before anything compares or counts with it.
    """
    hints = typing.get_type_hints(type(cfg))
    for f in fields(cfg):
        value, hint = getattr(cfg, f.name), hints[f.name]
        if not fits(value, hint):
            raise error(f"{label}.{f.name} must be {getattr(hint, '__name__', hint)}, got {json.dumps(value)}")


# retired topology switches that version-1 headers still carry, each with the one value that loads
_RETIRED = {"scaled_attention": True, "positive_window": True, "fusion": "sum", "share_cross_weights": False}


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

    def validate(self) -> None:
        if not (self.use_visual or self.use_audio):
            raise ConfigError("at least one of use_visual/use_audio must be enabled")
        for name in ("model_dim", "heads", "uni_layers", "cross_layers", "decoder_layers", "query_layers",
                     "n_bottleneck", "max_len", "visual_dim", "audio_dim", "text_dim"):
            if not 1 <= getattr(self, name) <= MAX_DIM:
                raise ConfigError(f"{name} must lie in [1, {MAX_DIM}]")
        if self.model_dim % self.heads != 0:
            raise ConfigError(f"model_dim {self.model_dim} not divisible by heads {self.heads}")
        for name in ("dropout", "pre_dropout_av", "pre_dropout_text"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        """A validated config from a checkpoint header; a field of the wrong type raises ``TypeError``.

        A header may still carry a retired switch, but only at the one value
        the model builds.
        """
        doc = {**doc}
        for key, value in _RETIRED.items():
            got = doc.pop(key, value)
            if type(got) is not type(value) or got != value:
                raise ConfigError(f"config.{key} is retired; only {json.dumps(value)} loads, got {json.dumps(got)}")
        try:
            cfg = cls(**doc)
        except TypeError as exc:
            raise ConfigError(f"bad config fields: {exc}") from exc
        check_field_types(cfg, "config", TypeError)
        cfg.validate()
        return cfg


def input_shapes(sample: VideoSample) -> tuple:
    """The shape of each modality's features (``None`` where absent): samples that agree on all three stack."""
    return tuple(None if seq is None else seq.array.shape for seq in (getattr(sample, m) for m in MODALITIES))


@dataclass
class RawPredictions:
    """Per-clip outputs of the four heads for one sample, each an (N,) tensor."""

    saliency: Tensor  # in (0, 1)
    heatmap: Tensor   # in (0, 1)
    window: Tensor    # clips
    offset: Tensor    # clips


def _attention_params(config: ModelConfig, rng: np.random.Generator) -> AttentionParams:
    """One attention block with the configured width, heads and dropout."""
    return AttentionParams(config.model_dim, config.heads, rng, drop_rate=config.dropout)


def _feed_forward(config: ModelConfig, rng: np.random.Generator) -> FeedForward:
    return FeedForward(config.model_dim, rng, drop_rate=config.dropout)


class UniModalLayer(Module):
    """Pre-norm self-attention + feed-forward over one modality's sequence."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.attn = _attention_params(config, rng)
        self.norm_attn = LayerNorm(config.model_dim)
        self.ff = _feed_forward(config, rng)
        self.norm_ff = LayerNorm(config.model_dim)

    def __call__(self, x, pos, streams):
        x = self_attention(x, self.attn, pos=pos, norm=self.norm_attn, streams=streams)
        return self.ff(x, norm=self.norm_ff, streams=streams)


class CrossModalLayer(Module):
    """One round of bottleneck fusion between the two modality sequences.

    The token set is compressed from the visual then the audio sequence (the
    updates accumulate on the same tokens), then each sequence reads the fused
    tokens back out and runs its own feed-forward. Each of the four attentions
    has its own weights.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        dim = config.model_dim
        self.compress_visual = _attention_params(config, rng)
        self.expand_visual = _attention_params(config, rng)
        self.compress_audio = _attention_params(config, rng)
        self.expand_audio = _attention_params(config, rng)
        self.norm_z_compress_visual = LayerNorm(dim)
        self.norm_x_compress_visual = LayerNorm(dim)
        self.norm_z_compress_audio = LayerNorm(dim)
        self.norm_x_compress_audio = LayerNorm(dim)
        self.norm_x_expand_visual = LayerNorm(dim)
        self.norm_z_expand_visual = LayerNorm(dim)
        self.norm_x_expand_audio = LayerNorm(dim)
        self.norm_z_expand_audio = LayerNorm(dim)
        self.ff_visual = _feed_forward(config, rng)
        self.norm_ff_visual = LayerNorm(dim)
        self.ff_audio = _feed_forward(config, rng)
        self.norm_ff_audio = LayerNorm(dim)

    def __call__(self, vis, aud, z, vis_pos, aud_pos, streams):
        z = compress(vis, z, self.compress_visual, pos=vis_pos,
                     norm_x=self.norm_x_compress_visual, norm_z=self.norm_z_compress_visual, streams=streams)
        z = compress(aud, z, self.compress_audio, pos=aud_pos,
                     norm_x=self.norm_x_compress_audio, norm_z=self.norm_z_compress_audio, streams=streams)
        vis = expand(vis, z, self.expand_visual, pos=vis_pos,
                     norm_x=self.norm_x_expand_visual, norm_z=self.norm_z_expand_visual, streams=streams)
        aud = expand(aud, z, self.expand_audio, pos=aud_pos,
                     norm_x=self.norm_x_expand_audio, norm_z=self.norm_z_expand_audio, streams=streams)
        vis = self.ff_visual(vis, norm=self.norm_ff_visual, streams=streams)
        aud = self.ff_audio(aud, norm=self.norm_ff_audio, streams=streams)
        return vis, aud, z


class QueryGeneratorLayer(Module):
    """Clip-aligned queries: the joint sequence attends into the text tokens."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.attn = _attention_params(config, rng)
        self.norm_joint = LayerNorm(config.model_dim)
        self.norm_text = LayerNorm(config.model_dim)

    def __call__(self, joint, text, streams):
        hq = self.norm_joint(joint)
        ht = self.norm_text(text)
        return attention(self.attn, hq, ht, residual=joint, streams=streams)


class DecoderLayer(Module):
    """Query self-attention, cross-attention into the joint sequence, FFN.

    Queries and memory carry independent positional tables: the query table
    feeds both sides of the self-attention and the Q side of the
    cross-attention; the memory table feeds its K side.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        dim = config.model_dim
        self.self_attn = _attention_params(config, rng)
        self.norm_self = LayerNorm(dim)
        self.cross_attn = _attention_params(config, rng)
        self.norm_query = LayerNorm(dim)
        self.ff = _feed_forward(config, rng)
        self.norm_ff = LayerNorm(dim)

    def __call__(self, q, memory, q_pos, m_pos, streams):
        q = self_attention(q, self.self_attn, pos=q_pos, norm=self.norm_self, streams=streams)
        hq = self.norm_query(q)
        q = attention(self.cross_attn, hq, memory, residual=q, q_pos=q_pos, k_pos=m_pos, streams=streams)
        return self.ff(q, norm=self.norm_ff, streams=streams)


class MomentModel(Module):
    """Full assembly; parameter layout is a deterministic function of (config, seed)."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self._build(config, np.random.default_rng(seed))

    def _build(self, config: ModelConfig, rng: np.random.Generator) -> None:
        config.validate()
        self.config = config
        dim = config.model_dim
        if config.use_visual:
            self.visual_proj = Linear(config.visual_dim, dim, rng)
            self.visual_pos = PositionalEncoding(config.max_len, dim, rng)
            self.visual_encoder = [UniModalLayer(config, rng) for _ in range(config.uni_layers)]
            self.visual_out_norm = LayerNorm(dim)
        if config.use_audio:
            self.audio_proj = Linear(config.audio_dim, dim, rng)
            self.audio_pos = PositionalEncoding(config.max_len, dim, rng)
            self.audio_encoder = [UniModalLayer(config, rng) for _ in range(config.uni_layers)]
            self.audio_out_norm = LayerNorm(dim)
        if config.use_visual and config.use_audio:
            self.bottleneck = BottleneckTokens(config.n_bottleneck, dim, rng)
            self.cross_encoder = [CrossModalLayer(config, rng) for _ in range(config.cross_layers)]
        if config.use_text:
            self.text_proj = Linear(config.text_dim, dim, rng)
            self.query_generator = [QueryGeneratorLayer(config, rng) for _ in range(config.query_layers)]
        else:
            self.query_seed_pos = PositionalEncoding(config.max_len, dim, rng)
        self.query_pos = PositionalEncoding(config.max_len, dim, rng)
        self.memory_pos = PositionalEncoding(config.max_len, dim, rng)
        self.decoder = [DecoderLayer(config, rng) for _ in range(config.decoder_layers)]
        self.decoder_norm = LayerNorm(dim)
        self.saliency_head = Linear(dim, 1, rng)
        self.heatmap_head = Linear(dim, 1, rng)
        self.window_head = Linear(dim, 1, rng)
        self.offset_head = Linear(dim, 1, rng)

    # -- encoding ----------------------------------------------------------

    def encode_features(self, visual: Tensor | None, audio: Tensor | None,
                        streams: Sequence[np.random.Generator] | None = None) -> Tensor:
        """Fuse (B, N, dim) modality features into the joint (B, N_v, model_dim) sequences."""
        cfg = self.config
        enabled = {name: feats for name, feats in (("visual", visual), ("audio", audio)) if getattr(cfg, f"use_{name}")}
        for name, feats in enabled.items():
            if feats is None:
                raise ConfigError(f"{name} modality enabled but features are missing")
        encoded: dict[str, tuple[Tensor, Tensor]] = {}
        for name, feats in enabled.items():
            x = ag.dropout(feats, cfg.pre_dropout_av, streams)
            x = getattr(self, f"{name}_proj")(x)
            pos = getattr(self, f"{name}_pos").rows(x.shape[-2])
            for layer in getattr(self, f"{name}_encoder"):
                x = layer(x, pos, streams)
            encoded[name] = (x, pos)
        if len(encoded) == 2:
            vis, vis_pos = encoded["visual"]
            aud, aud_pos = encoded["audio"]
            if vis.shape[-2] < cfg.n_bottleneck:
                raise ConfigError(
                    f"sequence of {vis.shape[-2]} clips is shorter than {cfg.n_bottleneck} bottleneck tokens"
                )
            z = self.bottleneck.value(vis.shape[:-2])
            for layer in self.cross_encoder:
                vis, aud, z = layer(vis, aud, z, vis_pos, aud_pos, streams)
            return ag.add(self.visual_out_norm(vis), self.audio_out_norm(aud))
        # single modality: no bottleneck stage; closing norm sits on the encoder
        ((name, (x, _)),) = encoded.items()
        return getattr(self, f"{name}_out_norm")(x)

    def generate_queries(self, joint: Tensor, text: Tensor | None,
                         streams: Sequence[np.random.Generator] | None = None) -> Tensor:
        """Build one query per clip, conditioned on text when available."""
        cfg = self.config
        if cfg.use_text:
            if text is None:
                raise ConfigError("text conditioning enabled but text features are missing")
            t = ag.dropout(text, cfg.pre_dropout_text, streams)
            t = self.text_proj(t)
            q = joint
            for layer in self.query_generator:
                q = layer(q, t, streams)
            return q
        return ag.add(joint, self.query_seed_pos.rows(joint.shape[-2]))

    def decode(self, joint: Tensor, queries: Tensor,
               streams: Sequence[np.random.Generator] | None = None) -> list[RawPredictions]:
        """Run the query decoder and the four heads over a (B, N, dim) stack: one sample's predictions per row."""
        n = queries.shape[-2]
        q_pos = self.query_pos.rows(n)
        m_pos = self.memory_pos.rows(n)
        q = queries
        for layer in self.decoder:
            q = layer(q, joint, q_pos, m_pos, streams)
        q = self.decoder_norm(q)
        heads = (ag.sigmoid(self.saliency_head(q)), ag.sigmoid(self.heatmap_head(q)),
                 ag.softplus(self.window_head(q)), self.offset_head(q))
        return [RawPredictions(*row) for row in zip(*map(ag.unstack, heads))]

    # -- sample-level wrappers ----------------------------------------------

    def _sample_tensors(self, samples: Sequence[VideoSample]) -> dict[str, Tensor | None]:
        """Each modality's features as one (B, N, dim) stack of samples that share every input shape."""
        if len({input_shapes(s) for s in samples}) != 1:
            raise ConfigError("a stack needs at least one sample, and its samples must share every input shape")
        out: dict[str, Tensor | None] = {}
        for mod in MODALITIES:
            seqs = [getattr(s, mod) for s in samples]
            out[mod] = None if seqs[0] is None else Tensor(np.stack([seq.array for seq in seqs]).astype(np.float64))
        return out

    def forward(self, samples: VideoSample | Sequence[VideoSample],
                streams: Sequence[np.random.Generator] | None = None) -> RawPredictions | list[RawPredictions]:
        """All four heads of one sample, or of each sample of a list that share every input shape.

        Either way one forward runs over (B, N, dim) sequences, a lone sample as
        a stack of one: it returns that sample's (N,) predictions, and a list
        returns one per sample. Dropout ``streams``, one generator per sample of
        the stack, make it a training pass. Each sample's rows of every dropout
        mask are drawn from its own generator, so its masks do not depend on
        what it is stacked with.
        """
        one = isinstance(samples, VideoSample)
        feats = self._sample_tensors([samples] if one else samples)
        joint = self.encode_features(feats["visual"], feats["audio"], streams)
        queries = self.generate_queries(joint, feats["text"], streams)
        preds = self.decode(joint, queries, streams)
        return preds[0] if one else preds


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"MKCK"
_CKPT_VERSION = 1


class _Unfilled:
    """Hands out uninitialised arrays in place of a generator's draws, for parameters a checkpoint is about to fill.

    The arrays may hold at most ``payload`` bytes in all, so a header whose
    configuration needs more parameters than the file holds fails before the
    allocation that would exceed it.
    """

    def __init__(self, path: Path, payload: int):
        self.path = path
        self.remaining = payload

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return self.normal(0.0, 1.0, shape)

    def normal(self, loc: float, scale: float, shape) -> np.ndarray:
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
            # a ValueError here is text that is not UTF-8 or not JSON, or an integer literal past the
            # 4300-digit limit; ModelConfig.from_dict's own ConfigError is raised outside this clause
            header = json.loads(fh.read(blob_len).decode("utf-8"))
            recorded = [(r["name"], tuple(r["shape"])) for r in header["params"]]
            config_doc = header["config"]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: malformed header ({type(exc).__name__}: {exc})") from exc
        try:
            config = ModelConfig.from_dict(config_doc)
        except TypeError as exc:
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
