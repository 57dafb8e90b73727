"""Model assembly tests: wiring oracle, shape/degeneracy contracts, checkpoints."""

import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from momentkit import autograd as ag
from momentkit import blocks
from momentkit.autograd import Tensor
from momentkit.data import FeatureSequence, MomentAnnotation, VideoSample
from momentkit.fdcheck import check_gradients
from momentkit.losses import LossWeights, build_targets, regression_losses, saliency_loss, total_loss, focal_center_loss
from momentkit.model import (
    CheckpointError,
    ConfigError,
    ModelConfig,
    MomentModel,
    load_checkpoint,
    save_checkpoint,
)
from momentkit.train import predict, stack_losses

SMALL = dict(
    model_dim=8, heads=2, uni_layers=1, cross_layers=1, decoder_layers=1,
    query_layers=1, n_bottleneck=2, visual_dim=5, audio_dim=4, text_dim=3,
    max_len=96, dropout=0.1, pre_dropout_av=0.5, pre_dropout_text=0.3,
)


def small_config(**overrides) -> ModelConfig:
    return ModelConfig(**{**SMALL, **overrides})


def make_sample(n_clips=6, n_text=3, seed=0, with_audio=True, with_text=True,
                visual_dim=5, audio_dim=4, text_dim=3) -> VideoSample:
    rng = np.random.default_rng(seed)
    return VideoSample(
        video_id=f"s{seed}",
        clip_seconds=1.0,
        visual=FeatureSequence(rng.normal(size=(n_clips, visual_dim)), "visual"),
        audio=FeatureSequence(rng.normal(size=(n_clips, audio_dim)), "audio") if with_audio else None,
        text=FeatureSequence(rng.normal(size=(n_text, text_dim)), "text") if with_text else None,
        moments=[MomentAnnotation(center=2.0, window=3.0)],
        saliency=rng.uniform(0.1, 0.9, size=n_clips),
    )


# ---------------------------------------------------------------------------
# shapes and ranges
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_clips", [4, 16, 75])
def test_forward_shapes_and_ranges(n_clips):
    model = MomentModel(small_config(), seed=1)
    preds = model.forward(make_sample(n_clips=n_clips))
    for field in ("saliency", "heatmap", "window", "offset"):
        assert getattr(preds, field).shape == (n_clips,)
    assert np.all((preds.saliency.data > 0) & (preds.saliency.data < 1))
    assert np.all((preds.heatmap.data > 0) & (preds.heatmap.data < 1))
    assert np.all(preds.window.data > 0)  # softplus head


def test_eval_forward_is_deterministic():
    model = MomentModel(small_config(), seed=2)
    sample = make_sample(seed=3)
    a = model.forward(sample)
    b = model.forward(sample)
    for field in ("saliency", "heatmap", "window", "offset"):
        assert np.array_equal(getattr(a, field).data, getattr(b, field).data)


def test_training_dropout_changes_outputs_but_is_seed_reproducible():
    model = MomentModel(small_config(), seed=4)
    sample = make_sample(seed=5)
    first = model.forward(sample, [np.random.default_rng(11)])
    again = model.forward(sample, [np.random.default_rng(11)])
    other = model.forward(sample, [np.random.default_rng(12)])
    assert np.array_equal(first.heatmap.data, again.heatmap.data)
    assert not np.array_equal(first.heatmap.data, other.heatmap.data)


def recorded_masks(monkeypatch) -> list:
    """Every keep-mask ``autograd`` draws from here on, in draw order."""
    masks, keep_mask = [], ag._keep_mask

    def recording(shape, rate, streams):
        keep = keep_mask(shape, rate, streams)
        if keep is not None:
            masks.append(keep)
        return keep

    monkeypatch.setattr(ag, "_keep_mask", recording)
    return masks


def test_dropout_draws_follow_the_stream(monkeypatch):
    """Dropout streams make a forward draw one mask per dropout site; without them it equals zero-rate dropout."""
    model = MomentModel(small_config(), seed=4)
    sample = make_sample(seed=5)
    masks = recorded_masks(monkeypatch)
    model.forward(sample, [np.random.default_rng(11)])
    # 3 input dropouts + 2 uni-modal layers x (attention + 2 in the FFN) + cross-modal
    # (4 attentions + 2 FFNs x 2) + query generator 1 + decoder (2 attentions + 2 in the FFN)
    assert len(masks) == 3 + 2 * 3 + 8 + 1 + 4 == 22
    # a stack draws the same 22 masks, one row per sample
    masks.clear()
    model.forward([make_sample(seed=5 + i) for i in range(3)], [np.random.default_rng([11, i]) for i in range(3)])
    assert len(masks) == 22 and all(len(m) == 3 for m in masks)
    no_rates = dict(dropout=0.0, pre_dropout_av=0.0, pre_dropout_text=0.0)
    unused = np.random.default_rng(11)
    zero_rate = MomentModel(small_config(**no_rates), seed=4).forward(sample, [unused])
    assert unused.bit_generator.state == np.random.default_rng(11).bit_generator.state
    eval_out = model.forward(sample)
    for field in ("saliency", "heatmap", "window", "offset"):
        assert np.array_equal(getattr(eval_out, field).data, getattr(zero_rate, field).data)


def test_a_stacked_training_forward_draws_each_samples_own_masks(monkeypatch):
    """Row r of every mask a stack draws is bitwise the mask sample r draws alone from its own stream.

    Afterwards each sample's generator is where its lone forward leaves it.
    """
    model = MomentModel(small_config(), seed=4)
    samples = [make_sample(n_clips=7, seed=20 + i) for i in range(3)]
    masks = recorded_masks(monkeypatch)
    stacked = [np.random.default_rng([11, 0, i]) for i in range(3)]
    model.forward(samples, stacked)
    stack_masks = list(masks)
    for i, sample in enumerate(samples):
        masks.clear()
        alone = np.random.default_rng([11, 0, i])
        model.forward(sample, [alone])
        assert len(masks) == len(stack_masks) == 22
        for site, (lone, stack) in enumerate(zip(masks, stack_masks)):
            assert lone.shape[0] == 1 and lone[0].tobytes() == stack[i].tobytes(), (i, site)
        assert stacked[i].bit_generator.state == alone.bit_generator.state, i


@pytest.mark.parametrize("overrides", [{}, dict(use_text=False), dict(use_audio=False)])
def test_a_stacked_forward_equals_each_samples_forward(overrides):
    """Heads of a stack are (B, N) and each row is its sample's own forward, to rounding."""
    model = MomentModel(small_config(**overrides), seed=4)
    samples = [make_sample(n_clips=7, seed=20 + i, with_text=overrides.get("use_text", True),
                           with_audio=overrides.get("use_audio", True)) for i in range(3)]
    rows = model.forward(samples)
    assert len(rows) == 3
    for sample, row in zip(samples, rows):
        alone = model.forward(sample)
        for field in ("saliency", "heatmap", "window", "offset"):
            assert getattr(row, field).shape == (7,)
            np.testing.assert_allclose(getattr(row, field).data, getattr(alone, field).data, rtol=1e-12, atol=1e-14)


def test_decode_needs_a_stack():
    """Unstacked (N, dim) queries would split into N one-clip predictions; they are a ShapeError instead."""
    model = MomentModel(small_config(), seed=4)
    flat = Tensor(np.zeros((6, 8)))
    with pytest.raises(ag.ShapeError, match="stacks"):
        model.decode(flat, flat)


def test_a_stack_needs_samples_of_one_shape():
    model = MomentModel(small_config(), seed=4)
    for stack in ([], [make_sample(n_clips=6), make_sample(n_clips=7)], [make_sample(), make_sample(n_text=2)]):
        with pytest.raises(ConfigError, match="share every input shape"):
            model.forward(stack)


def test_training_forward_tape_node_count():
    """The tape of one training forward and its loss, as backward walks it.

    Each of the 17 ``Linear`` calls is one node, and each of the 14 residual
    connections is one node with the dropout before it (323 nodes before they
    were fused). Each of the four losses and their weighted total is one node
    (292 nodes when they were chains of 40 ops). Each of the three
    self-attentions adds its positional rows once, for queries and keys alike
    (257 nodes when it added them twice).
    """
    model = MomentModel(small_config(), seed=4)
    sample = make_sample(seed=5)
    targets = build_targets(sample.moments, sample.saliency, sample.n_clips)
    ((loss, _),) = stack_losses(model, [sample], [targets], LossWeights(), [np.random.default_rng(11)])
    assert len(ag._topo_order(loss)) == 254


def test_stacked_training_forward_tape_node_count():
    """The interior nodes of a three-sample stack's training forward, its losses and their sum.

    Through the head activations the stack's forward is 126 nodes, as one
    sample's is. Each (B, N, 1) head then splits into one (N,) node per
    sample (12 nodes; 16 when each head was reshaped first), each sample's
    four losses and total are five nodes (15), and two adds sum them.
    """
    model = MomentModel(small_config(), seed=4)
    stack = [make_sample(seed=5 + i) for i in range(3)]
    losses = stack_losses(model, stack, [build_targets(s.moments, s.saliency, s.n_clips) for s in stack],
                          LossWeights(), [np.random.default_rng([11, i]) for i in range(3)])
    total = ag.add(ag.add(losses[0][0], losses[1][0]), losses[2][0])
    assert sum(isinstance(v, ag._Node) for v in ag._topo_order(total)) == 155


# ---------------------------------------------------------------------------
# compositional oracle: forward == explicit chain of block operations
# ---------------------------------------------------------------------------

def manual_forward(model: MomentModel, sample: VideoSample):
    """Re-derive the eval-mode forward pass block by block."""
    xv = model.visual_proj(Tensor(sample.visual.array.astype(np.float64)[None]))
    xa = model.audio_proj(Tensor(sample.audio.array.astype(np.float64)[None]))
    pv = model.visual_pos.rows(xv.shape[1])
    pa = model.audio_pos.rows(xa.shape[1])
    lv = model.visual_encoder[0]
    xv = blocks.self_attention(xv, lv.attn, pos=pv, norm=lv.norm_attn)
    xv = lv.ff(xv, norm=lv.norm_ff)
    la = model.audio_encoder[0]
    xa = blocks.self_attention(xa, la.attn, pos=pa, norm=la.norm_attn)
    xa = la.ff(xa, norm=la.norm_ff)

    cl = model.cross_encoder[0]
    z = model.bottleneck.value((1,))
    z = blocks.compress(xv, z, cl.compress_visual, pos=pv,
                        norm_x=cl.norm_x_compress_visual, norm_z=cl.norm_z_compress_visual)
    z = blocks.compress(xa, z, cl.compress_audio, pos=pa,
                        norm_x=cl.norm_x_compress_audio, norm_z=cl.norm_z_compress_audio)
    ev = blocks.expand(xv, z, cl.expand_visual, pos=pv,
                       norm_x=cl.norm_x_expand_visual, norm_z=cl.norm_z_expand_visual)
    ea = blocks.expand(xa, z, cl.expand_audio, pos=pa,
                       norm_x=cl.norm_x_expand_audio, norm_z=cl.norm_z_expand_audio)
    ev = cl.ff_visual(ev, norm=cl.norm_ff_visual)
    ea = cl.ff_audio(ea, norm=cl.norm_ff_audio)
    joint = ag.add(model.visual_out_norm(ev), model.audio_out_norm(ea))

    t = model.text_proj(Tensor(sample.text.array.astype(np.float64)[None]))
    qg = model.query_generator[0]
    ht = qg.norm_text(t)
    q = blocks.attention(qg.attn, qg.norm_joint(joint), ht, residual=joint)

    n = q.shape[1]
    qp = model.query_pos.rows(n)
    mp = model.memory_pos.rows(n)
    dl = model.decoder[0]
    q = blocks.self_attention(q, dl.self_attn, pos=qp, norm=dl.norm_self)
    q = blocks.attention(dl.cross_attn, dl.norm_query(q), joint,
                         residual=q, q_pos=qp, k_pos=mp)
    q = dl.ff(q, norm=dl.norm_ff)
    q = model.decoder_norm(q).data[0]
    return {
        "saliency": 1.0 / (1.0 + np.exp(-(q @ model.saliency_head.weight.data + model.saliency_head.bias.data).ravel())),
        "heatmap": 1.0 / (1.0 + np.exp(-(q @ model.heatmap_head.weight.data + model.heatmap_head.bias.data).ravel())),
        "window": np.logaddexp(0.0, (q @ model.window_head.weight.data + model.window_head.bias.data).ravel()),
        "offset": (q @ model.offset_head.weight.data + model.offset_head.bias.data).ravel(),
    }


def test_forward_matches_blockwise_composition():
    model = MomentModel(small_config(), seed=6)
    sample = make_sample(n_clips=7, seed=7)
    preds = model.forward(sample)
    want = manual_forward(model, sample)
    for field in ("saliency", "heatmap", "window", "offset"):
        np.testing.assert_allclose(getattr(preds, field).data, want[field], atol=1e-10)


# ---------------------------------------------------------------------------
# query generation
# ---------------------------------------------------------------------------

def test_no_text_queries_are_joint_plus_seed_positions():
    model = MomentModel(small_config(use_text=False), seed=10)
    sample = make_sample(seed=11, with_text=False)
    feats = model._sample_tensors([sample])
    joint = model.encode_features(feats["visual"], feats["audio"])
    queries = model.generate_queries(joint, None)
    want = joint.data + model.query_seed_pos.table.data[: joint.shape[-2]]
    np.testing.assert_allclose(queries.data, want, atol=1e-12)


def test_single_text_token_has_closed_form():
    # one key token: softmax weight is exactly 1 regardless of scores
    model = MomentModel(small_config(), seed=12)
    sample = make_sample(seed=13, n_text=1)
    feats = model._sample_tensors([sample])
    joint = model.encode_features(feats["visual"], feats["audio"])
    queries = model.generate_queries(joint, feats["text"])
    qg = model.query_generator[0]
    t = model.text_proj(feats["text"])
    ht = qg.norm_text(t).data
    want = joint.data + (ht @ qg.attn.w_v.data) @ qg.attn.w_z.data
    np.testing.assert_allclose(queries.data, want, atol=1e-10)


def test_gradients_reach_text_features_from_every_head():
    model = MomentModel(small_config(), seed=14)
    sample = make_sample(seed=15)
    for field in ("saliency", "heatmap", "window", "offset"):
        feats = model._sample_tensors([sample])
        text = feats["text"]
        text.requires_grad = True
        joint = model.encode_features(feats["visual"], feats["audio"])
        queries = model.generate_queries(joint, text)
        (preds,) = model.decode(joint, queries)
        ag.backward(ag.sum_(getattr(preds, field)))
        assert np.linalg.norm(text.grad) > 0.0, field


# ---------------------------------------------------------------------------
# degenerate modes
# ---------------------------------------------------------------------------

def test_visual_only_ignores_audio_bitwise():
    model = MomentModel(small_config(use_audio=False, use_text=False), seed=16)
    base = make_sample(seed=17, with_text=False)
    changed = VideoSample(
        video_id=base.video_id, clip_seconds=base.clip_seconds, visual=base.visual,
        audio=FeatureSequence(np.random.default_rng(99).normal(size=base.audio.array.shape), "audio"),
        moments=base.moments, saliency=base.saliency,
    )
    a = model.forward(base)
    b = model.forward(changed)
    for field in ("saliency", "heatmap", "window", "offset"):
        assert np.array_equal(getattr(a, field).data, getattr(b, field).data)


def test_no_text_ignores_text_bitwise():
    model = MomentModel(small_config(use_text=False), seed=18)
    base = make_sample(seed=19)
    changed = VideoSample(
        video_id=base.video_id, clip_seconds=base.clip_seconds, visual=base.visual,
        audio=base.audio,
        text=FeatureSequence(np.random.default_rng(98).normal(size=base.text.array.shape), "text"),
        moments=base.moments, saliency=base.saliency,
    )
    a = model.forward(base)
    b = model.forward(changed)
    assert np.array_equal(a.heatmap.data, b.heatmap.data)


def test_disabled_modalities_have_no_parameters():
    visual_only = MomentModel(small_config(use_audio=False, use_text=False), seed=20)
    names = [n for n, _ in visual_only.named_parameters()]
    banned = ("audio", "text", "bottleneck", "cross_encoder")
    assert not any(n.startswith(b) for n in names for b in banned)
    audio_only = MomentModel(small_config(use_visual=False, use_text=False), seed=20)
    names = [n for n, _ in audio_only.named_parameters()]
    assert not any(n.startswith("visual") for n in names)


# ---------------------------------------------------------------------------
# validation errors
# ---------------------------------------------------------------------------

def test_enabled_modality_must_be_present():
    model = MomentModel(small_config(), seed=25)
    with pytest.raises(ConfigError, match="audio"):
        model.encode_features(Tensor(np.zeros((4, 5))), None)
    with pytest.raises(ConfigError, match="text"):
        model.generate_queries(Tensor(np.zeros((4, 8))), None)


def test_too_few_clips_for_bottleneck():
    model = MomentModel(small_config(n_bottleneck=4), seed=26)
    with pytest.raises(ConfigError, match="bottleneck"):
        model.forward(make_sample(n_clips=3, seed=27))


def test_sequence_longer_than_positional_table():
    model = MomentModel(small_config(max_len=8), seed=28)
    with pytest.raises(ag.ShapeError):
        model.forward(make_sample(n_clips=9, seed=29))


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(use_visual=False, use_audio=False).validate()
    with pytest.raises(ConfigError):
        ModelConfig(model_dim=10, heads=4).validate()
    for field, size in (("heads", 0), ("heads", -2), ("model_dim", 0)):
        with pytest.raises(ConfigError, match=field):
            ModelConfig(**{field: size}).validate()
        with pytest.raises(ConfigError, match=field):
            MomentModel(small_config(**{field: size}))
    with pytest.raises(ConfigError, match=re.escape("config.fusion")):
        ModelConfig.from_dict({"model_dim": 8, "heads": 2, "fusion": "max"})
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"model_dim": 8, "heads": 2, "no_such_field": 1})
    for field, rate in (("dropout", -0.5), ("dropout", 1.5), ("pre_dropout_av", -0.2),
                        ("pre_dropout_text", 1.0), ("dropout", float("nan"))):
        with pytest.raises(ConfigError, match=field):
            ModelConfig(**{field: rate}).validate()
        with pytest.raises(ConfigError, match=field):
            MomentModel(small_config(**{field: rate}))


# ---------------------------------------------------------------------------
# full-model gradient check (reduced size; the acceptance suite widens this)
# ---------------------------------------------------------------------------

def test_full_model_finite_difference():
    model = MomentModel(small_config(), seed=30)
    sample = make_sample(n_clips=4, seed=31)
    targets = build_targets(sample.moments, sample.saliency, n_clips=4)
    feats = model._sample_tensors([sample])

    def loss_fn():
        joint = model.encode_features(feats["visual"], feats["audio"])
        queries = model.generate_queries(joint, feats["text"])
        (preds,) = model.decode(joint, queries)
        l_s = saliency_loss(preds.saliency, targets.saliency_targets)
        l_c = focal_center_loss(preds.heatmap, targets.heatmap, targets.n_moments)
        l_w, l_o = regression_losses(preds.window, preds.offset, targets)
        return total_loss(l_s, l_c, l_w, l_o)

    report = check_gradients(
        loss_fn, model.named_parameters(),
        max_coords_per_param=3, rng=np.random.default_rng(0),
    )
    assert report.checked >= 150
    assert report.ok(1e-4), (report.worst_param, report.max_rel_err)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_and_byte_determinism(tmp_path):
    # the second layout catches a loader that rebuilds the default topology
    for cfg in (small_config(), small_config(use_text=False, cross_layers=2)):
        model = MomentModel(cfg, seed=32)
        sample = make_sample(seed=33)
        before = model.forward(sample)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1, extra={"epoch": 3})
        save_checkpoint(model, p2, extra={"epoch": 3})
        assert p1.read_bytes() == p2.read_bytes()

        loaded, extra = load_checkpoint(p1)
        assert extra == {"epoch": 3}
        assert loaded.config == model.config
        for (na, a), (nb, b) in zip(model.named_parameters(), loaded.named_parameters()):
            assert na == nb
            assert np.array_equal(a.data, b.data)
        after = loaded.forward(sample)
        for field in ("saliency", "heatmap", "window", "offset"):
            assert np.array_equal(getattr(before, field).data, getattr(after, field).data)


def _payload_start(raw: bytes) -> int:
    return 16 + struct.unpack_from("<Q", raw, 8)[0]


def _header_set(*path, value):
    def rewrite(raw: bytes) -> bytes:
        start = _payload_start(raw)
        doc = json.loads(raw[16:start])
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        blob = json.dumps(doc).encode("utf-8")
        return raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[start:]
    return rewrite


# edit of a good checkpoint's bytes (None: delete the file) -> expected message
CORRUPT_CHECKPOINTS = {
    "missing file": (None, "checkpoint missing"),
    "not a checkpoint": (lambda raw: b"not a checkpoint", "not a checkpoint"),
    "version 2": (lambda raw: raw[:4] + struct.pack("<I", 2) + raw[8:], "unsupported checkpoint version 2"),
    "header length 2**62": (lambda raw: raw[:8] + struct.pack("<Q", 2**62) + raw[16:], "truncated header"),
    "header not UTF-8": (lambda raw: raw[:16] + b"\xff" + raw[17:], "malformed header"),
    "config without the audio parameters": (
        _header_set("config", "use_audio", value=False), "parameter names do not match"),
    "first parameter reshaped": (
        _header_set("params", 0, "shape", value=[1, 1]), "visual_proj.weight has shape (1, 1)"),
    "payload cut in the first parameter": (
        lambda raw: raw[:_payload_start(raw) + 12], "truncated payload at visual_proj.weight"),
    "payload cut in the last parameter": (lambda raw: raw[:-3], "truncated payload at offset_head.bias"),
    "one appended byte": (lambda raw: raw + b"\0", "1 trailing bytes"),
    "negative shape entry": (_header_set("params", 0, "shape", value=[-1, 8]), "malformed header"),
    "fractional shape entry": (_header_set("params", 0, "shape", value=[1.5, 8]), "malformed header"),
    "config max_len 2**45": (
        _header_set("config", "max_len", value=2**45), "config needs more parameters than the file holds"),
}


def test_checkpoint_rejects_garbage_and_truncation(tmp_path):
    model = MomentModel(small_config(), seed=34)
    good = tmp_path / "good.ckpt"
    save_checkpoint(model, good)
    for case, (edit, message) in CORRUPT_CHECKPOINTS.items():
        path = tmp_path / f"{case}.ckpt"
        if edit is not None:
            path.write_bytes(edit(good.read_bytes()))
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)


def test_checkpoint_save_of_a_load_reproduces_the_file(tmp_path):
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(MomentModel(small_config(), seed=35), first, extra={"epochs": 2, "loss_history": [0.5, 0.25]})
    model, extra = load_checkpoint(first)
    save_checkpoint(model, second, extra=extra)
    assert second.read_bytes() == first.read_bytes()


def test_checkpoint_header_may_carry_retired_keys_at_their_value_only(tmp_path):
    samples = [make_sample(seed=38), make_sample(n_clips=9, seed=39)]
    good = tmp_path / "good.ckpt"
    save_checkpoint(MomentModel(small_config(), seed=37), good)
    # the four switches an older writer put in every header, at the one value each still loads with
    retired = {"scaled_attention": True, "positive_window": True, "fusion": "sum", "share_cross_weights": False}
    raw = good.read_bytes()
    for key, value in retired.items():
        raw = _header_set("config", key, value=value)(raw)
    old = tmp_path / "old.ckpt"
    old.write_bytes(raw)
    for ckpt in (good, old):
        predict(load_checkpoint(ckpt)[0], samples, ckpt.with_suffix(".jsonl"))
    assert (tmp_path / "old.jsonl").read_bytes() == (tmp_path / "good.jsonl").read_bytes()

    for key, value in (("scaled_attention", False), ("scaled_attention", 1), ("positive_window", False),
                       ("fusion", "concat"), ("fusion", "mean"), ("share_cross_weights", True)):
        old.write_bytes(_header_set("config", key, value=value)(good.read_bytes()))
        with pytest.raises(ConfigError, match=re.escape(f"config.{key}")):
            load_checkpoint(old)


def test_checkpoint_load_holds_about_one_copy_of_the_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(MomentModel(small_config(model_dim=128, max_len=256), seed=36), path)
    tracemalloc.start()
    try:
        load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * path.stat().st_size
