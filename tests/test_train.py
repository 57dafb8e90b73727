"""Training loop, optimizer, evaluation, and prediction plumbing."""

import hashlib
import math

import numpy as np
import pytest

from momentkit import autograd as ag
from momentkit.autograd import NumericError, Tensor
from momentkit.data import DataError, SynthConfig, VideoSample, synthesize_dataset
from momentkit.decode import read_predictions
from momentkit.metrics import build_report
from momentkit.model import ConfigError, ModelConfig, MomentModel
from momentkit.train import AdamW, TrainConfig, evaluate, predict, train

MODEL = dict(
    model_dim=8, heads=2, uni_layers=1, cross_layers=1, decoder_layers=1,
    n_bottleneck=2, visual_dim=6, audio_dim=5, text_dim=4, max_len=16,
)


def tiny_dataset(n=3, n_clips=8, seed=0):
    cfg = SynthConfig(
        n_videos=n, n_clips=n_clips, visual_dim=6, audio_dim=5, text_dim=4,
        n_text_tokens=3, max_moments=1, min_width_clips=3.0, max_width_clips=4.0, seed=seed,
    )
    return synthesize_dataset(cfg)


def make_model(seed=5, **overrides):
    return MomentModel(ModelConfig(**{**MODEL, **overrides}), seed=seed)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_adamw_matches_reference_updates():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = AdamW([("p", p)], lr=0.1, weight_decay=0.01)
    ref = p.data.copy()
    m = np.zeros(2)
    v = np.zeros(2)
    for t in range(1, 4):
        g = np.array([0.5, -1.5]) * t
        p.grad = g.copy()
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        ref = ref - 0.1 * (m_hat / (np.sqrt(v_hat) + 1e-8) + 0.01 * ref)
        np.testing.assert_allclose(p.data, ref, atol=1e-12)


def test_weight_decay_is_decoupled_from_gradients():
    # with zero gradient the update is a pure multiplicative shrink
    p = Tensor(np.array([2.0, -4.0]), requires_grad=True)
    p.grad = np.zeros(2)
    opt = AdamW([("p", p)], lr=0.1, weight_decay=0.5)
    opt.step()
    np.testing.assert_allclose(p.data, np.array([2.0, -4.0]) * (1 - 0.1 * 0.5), atol=1e-12)


def test_gradient_clipping_scales_to_max_norm():
    p = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    p.grad = np.array([3.0, 4.0])
    opt = AdamW([("p", p)])
    norm = opt.clip_gradients(1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0)
    p.grad = np.array([0.1, 0.0])
    assert opt.clip_gradients(1.0) == pytest.approx(0.1)
    np.testing.assert_allclose(p.grad, [0.1, 0.0])  # below the cap: untouched


def test_gradient_clipping_scales_shared_gradients_once():
    # ``add`` hands one upstream gradient to both leaves, so their gradients may share memory
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.full(3, 2.0), requires_grad=True)
    weights = np.array([3.0, 4.0, 0.0])
    ag.backward(ag.sum_(ag.mul(ag.add(a, b), weights)))
    opt = AdamW([("a", a), ("b", b)])
    assert opt.clip_gradients(1.0) == pytest.approx(math.sqrt(50.0))
    scale = 1.0 / math.sqrt(50.0)
    assert np.array_equal(a.grad, weights * scale)
    assert np.array_equal(b.grad, weights * scale)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_zero_learning_rate_leaves_parameters_unchanged():
    model = make_model()
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    train(model, tiny_dataset(), TrainConfig(learning_rate=0.0, weight_decay=0.0, epochs=1, batch_size=2, seed=0))
    for name, p in model.named_parameters():
        assert np.array_equal(before[name], p.data), name


def test_same_seed_gives_identical_runs(tmp_path):
    samples = tiny_dataset()
    cfg = TrainConfig(epochs=3, batch_size=2, seed=7)
    r1 = train(make_model(), samples, cfg, out_dir=tmp_path / "a")
    r2 = train(make_model(), samples, cfg, out_dir=tmp_path / "b")
    assert r1.loss_history == r2.loss_history
    assert r1.component_history == r2.component_history
    assert (tmp_path / "a" / "final.ckpt").read_bytes() == (tmp_path / "b" / "final.ckpt").read_bytes()
    r3 = train(make_model(), samples, TrainConfig(epochs=3, batch_size=2, seed=8))
    assert r3.loss_history != r1.loss_history


# sha256 of the checkpoint that test_checkpoint_bytes_are_pinned trains; a change
# that moves checkpoint bytes updates it and records the move in CHANGES.md
PINNED_CHECKPOINT_SHA256 = "d926c9559271079e7c0d1f3772ca76cd8b399f5da90d95014e40531777f89cee"


def test_checkpoint_bytes_are_pinned(tmp_path):
    """Two epochs with dropout and batches of two: the final checkpoint's bytes do not move."""
    model = make_model(seed=3)
    train(model, tiny_dataset(n=4, seed=2), TrainConfig(epochs=2, batch_size=2, seed=1), tmp_path)
    assert hashlib.sha256((tmp_path / "final.ckpt").read_bytes()).hexdigest() == PINNED_CHECKPOINT_SHA256


def test_loss_decreases_on_tiny_overfit():
    samples = tiny_dataset(n=2)
    model = make_model(seed=3)
    result = train(model, samples, TrainConfig(epochs=30, batch_size=2, seed=1))
    assert len(result.loss_history) == 30
    assert result.loss_history[-1] < 0.7 * result.loss_history[0]


def test_non_finite_loss_aborts_with_location():
    model = make_model()
    model.saliency_head.weight.data[:] = np.nan
    with pytest.raises(NumericError, match="epoch 0 batch 0"):
        train(model, tiny_dataset(), TrainConfig(epochs=1, batch_size=4, seed=0))


def test_single_task_training_freezes_the_other_tasks_heads():
    samples = tiny_dataset()
    hd_model = make_model()
    snap = {n: p.data.copy() for n, p in hd_model.named_parameters()}
    train(hd_model, samples, TrainConfig(epochs=2, batch_size=4, weight_decay=0.0, tasks="hd", seed=0))
    for head in ("heatmap_head", "window_head", "offset_head"):
        assert np.array_equal(getattr(hd_model, head).weight.data, snap[f"{head}.weight"]), head
    assert not np.array_equal(hd_model.saliency_head.weight.data, snap["saliency_head.weight"])

    mr_model = make_model()
    snap = {n: p.data.copy() for n, p in mr_model.named_parameters()}
    train(mr_model, samples, TrainConfig(epochs=2, batch_size=4, weight_decay=0.0, tasks="mr", seed=0))
    assert np.array_equal(mr_model.saliency_head.weight.data, snap["saliency_head.weight"])
    assert not np.array_equal(mr_model.heatmap_head.weight.data, snap["heatmap_head.weight"])


def test_periodic_checkpoints(tmp_path):
    result = train(
        make_model(), tiny_dataset(2),
        TrainConfig(epochs=4, batch_size=2, checkpoint_every=2, seed=0), out_dir=tmp_path,
    )
    assert [p.name for p in result.checkpoints] == ["epoch0002.ckpt", "final.ckpt"]
    assert all(p.exists() for p in result.checkpoints)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(tasks="everything").validate()
    with pytest.raises(ValueError):
        TrainConfig(clip_norm=-1.0).validate()
    with pytest.raises(DataError):
        train(make_model(), [], TrainConfig(epochs=1))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_task_selection_and_determinism():
    samples = tiny_dataset(4)
    model = make_model()
    both = evaluate(model, samples, tasks="both")
    assert both.map_avg is not None and both.hd_map is not None and both.top5_map is not None
    hd = evaluate(model, samples, tasks="hd")
    assert hd.r1_at is None and hd.map_avg is None and hd.hd_map is not None
    mr = evaluate(model, samples, tasks="mr")
    assert mr.hd_map is None and mr.map_avg is not None
    again = evaluate(model, samples, tasks="both")
    assert both.as_dict() == again.as_dict()
    with pytest.raises(ValueError, match="task"):
        evaluate(model, samples, tasks="everything")


def test_evaluate_requires_matching_annotations():
    samples = tiny_dataset(2)
    no_moments = [
        VideoSample(video_id=s.video_id, clip_seconds=s.clip_seconds, visual=s.visual,
                    audio=s.audio, text=s.text, moments=[], saliency=s.saliency)
        for s in samples
    ]
    with pytest.raises(DataError, match="moment"):
        evaluate(make_model(), no_moments, tasks="mr")
    no_saliency = [
        VideoSample(video_id=s.video_id, clip_seconds=s.clip_seconds, visual=s.visual,
                    audio=s.audio, text=s.text, moments=s.moments, saliency=None)
        for s in samples
    ]
    with pytest.raises(DataError, match="saliency"):
        evaluate(make_model(), no_saliency, tasks="hd")


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_predict_roundtrips_through_the_metrics_module(tmp_path):
    samples = tiny_dataset(3)
    model = make_model()
    out = tmp_path / "preds.jsonl"
    records = predict(model, samples, out)
    parsed = read_predictions(out)
    assert [r.video_id for r in parsed] == [s.video_id for s in samples]
    for rec, s in zip(parsed, samples):
        assert len(rec.saliency) == s.n_clips
    columns = (
        [r.moments for r in parsed],
        [[m.span_seconds(s.clip_seconds) for m in s.moments] for s in samples],
        [np.array(r.saliency) for r in parsed],
        [s.positive_flags() for s in samples],
    )
    report = build_report(*columns, tasks="both")
    assert report.map_avg is not None and report.hit_at_1 is not None
    for a, b in zip(records, parsed):
        assert a.to_json_line() == b.to_json_line()
    for tasks in ("both", "mr", "hd"):
        assert evaluate(model, samples, tasks).as_dict() == build_report(*columns, tasks=tasks).as_dict()


def test_predict_rejects_modality_mismatch():
    model = make_model()  # text-conditioned
    s = tiny_dataset(1)[0]
    no_text = VideoSample(video_id=s.video_id, clip_seconds=s.clip_seconds, visual=s.visual,
                          audio=s.audio, moments=s.moments, saliency=s.saliency)
    with pytest.raises(ConfigError, match="text"):
        predict(model, [no_text])


def test_video_only_model_predicts_on_video_only_sample():
    model = make_model(use_audio=False, use_text=False)
    s = tiny_dataset(1)[0]
    video_only = VideoSample(video_id=s.video_id, clip_seconds=s.clip_seconds, visual=s.visual,
                             moments=s.moments, saliency=s.saliency)
    records = predict(model, [video_only])
    assert len(records) == 1
    assert len(records[0].saliency) == s.n_clips
