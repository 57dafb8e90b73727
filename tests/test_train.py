"""Training loop, optimizer, evaluation, and prediction plumbing."""

import ctypes
import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from momentkit import autograd as ag
from momentkit import train as train_module
from momentkit.autograd import NumericError, RngState, Tensor
from momentkit.data import DataError, SynthConfig, VideoSample, synthesize_dataset
from momentkit.decode import read_predictions
from momentkit.losses import LossWeights, build_targets
from momentkit.metrics import build_report
from momentkit.model import ConfigError, ModelConfig, MomentModel
from momentkit.train import (
    AdamW, TrainConfig, backward_units, evaluate, predict, sample_loss, stack_losses, train,
)

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


def test_adamw_in_place_blocks_equal_whole_array_expressions():
    """The blocked in-place step is bitwise the whole-array update, across block edges and without a gradient."""
    rng = np.random.default_rng(0)
    shapes = [(AdamW.block * 2 + 5,), (3, 5), (7,)]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    opt = AdamW([(str(i), p) for i, p in enumerate(params)], lr=0.01, weight_decay=0.1)
    ref = [p.data.copy() for p in params]
    m = [np.zeros_like(r) for r in ref]
    v = [np.zeros_like(r) for r in ref]
    b1, b2, eps = AdamW.beta1, AdamW.beta2, AdamW.eps
    for t in range(1, 4):
        grads = [rng.normal(size=s) for s in shapes[:-1]] + [None]  # the last parameter gets no gradient
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        for i, g in enumerate(grads):
            g = np.zeros_like(ref[i]) if g is None else g
            m[i] = m[i] * b1 + (1.0 - b1) * g
            v[i] = v[i] * b2 + (1.0 - b2) * g * g
            update = (m[i] / (1.0 - b1**t)) / (np.sqrt(v[i] / (1.0 - b2**t)) + eps)
            ref[i] = ref[i] - 0.01 * (update + 0.1 * ref[i])
            assert params[i].data.tobytes() == ref[i].tobytes(), (t, i)


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


# sha256 of the checkpoint that test_checkpoint_bytes_are_pinned trains, by the OpenBLAS kernel
# numpy runs: kernels of different SIMD widths sum a product's inner dimension in different
# orders, so the last bits of every gradient, and the bytes, follow the kernel. A change that
# moves checkpoint bytes updates every row (each kernel can be forced with OPENBLAS_CORETYPE)
# and records the move in CHANGES.md
PINNED_CHECKPOINT_SHA256 = {
    "SkylakeX": "3e771a928f7c846274e50ad96eee43dfdf15223b3e13b27f4149318fcf344e26",
    "Haswell": "a6f9d842dbda99fc8a473737890136a8ca165701c023b69c05e691f4890aef33",
    "Sandybridge": "dd2b8b8c958b3912681087139bfa7884355697a28d716c125e93255b9b71c62d",
    "Nehalem": "0cf6e79f4cf42742eb9636351f8c7c94aa10e5b749b12d3651bf3cf90e19efff",
    "Katmai": "9ed36dbce0276e30eaa222fc3148bbb00339168a24f466ce7e146382a61c1ba4",  # OPENBLAS_CORETYPE=Prescott
}


def blas_kernel() -> str | None:
    """The kernel numpy's bundled OpenBLAS picked at run time, or ``None`` when it cannot be read."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


def test_checkpoint_bytes_are_pinned(tmp_path):
    """Two epochs with dropout and batches of two, each one stack: the final checkpoint's bytes do not move."""
    model = make_model(seed=3)
    train(model, tiny_dataset(n=4, seed=2), TrainConfig(epochs=2, batch_size=2, seed=1), tmp_path)
    digest = hashlib.sha256((tmp_path / "final.ckpt").read_bytes()).hexdigest()
    kernel = blas_kernel()
    assert kernel in PINNED_CHECKPOINT_SHA256, f"no pin for BLAS kernel {kernel!r}; this run gave {digest}"
    assert digest == PINNED_CHECKPOINT_SHA256[kernel], f"BLAS kernel {kernel}"


@pytest.mark.parametrize("layers, n_params", [((1, 1, 1), 119), ((2, 2, 3), 223)])
def test_each_parameter_receives_one_gradient_per_sample_backward(layers, n_params, monkeypatch):
    """So a step's gradient is the left fold of independent per-sample gradients."""
    uni, cross, decoder = layers
    model = MomentModel(ModelConfig(model_dim=32, heads=4, n_bottleneck=4, max_len=64, uni_layers=uni,
                                    cross_layers=cross, decoder_layers=decoder), seed=0)
    sample = synthesize_dataset(SynthConfig(n_videos=1, n_clips=16, min_moments=2, seed=21))[0]
    params = dict(model.named_parameters())
    names = {id(p): n for n, p in params.items()}
    received = dict.fromkeys(params, 0)
    accumulate = ag._accumulate

    def counting(v, grad):
        if id(v) in names and grad is not None:
            received[names[id(v)]] += 1
        accumulate(v, grad)

    monkeypatch.setattr(ag, "_accumulate", counting)
    loss, _ = sample_loss(model, sample, build_targets(sample.moments, sample.saliency, sample.n_clips),
                          LossWeights(), RngState(1))
    ag.backward(loss)
    assert len(params) == n_params
    assert {n: c for n, c in received.items() if c != 1} == {}

    # a stack of samples that share every input shape is one backward, and one contribution
    received.update(dict.fromkeys(params, 0))
    stack = synthesize_dataset(SynthConfig(n_videos=3, n_clips=16, min_moments=2, seed=22))
    losses = stack_losses(model, stack, [build_targets(s.moments, s.saliency, s.n_clips) for s in stack],
                          LossWeights(), RngState(1))
    ag.backward(ag.add(ag.add(losses[0][0], losses[1][0]), losses[2][0]))
    assert {n: c for n, c in received.items() if c != 1} == {}


def ragged_dataset(lengths, seed=0):
    """One tiny sample per clip count, so no two of them stack."""
    return [tiny_dataset(n=1, n_clips=n, seed=seed + i)[0] for i, n in enumerate(lengths)]


def test_a_step_equals_one_backward_through_the_summed_batch_graph():
    """A batch with no two samples of one shape gives the gradients and update of the batch mean, bit for bit."""
    samples = ragged_dataset((8, 9, 10, 11), seed=2)
    cfg = TrainConfig(epochs=1, batch_size=4, seed=1)
    model = make_model(seed=3)
    train(model, samples, cfg)

    ref = make_model(seed=3)
    drop_rng = RngState(cfg.seed)
    total = None
    for idx in np.random.default_rng(cfg.seed).permutation(len(samples)):
        s = samples[idx]
        targets = build_targets(s.moments, s.saliency, s.n_clips)
        loss, _ = sample_loss(ref, s, targets, cfg.task_weights(), drop_rng)
        total = loss if total is None else ag.add(total, loss)
    ag.backward(ag.mul(total, 1.0 / len(samples)))
    AdamW(ref.named_parameters(), lr=cfg.learning_rate, weight_decay=cfg.weight_decay).step()
    for (name, p), (_, q) in zip(model.named_parameters(), ref.named_parameters()):
        assert p.grad is not None and q.grad is not None, name
        assert p.grad.tobytes() == q.grad.tobytes(), name
        assert p.data.tobytes() == q.data.tobytes(), name


class RecordedStream(RngState):
    """A dropout stream that keeps every draw it hands out."""

    draws: list[np.ndarray] = []

    def random(self, shape=None):
        out = super().random(shape)
        self.draws.append(out)
        return out


class ReplayedStream(RngState):
    """Hands out row ``row`` of each recorded stacked draw in turn, as a stack of one.

    That is one sample's share of the stack's masks; each draw must have the
    shape the lone forward asks for.
    """

    def __init__(self, draws, row):
        super().__init__(0)
        self._draws = iter(draws)
        self._row = row

    def random(self, shape=None):
        out = next(self._draws)[self._row : self._row + 1]
        assert out.shape == shape
        return out


@pytest.mark.parametrize("dropout", [False, True])
def test_a_stacked_step_equals_the_per_sample_fold(dropout, monkeypatch):
    """A batch of one shape is one stacked forward and backward; its gradients equal the per-sample fold.

    The stack sums its weight gradients over all samples' rows in one product,
    so the two agree to rounding, within 1e-12 of each parameter's largest
    gradient. With dropout, each sample replays its row of the stack's masks.
    """
    samples = tiny_dataset(n=4, seed=2)
    rates = {} if dropout else dict(dropout=0.0, pre_dropout_av=0.0, pre_dropout_text=0.0)
    cfg = TrainConfig(epochs=1, batch_size=4, seed=1)
    monkeypatch.setattr(RecordedStream, "draws", [])
    monkeypatch.setattr(train_module, "RngState", RecordedStream)
    model = make_model(seed=3, **rates)
    train(model, samples, cfg)
    assert len(RecordedStream.draws) == (22 if dropout else 0)  # one mask per site for the whole stack

    ref = make_model(seed=3, **rates)
    for row, idx in enumerate(np.random.default_rng(cfg.seed).permutation(len(samples))):
        s = samples[idx]
        loss, _ = sample_loss(ref, s, build_targets(s.moments, s.saliency, s.n_clips), cfg.task_weights(),
                              ReplayedStream(RecordedStream.draws, row))
        ag.backward(ag.mul(loss, 1.0 / len(samples)))
    for (name, p), (_, q) in zip(model.named_parameters(), ref.named_parameters()):
        assert np.abs(p.grad - q.grad).max() <= 1e-12 * np.abs(q.grad).max(), name


def test_backward_units_stack_the_largest_group_first():
    shapes = [(8,), (9,), (8,), (9,), (9,), (7,)]
    assert backward_units(np.array([0, 1, 2, 3, 4, 5]), shapes) == [[1, 3, 4], [0], [2], [5]]
    assert backward_units(np.array([2, 1, 0, 3]), shapes) == [[2, 0], [1], [3]]  # a tie goes to the first
    assert backward_units(np.array([5, 0, 1]), shapes) == [[5], [0], [1]]


def test_a_training_step_holds_one_samples_tape():
    """An epoch of one batch of four unstacked samples peaks near one sample's tape, not four, above the optimizer state."""
    # few parameters and long sequences, so the tape dominates the heap
    n_clips = 128
    samples = ragged_dataset((n_clips, n_clips - 1, n_clips - 2, n_clips - 3))
    model = make_model(model_dim=8, max_len=n_clips)
    s = samples[0]
    tracemalloc.start()
    try:
        loss, _ = sample_loss(model, s, build_targets(s.moments, s.saliency, s.n_clips), LossWeights(), RngState(0))
        tape = tracemalloc.get_traced_memory()[0]
        ag.backward(loss)
        for _, p in model.named_parameters():
            p.zero_grad()
        del loss
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        train(model, samples, TrainConfig(epochs=1, batch_size=4, seed=0))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    optimizer_state = 2 * sum(p.data.nbytes for _, p in model.named_parameters())
    assert peak < optimizer_state + 1.5 * tape, (peak, optimizer_state, tape)


def test_a_stacked_step_holds_the_stacks_tape_not_the_batchs():
    """A batch of a stack of two and two other samples peaks near the stack's tape, above the optimizer state."""
    n_clips = 128
    samples = tiny_dataset(n=2, n_clips=n_clips) + ragged_dataset((n_clips - 8, n_clips - 16), seed=5)
    model = make_model(model_dim=8, max_len=n_clips)
    stack = samples[:2]
    tracemalloc.start()
    try:
        losses = stack_losses(model, stack, [build_targets(s.moments, s.saliency, s.n_clips) for s in stack],
                              LossWeights(), RngState(0))
        tape = tracemalloc.get_traced_memory()[0]
        ag.backward(ag.add(losses[0][0], losses[1][0]))
        for _, p in model.named_parameters():
            p.zero_grad()
        del losses
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        train(model, samples, TrainConfig(epochs=1, batch_size=4, seed=0))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    optimizer_state = 2 * sum(p.data.nbytes for _, p in model.named_parameters())
    # the whole batch's tape is about twice the stack's
    assert peak < optimizer_state + 1.5 * tape, (peak, optimizer_state, tape)


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
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match="center"):
            TrainConfig(weights=LossWeights(center=bad)).validate()
    TrainConfig(weights=LossWeights(saliency=0.0), tasks="hd").validate()  # zero weights stay valid
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
    no_positives = [
        VideoSample(video_id=s.video_id, clip_seconds=s.clip_seconds, visual=s.visual,
                    audio=s.audio, text=s.text, moments=s.moments, saliency=np.zeros(s.n_clips))
        for s in samples
    ]
    for tasks in ("hd", "both"):
        with pytest.raises(DataError, match="highlight evaluation needs at least one positive clip"):
            evaluate(make_model(), no_positives, tasks=tasks)


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
