"""Whole-package acceptance gates, one test per criterion.

Each test prints a single ``[criterion N] name: PASS/FAIL`` line (visible
with ``-s``; the verbose report shows the same verdict through the test
name). The empirical runs (5 and 6) use frozen seeds, so they are
deterministic end to end.
"""

import time

import numpy as np
import pytest

from test_blocks import naive_attention
from test_metrics import oracle_ap, oracle_ap_from_flags, oracle_recall, random_instance

from momentkit import autograd as ag
from momentkit import blocks
from momentkit import metrics
from momentkit.autograd import RngState, Tensor
from momentkit.bench import measure_bottleneck_macs, measure_full_attention_macs
from momentkit.data import (
    FeatureSequence,
    MomentAnnotation,
    SynthConfig,
    VideoSample,
    synthesize_dataset,
)
from momentkit.decode import roundtrip
from momentkit.fdcheck import check_gradients
from momentkit.losses import (
    build_targets,
    focal_center_loss,
    regression_losses,
    saliency_loss,
    total_loss,
)
from momentkit.model import ModelConfig, MomentModel
from momentkit.train import TrainConfig, evaluate, train


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} {name} failed{tail}"


def test_criterion_1_gradient_integrity():
    t0 = time.monotonic()
    cfg = ModelConfig(
        model_dim=8, heads=2, uni_layers=1, cross_layers=1, decoder_layers=1,
        n_bottleneck=2, visual_dim=6, audio_dim=5, text_dim=4, max_len=16,
    )
    model = MomentModel(cfg, seed=40)
    rng = np.random.default_rng(41)
    # a stack of one sample, the shape every forward runs
    visual = Tensor(rng.normal(size=(1, 4, 6)))
    audio = Tensor(rng.normal(size=(1, 4, 5)))
    text = Tensor(rng.normal(size=(1, 3, 4)))
    targets = build_targets([MomentAnnotation(2.2, 2.5)], rng.uniform(0.1, 0.9, 4), 4)

    def loss_fn():
        joint = model.encode_features(visual, audio)
        queries = model.generate_queries(joint, text)
        (preds,) = model.decode(joint, queries)
        l_s = saliency_loss(preds.saliency, targets.saliency_targets)
        l_c = focal_center_loss(preds.heatmap, targets.heatmap, targets.n_moments)
        l_w, l_o = regression_losses(preds.window, preds.offset, targets)
        return total_loss(l_s, l_c, l_w, l_o)

    report = check_gradients(
        loss_fn, model.named_parameters(),
        max_coords_per_param=3, rng=np.random.default_rng(42),
    )
    elapsed = time.monotonic() - t0
    ok = report.checked >= 200 and report.ok(1e-4) and elapsed < 120.0
    verdict(1, "gradient integrity", ok,
            f"{report.checked} coords, max rel err {report.max_rel_err:.2e}, {elapsed:.1f}s")


def test_criterion_2_equation_oracles():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        dim = 8
        heads = int(rng.choice([1, 2, 4]))
        n_x = int(rng.integers(1, 9))   # N_v <= 8
        n_z = int(rng.integers(1, 5))
        params = blocks.AttentionParams(dim, heads, RngState(6000 + trial))
        w = (params.w_q.data, params.w_k.data, params.w_v.data, params.w_z.data)
        x = rng.normal(size=(n_x, dim))
        z = rng.normal(size=(n_z, dim))
        pos_x = rng.normal(size=(n_x, dim)) * 0.1
        px = Tensor(pos_x)

        got = blocks.self_attention(Tensor(x[None]), params, pos=px).data[0]
        want = naive_attention(*w, x, x, x, x, heads, q_pos=pos_x, k_pos=pos_x)
        worst = max(worst, float(np.abs(got - want).max()))

        got = blocks.compress(Tensor(x[None]), Tensor(z[None]), params, pos=px).data[0]
        want = naive_attention(*w, z, x, x, z, heads, k_pos=pos_x)  # positions feed keys only
        worst = max(worst, float(np.abs(got - want).max()))

        got = blocks.expand(Tensor(x[None]), Tensor(z[None]), params, pos=px).data[0]
        want = naive_attention(*w, x, z, z, x, heads, q_pos=pos_x)  # positions feed queries only
        worst = max(worst, float(np.abs(got - want).max()))
    ok = worst < 1e-10
    verdict(2, "equation oracles", ok, f"100 instances x 3 wirings, worst diff {worst:.2e}")


def test_criterion_3_target_decode_roundtrip():
    samples = synthesize_dataset(SynthConfig(n_videos=100, n_clips=32, seed=31, max_moments=2))
    worst = 0.0
    n_moments = 0
    for s in samples:
        targets = build_targets(s.moments, s.saliency, s.n_clips)
        recovered = roundtrip(targets, s.clip_seconds)
        for m in s.moments:
            n_moments += 1
            errors = []
            for r in recovered:
                center = (r.start + r.end) / 2.0 / s.clip_seconds
                window = (r.end - r.start) / s.clip_seconds
                errors.append(max(abs(center - m.center), abs(window - m.window)))
            worst = max(worst, min(errors))
    ok = worst < 1e-9
    verdict(3, "target/decode round-trip", ok, f"{n_moments} moments over 100 videos, worst error {worst:.2e}")


def test_criterion_4_loss_sanity():
    moments = [MomentAnnotation(5.0, 4.0), MomentAnnotation(12.3, 3.0)]
    binary_saliency = (np.arange(16) % 2).astype(float)
    targets = build_targets(moments, binary_saliency, 16)
    heat = (targets.heatmap == 1.0).astype(float)
    window = np.zeros(16)
    offset = np.zeros(16)
    window[targets.center_indices] = targets.window_targets
    offset[targets.center_indices] = targets.offset_targets
    l_s = saliency_loss(Tensor(binary_saliency), targets.saliency_targets)
    l_c = focal_center_loss(Tensor(heat), targets.heatmap, targets.n_moments)
    l_w, l_o = regression_losses(Tensor(window), Tensor(offset), targets)
    perfect = total_loss(l_s, l_c, l_w, l_o).item()

    rng = np.random.default_rng(44)
    nonneg = True
    for _ in range(1000):
        n = int(rng.integers(4, 33))
        ms = []
        for _ in range(int(rng.integers(1, 4))):
            w = float(rng.uniform(1.0, min(6.0, n - 0.1)))
            ms.append(MomentAnnotation(float(rng.uniform(w / 2, n - w / 2 - 0.01)), w))
        t = build_targets(ms, rng.uniform(0, 1, n), n)
        l_s = saliency_loss(Tensor(rng.uniform(1e-6, 1 - 1e-6, n)), t.saliency_targets)
        l_c = focal_center_loss(Tensor(rng.uniform(1e-6, 1 - 1e-6, n)), t.heatmap, t.n_moments)
        l_w, l_o = regression_losses(Tensor(rng.uniform(0, 8, n)), Tensor(rng.uniform(-0.5, 0.5, n)), t)
        parts = (l_s.item(), l_c.item(), l_w.item(), l_o.item())
        nonneg &= all(v >= 0.0 for v in parts)
        nonneg &= total_loss(l_s, l_c, l_w, l_o).item() >= 0.0
    ok = perfect < 1e-4 and nonneg
    verdict(4, "loss sanity", ok, f"perfect total {perfect:.2e}, 1000 random instances nonnegative: {nonneg}")


def test_criterion_5_overfit():
    t0 = time.monotonic()
    synth = SynthConfig(n_videos=8, n_clips=16, snr=3.0, min_moments=1, max_moments=1,
                        min_width_clips=4.0, max_width_clips=8.0, seed=11)
    samples = synthesize_dataset(synth)
    model = MomentModel(ModelConfig(model_dim=64, heads=8, n_bottleneck=4, max_len=64), seed=0)
    result = train(model, samples, TrainConfig(epochs=200, batch_size=4, seed=0))
    report = evaluate(model, samples, tasks="both")
    elapsed = time.monotonic() - t0
    loss_ratio = result.loss_history[-1] / result.loss_history[0]
    ok = (
        report.r1_at[0.5] == 1.0 and report.hit_at_1 == 1.0
        and loss_ratio < 0.2 and elapsed < 600.0
    )
    verdict(5, "overfit", ok,
            f"R@1@0.5={report.r1_at[0.5]:.2f} HIT@1={report.hit_at_1:.2f} "
            f"loss ratio {loss_ratio:.3f}, {elapsed:.0f}s")


def test_criterion_6_co_optimization_direction():
    t0 = time.monotonic()
    synth = SynthConfig(n_videos=64, n_clips=16, snr=1.5, min_moments=1, max_moments=2,
                        min_width_clips=3.0, max_width_clips=6.0, seed=21)
    samples = synthesize_dataset(synth)

    def run(tasks: str, seed: int) -> float:
        model = MomentModel(ModelConfig(model_dim=32, heads=4, n_bottleneck=4, max_len=64), seed=seed)
        train(model, samples, TrainConfig(epochs=30, batch_size=8, seed=seed, tasks=tasks))
        return evaluate(model, samples, tasks="mr").map_avg

    joint = [run("both", seed) for seed in (0, 1, 2)]
    alone = [run("mr", seed) for seed in (0, 1, 2)]
    ok = float(np.mean(joint)) >= float(np.mean(alone))
    verdict(6, "co-optimization direction", ok,
            f"joint mAP {np.mean(joint):.4f} vs MR-only {np.mean(alone):.4f} "
            f"over 3 seeds, {time.monotonic() - t0:.0f}s")


def test_criterion_7_bottleneck_linearity():
    small = measure_bottleneck_macs(64)
    large = measure_bottleneck_macs(128)
    full_small = measure_full_attention_macs(64)
    full_large = measure_full_attention_macs(128)
    bottleneck_growth = large / small
    full_growth = full_large / full_small
    ok = 1.8 <= bottleneck_growth <= 2.2 and 3.6 <= full_growth <= 4.4
    verdict(7, "bottleneck linearity", ok,
            f"bottleneck x{bottleneck_growth:.3f}, full attention x{full_growth:.3f}")


def test_criterion_8_metric_oracles():
    rng = np.random.default_rng(88)
    agree = True
    checks = 0
    for _ in range(500):
        preds, gts = random_instance(rng)
        for thr in (0.5, 0.7):
            for k in (1, 5):
                agree &= metrics.recall_at_k([preds], [gts], k, thr) == oracle_recall([preds], [gts], k, thr)
                checks += 1
        if gts:
            thr = float(rng.choice(metrics.IOU_GRID))
            agree &= metrics.average_precision(preds, gts, thr) == pytest.approx(
                oracle_ap(preds, gts, thr), abs=1e-12)
            checks += 1
        n = int(rng.integers(2, 17))  # <= 16 clips
        scores = rng.uniform(0, 1, n)
        labels = rng.uniform(0, 1, n) < 0.4
        if not labels.any():
            labels[int(rng.integers(0, n))] = True
        order = sorted(range(n), key=lambda i: (-scores[i], i))
        flags = [bool(labels[i]) for i in order]
        got_map, got_hit = metrics.highlight_metrics([scores], [labels])
        agree &= got_map == pytest.approx(oracle_ap_from_flags(flags, int(labels.sum())), abs=1e-12)
        agree &= got_hit == (1.0 if labels[order[0]] else 0.0)
        top5_flags = flags[:5]
        agree &= metrics.top5_map([scores], [labels]) == pytest.approx(
            oracle_ap_from_flags(top5_flags, sum(top5_flags)), abs=1e-12)
        checks += 3
    verdict(8, "metric oracles", agree, f"{checks} comparisons over 500 instances")


def test_criterion_9_degenerate_modes():
    synth = SynthConfig(n_videos=4, n_clips=8, visual_dim=6, audio_dim=5, text_dim=4,
                        n_text_tokens=3, max_moments=1, min_width_clips=3.0,
                        max_width_clips=4.0, seed=91)
    samples = synthesize_dataset(synth)
    base = dict(model_dim=8, heads=2, n_bottleneck=2, visual_dim=6, audio_dim=5, text_dim=4, max_len=16)
    modes = [
        ("video-only", dict(use_audio=False, use_text=False), ("audio", "text")),
        ("audio-only", dict(use_visual=False, use_text=False), ("visual", "text")),
        ("no-text", dict(use_text=False), ("text",)),
    ]
    outcomes = []
    for name, overrides, perturbed in modes:
        model = MomentModel(ModelConfig(**{**base, **overrides}), seed=92)
        train(model, samples, TrainConfig(epochs=2, batch_size=2, seed=92))
        report = evaluate(model, samples, tasks="both")
        s = samples[0]
        rng = np.random.default_rng(93)
        swap = {
            mod: FeatureSequence(rng.normal(size=getattr(s, mod).array.shape), mod)
            for mod in perturbed
        }
        mutated = VideoSample(
            video_id=s.video_id, clip_seconds=s.clip_seconds,
            visual=swap.get("visual", s.visual), audio=swap.get("audio", s.audio),
            text=swap.get("text", s.text), moments=s.moments, saliency=s.saliency,
        )
        before = model.forward(s)
        after = model.forward(mutated)
        identical = all(
            np.array_equal(getattr(before, f).data, getattr(after, f).data)
            for f in ("saliency", "heatmap", "window", "offset")
        )
        outcomes.append(identical and report.hit_at_1 is not None and report.map_avg is not None)
    ok = all(outcomes)
    verdict(9, "degenerate modes", ok,
            "; ".join(f"{m[0]}={'ok' if o else 'LEAK'}" for m, o in zip(modes, outcomes)))
