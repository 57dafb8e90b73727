"""Target rasterization and loss values against hand-computed references."""

from __future__ import annotations

import math

import numpy as np
import pytest

from momentkit import autograd as ag
from momentkit import losses as L
from momentkit.autograd import ShapeError, Tensor
from momentkit.data import DataError, MomentAnnotation
from momentkit.fdcheck import check_gradients


def test_single_moment_kernel_hand_values():
    # center 5.0, window 10: radius = 0.2*10 = 2, sigma = 0.2*(2+1) = 0.6
    ts = L.build_targets([MomentAnnotation(5.0, 10.0)], None, 12)
    assert ts.heatmap[5] == 1.0
    assert ts.heatmap[6] == pytest.approx(math.exp(-1.0 / (2.0 * 0.36)), abs=1e-12)
    assert ts.heatmap[6] == pytest.approx(0.24935, abs=1e-5)
    assert ts.center_indices.tolist() == [5]
    assert ts.window_targets.tolist() == [10.0]
    assert ts.offset_targets.tolist() == [0.0]


def test_offset_zero_at_integer_center_and_sign_elsewhere():
    ts = L.build_targets([MomentAnnotation(3.0, 2.0)], None, 8)
    assert ts.offset_targets[0] == 0.0
    ts = L.build_targets([MomentAnnotation(3.3, 2.0)], None, 8)
    assert ts.center_indices[0] == 3
    assert ts.offset_targets[0] == pytest.approx(0.3)
    ts = L.build_targets([MomentAnnotation(3.7, 2.0)], None, 8)
    assert ts.center_indices[0] == 4
    assert ts.offset_targets[0] == pytest.approx(-0.3)


def test_offsets_bounded_even_at_the_last_half_clip():
    ts = L.build_targets([MomentAnnotation(7.9, 2.0)], None, 8)
    assert ts.center_indices[0] == 7  # would round to 8, clamped into range
    assert ts.offset_targets[0] == 0.5
    for c in np.linspace(0.0, 7.99, 40):
        ts = L.build_targets([MomentAnnotation(float(c), 1.0)], None, 8)
        assert -0.5 <= ts.offset_targets[0] <= 0.5


def test_overlapping_kernels_merge_by_pointwise_max():
    moments = [MomentAnnotation(4.0, 6.0), MomentAnnotation(6.0, 3.0)]
    ts = L.build_targets(moments, None, 12)
    coords = np.arange(12, dtype=np.float64)
    singles = []
    for m in moments:
        quant = np.floor(m.center + 0.5)
        sigma = 0.2 * (0.2 * m.window + 1.0)
        singles.append(np.exp(-((coords - quant) ** 2) / (2 * sigma**2)))
    np.testing.assert_allclose(ts.heatmap, np.maximum(singles[0], singles[1]), atol=1e-15)
    assert ts.heatmap[4] == 1.0 and ts.heatmap[6] == 1.0


def test_heatmap_decays_monotonically_from_the_peak():
    ts = L.build_targets([MomentAnnotation(6.2, 5.0)], None, 16)
    peak = 6
    left = ts.heatmap[: peak + 1]
    right = ts.heatmap[peak:]
    assert np.all(np.diff(left) > 0)
    assert np.all(np.diff(right) < 0)


def test_center_outside_video_rejected():
    with pytest.raises(DataError):
        L.build_targets([MomentAnnotation(12.0, 2.0)], None, 12)
    with pytest.raises(DataError):
        L.build_targets([MomentAnnotation(-0.5, 2.0)], None, 12)


def test_saliency_targets_copied_and_validated():
    sal = np.linspace(0, 1, 6)
    ts = L.build_targets([], sal, 6)
    np.testing.assert_array_equal(ts.saliency_targets, sal)
    assert ts.n_moments == 0
    with pytest.raises(ShapeError):
        L.build_targets([], np.zeros(5), 6)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_bce_at_half_is_ln2():
    pred = Tensor(np.full(7, 0.5))
    out = L.saliency_loss(pred, np.full(7, 0.5))
    assert out.item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_bce_perfect_one_hot_is_tiny():
    target = np.zeros(10)
    target[3] = 1.0
    out = L.saliency_loss(Tensor(target.copy()), target)
    assert 0.0 < out.item() < 1e-5


def test_bce_matches_direct_summation_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        pred = rng.uniform(0.02, 0.98, n)
        target = rng.uniform(0.0, 1.0, n)
        got = L.saliency_loss(Tensor(pred), target).item()
        want = -sum(t * math.log(p) + (1 - t) * math.log(1 - p) for p, t in zip(pred, target)) / n
        assert abs(got - want) < 1e-12


def test_bce_shape_mismatch():
    with pytest.raises(ShapeError):
        L.saliency_loss(Tensor(np.full(3, 0.5)), np.full(4, 0.5))


def test_focal_hand_value_single_positive():
    # one coordinate, target 1, prediction 0.5: -(1-0.5)^2 log 0.5
    out = L.focal_center_loss(Tensor(np.array([0.5])), np.array([1.0]), n_moments=1)
    assert out.item() == pytest.approx(0.25 * math.log(2.0), abs=1e-12)
    assert out.item() == pytest.approx(0.173287, abs=1e-6)


def test_focal_perfect_prediction_is_tiny():
    ts = L.build_targets([MomentAnnotation(5.0, 4.0)], None, 12)
    perfect = (ts.heatmap == 1.0).astype(np.float64)
    out = L.focal_center_loss(Tensor(perfect), ts.heatmap, n_moments=1)
    assert 0.0 <= out.item() < 1e-5


def test_focal_matches_direct_summation_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = 8
        target = rng.uniform(0.0, 1.0, n)
        target[rng.integers(0, n)] = 1.0
        pred = rng.uniform(0.05, 0.95, n)
        n_moments = int(rng.integers(1, 4))
        got = L.focal_center_loss(Tensor(pred), target, n_moments).item()
        acc = 0.0
        for p, h in zip(pred, target):
            if h == 1.0:
                acc += (1 - p) ** 2 * math.log(p)
            else:
                acc += (1 - h) ** 4 * p**2 * math.log(1 - p)
        want = -acc / n_moments
        assert abs(got - want) < 1e-12


def test_focal_no_moments_returns_zero():
    out = L.focal_center_loss(Tensor(np.full(4, 0.3), requires_grad=True), np.zeros(4), n_moments=0)
    assert out.item() == 0.0 and not out.requires_grad


def test_regression_hand_values_and_center_only_sampling():
    ts = L.build_targets([MomentAnnotation(5.25, 4.0)], None, 12)
    assert ts.center_indices[0] == 5 and ts.offset_targets[0] == pytest.approx(0.25)
    window_pred = np.zeros(12)
    window_pred[5] = 3.5
    offset_pred = np.zeros(12)
    l_w, l_o = L.regression_losses(Tensor(window_pred), Tensor(offset_pred), ts)
    assert l_w.item() == pytest.approx(0.5, abs=1e-12)
    assert l_o.item() == pytest.approx(0.25, abs=1e-12)
    # perturbing non-center clips changes nothing
    window_pred[0] = 99.0
    offset_pred[11] = -99.0
    l_w2, l_o2 = L.regression_losses(Tensor(window_pred), Tensor(offset_pred), ts)
    assert l_w2.item() == l_w.item() and l_o2.item() == l_o.item()


def test_regression_perfect_is_zero_and_empty_is_zero():
    ts = L.build_targets([MomentAnnotation(3.0, 2.0), MomentAnnotation(8.5, 3.0)], None, 12)
    window_pred = np.zeros(12)
    offset_pred = np.zeros(12)
    window_pred[ts.center_indices] = ts.window_targets
    offset_pred[ts.center_indices] = ts.offset_targets
    l_w, l_o = L.regression_losses(Tensor(window_pred), Tensor(offset_pred), ts)
    assert l_w.item() == 0.0 and l_o.item() == 0.0
    empty = L.build_targets([], None, 12)
    l_w, l_o = L.regression_losses(Tensor(window_pred), Tensor(offset_pred), empty)
    assert l_w.item() == 0.0 and l_o.item() == 0.0


def test_total_loss_weighting():
    ones = [Tensor(1.0) for _ in range(4)]
    assert L.total_loss(*ones).item() == pytest.approx(5.1, abs=1e-12)
    zeros = [Tensor(0.0) for _ in range(4)]
    assert L.total_loss(*zeros).item() == 0.0
    w = L.LossWeights(saliency=0.0)
    a = L.total_loss(Tensor(123.0), Tensor(1.0), Tensor(1.0), Tensor(1.0), w).item()
    b = L.total_loss(Tensor(-7.0), Tensor(1.0), Tensor(1.0), Tensor(1.0), w).item()
    assert a == b


def test_all_losses_nonnegative_on_random_inputs():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 16))
        moments = [MomentAnnotation(float(rng.uniform(0, n - 0.6)), float(rng.uniform(0.5, n)))]
        ts = L.build_targets(moments, rng.uniform(0, 1, n), n)
        pred_s = Tensor(rng.uniform(0.01, 0.99, n))
        pred_h = Tensor(rng.uniform(0.01, 0.99, n))
        pred_w = Tensor(rng.normal(size=n) * 5)
        pred_o = Tensor(rng.normal(size=n))
        l_s = L.saliency_loss(pred_s, ts.saliency_targets)
        l_c = L.focal_center_loss(pred_h, ts.heatmap, ts.n_moments)
        l_w, l_o = L.regression_losses(pred_w, pred_o, ts)
        for val in (l_s, l_c, l_w, l_o):
            assert val.item() >= 0.0
        assert L.total_loss(l_s, l_c, l_w, l_o).item() >= 0.0


def test_loss_gradients_by_finite_differences():
    rng = np.random.default_rng(3)
    n = 10
    ts = L.build_targets(
        [MomentAnnotation(3.3, 2.5), MomentAnnotation(7.0, 3.0)], rng.uniform(0, 1, n), n
    )
    pred_s = Tensor(rng.uniform(0.1, 0.9, n), requires_grad=True)
    pred_h = Tensor(rng.uniform(0.1, 0.9, n), requires_grad=True)
    pred_w = Tensor(rng.normal(size=n), requires_grad=True)
    pred_o = Tensor(rng.normal(size=n) * 0.3, requires_grad=True)

    def loss():
        l_s = L.saliency_loss(pred_s, ts.saliency_targets)
        l_c = L.focal_center_loss(pred_h, ts.heatmap, ts.n_moments)
        l_w, l_o = L.regression_losses(pred_w, pred_o, ts)
        return L.total_loss(l_s, l_c, l_w, l_o)

    report = check_gradients(
        loss,
        [("s", pred_s), ("h", pred_h), ("w", pred_w), ("o", pred_o)],
        step=1e-5, floor=1e-3,
    )
    assert report.ok(1e-6), f"max rel err {report.max_rel_err:.3e} at {report.worst_param}[{report.worst_index}]"


def test_clamped_predictions_get_zero_gradient():
    clamp = L.PROB_CLAMP
    # the two ends of the clamp pass through; everything beyond them is held
    pred = np.array([0.0, 1e-9, clamp, 0.3, 1.0 - clamp, 1.0 - 1e-10, 1.0])
    held = np.array([True, True, False, False, False, True, True])
    heatmap = np.array([1.0, 0.5, 1.0, 0.2, 0.7, 1.0, 0.1])
    for loss in (lambda p: L.saliency_loss(p, np.full(7, 0.6)), lambda p: L.focal_center_loss(p, heatmap, 2)):
        p = Tensor(pred.copy(), requires_grad=True)
        ag.backward(loss(p))
        assert np.all(p.grad[held] == 0.0)
        assert np.all(p.grad[~held] != 0.0) and np.all(np.isfinite(p.grad))


def test_worst_predictions_give_a_finite_bounded_loss():
    # a confident wrong answer costs -log(PROB_CLAMP), never an infinity
    bound = -math.log(L.PROB_CLAMP)
    assert L.saliency_loss(Tensor(np.array([0.0, 1.0])), np.array([1.0, 0.0])).item() == pytest.approx(bound)
    focal = L.focal_center_loss(Tensor(np.array([0.0, 1.0])), np.array([1.0, 0.0]), n_moments=1).item()
    assert focal == pytest.approx(2.0 * bound)


def test_regression_gradient_accumulates_at_a_shared_center():
    ts = L.build_targets([MomentAnnotation(5.1, 2.0), MomentAnnotation(5.3, 3.0)], None, 12)
    assert ts.center_indices.tolist() == [5, 5]
    window = Tensor(np.full(12, 10.0), requires_grad=True)  # above both windows
    offset = Tensor(np.full(12, 0.2), requires_grad=True)   # between the two offsets 0.1 and 0.3
    l_w, l_o = L.regression_losses(window, offset, ts)
    ag.backward(ag.add(l_w, l_o))
    expected = np.zeros(12)
    expected[5] = 1.0  # two moments, each 1/2 with sign +1
    np.testing.assert_array_equal(window.grad, expected)
    np.testing.assert_array_equal(offset.grad, np.zeros(12))  # +1/2 and -1/2 cancel


def test_l1_and_clamp_gradients_away_from_kinks():
    rng = np.random.default_rng(11)
    n = 12
    ts = L.build_targets([MomentAnnotation(2.2, 3.0), MomentAnnotation(8.0, 4.0)], rng.uniform(0, 1, n), n)
    probs = rng.uniform(0.1, 0.9, n)
    probs[[1, 4]], probs[[6, 9]] = -0.5, 1.5  # held by the clamp for any small step
    pred_s = Tensor(probs.copy(), requires_grad=True)
    pred_h = Tensor(probs[::-1].copy(), requires_grad=True)
    pred_w = Tensor(rng.normal(size=n) + 1.0, requires_grad=True)  # errors of 0.5 and more
    pred_o = Tensor(np.full(n, 0.5), requires_grad=True)

    def loss():
        l_w, l_o = L.regression_losses(pred_w, pred_o, ts)
        l_s = L.saliency_loss(pred_s, ts.saliency_targets)
        return L.total_loss(l_s, L.focal_center_loss(pred_h, ts.heatmap, ts.n_moments), l_w, l_o)

    errors = np.abs(pred_w.data[ts.center_indices] - ts.window_targets)
    assert errors.min() > 0.1
    report = check_gradients(loss, [("s", pred_s), ("h", pred_h), ("w", pred_w), ("o", pred_o)],
                             step=1e-5, floor=1e-3)
    assert report.ok(1e-6), f"max rel err {report.max_rel_err:.3e} at {report.worst_param}[{report.worst_index}]"
