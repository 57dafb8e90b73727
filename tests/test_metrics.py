"""Metric implementations against independent brute-force references."""

from __future__ import annotations

import numpy as np
import pytest

from momentkit import metrics as M
from momentkit.decode import MomentPrediction


def P(start, end, conf):
    return MomentPrediction(start, end, conf)


# --- independent reference implementations (different code path on purpose) ---


def oracle_iou(a, b):
    la, lb = a[1] - a[0], b[1] - b[0]
    if la <= 0 or lb <= 0:
        return 0.0
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter <= 0:
        return 0.0
    return inter / (la + lb - inter)


def oracle_rank(preds):
    return sorted(range(len(preds)), key=lambda i: (-preds[i].confidence, preds[i].start, i))


def oracle_recall(preds_q, gts_q, k, thr):
    hit, total = 0, 0
    for preds, gts in zip(preds_q, gts_q):
        if len(gts) == 0:
            continue
        total += 1
        found = False
        for i in oracle_rank(preds)[:k]:
            for g in gts:
                if oracle_iou((preds[i].start, preds[i].end), g) >= thr:
                    found = True
        if found:
            hit += 1
    return hit / total if total else 0.0


def oracle_ap(preds, gts, thr):
    """Greedy matching plus per-true-positive suffix-max precision."""
    order = oracle_rank(preds)
    taken: set[int] = set()
    flags = []
    for i in order:
        candidates = []
        for j, g in enumerate(gts):
            if j in taken:
                continue
            iou = oracle_iou((preds[i].start, preds[i].end), g)
            if iou >= thr:
                candidates.append((iou, -j))
        if candidates:
            _, neg_j = max(candidates)
            taken.add(-neg_j)
            flags.append(True)
        else:
            flags.append(False)
    return oracle_ap_from_flags(flags, len(gts))


def oracle_ap_from_flags(flags, n_pos):
    if n_pos == 0:
        return 0.0
    total = 0.0
    for k, f in enumerate(flags):
        if not f:
            continue
        best = 0.0
        for j in range(k, len(flags)):
            best = max(best, sum(flags[: j + 1]) / (j + 1))
        total += best
    return total / n_pos


def random_instance(rng):
    n_pred = int(rng.integers(0, 9))
    n_gt = int(rng.integers(0, 5))
    preds = []
    for _ in range(n_pred):
        s = float(rng.uniform(0, 20))
        preds.append(P(s, s + float(rng.uniform(0.5, 8)), float(rng.choice([0.2, 0.5, 0.8, rng.uniform(0, 1)]))))
    gts = []
    for _ in range(n_gt):
        s = float(rng.uniform(0, 20))
        gts.append((s, s + float(rng.uniform(0.5, 8))))
    return preds, gts


# --- hand examples ---


def test_iou_hand_values():
    assert M.temporal_iou((0, 10), (5, 15)) == pytest.approx(1 / 3)
    assert M.temporal_iou((2, 4), (2, 4)) == 1.0
    assert M.temporal_iou((0, 1), (2, 3)) == 0.0
    assert M.temporal_iou((1, 1), (0, 3)) == 0.0  # degenerate


def test_recall_hand_examples():
    gts = [[(10.0, 20.0)]]
    exact = [[P(10.0, 20.0, 0.9)]]
    assert M.recall_at_k(exact, gts, 1, 0.5) == 1.0
    ranked = [[P(0.0, 4.0, 0.9), P(11.0, 19.0, 0.5)]]  # rank-1 IoU 0, rank-2 IoU 0.8
    assert M.recall_at_k(ranked, gts, 1, 0.5) == 0.0
    assert M.recall_at_k(ranked, gts, 5, 0.5) == 1.0


def test_queries_without_ground_truth_are_excluded():
    preds = [[P(0, 1, 0.5)], [P(10, 20, 0.9)]]
    gts = [[], [(10.0, 20.0)]]
    assert M.recall_at_k(preds, gts, 1, 0.5) == 1.0
    out = M.mean_ap(preds, gts, [0.5])
    assert out[0.5] == 1.0


def test_ap_hand_trace():
    gts = [(0.0, 10.0)]
    preds = [P(30.0, 40.0, 0.9), P(0.0, 10.0, 0.5)]  # rank 1 misses, rank 2 hits
    assert M.average_precision(preds, gts, 0.5) == pytest.approx(0.5)


def test_perfect_predictions_score_one_everywhere():
    gts_q = [[(0.0, 5.0), (8.0, 12.0)], [(3.0, 9.0)]]
    preds_q = [[P(0.0, 5.0, 0.9), P(8.0, 12.0, 0.8)], [P(3.0, 9.0, 0.7)]]
    out = M.mean_ap(preds_q, gts_q, M.IOU_GRID)
    assert all(v == 1.0 for v in out.values())
    assert M.recall_at_k(preds_q, gts_q, 1, 0.7) == 1.0


def test_each_ground_truth_matches_at_most_once():
    gts = [(0.0, 10.0)]
    preds = [P(0.0, 10.0, 0.9), P(0.0, 10.0, 0.8)]  # duplicate prediction
    # second one becomes a false positive: precisions 1, then 1/2
    assert M.average_precision(preds, gts, 0.5) == 1.0  # recall saturated at rank 1
    gts2 = [(0.0, 10.0), (20.0, 30.0)]
    assert M.average_precision(preds, gts2, 0.5) == pytest.approx(0.5)


def test_mean_ap_matches_bruteforce_oracle_exactly():
    rng = np.random.default_rng(0)
    for _ in range(200):
        preds, gts = random_instance(rng)
        if not gts:
            continue
        thr = float(rng.choice(M.IOU_GRID))
        assert M.average_precision(preds, gts, thr) == pytest.approx(oracle_ap(preds, gts, thr), abs=1e-12)


def test_recall_matches_bruteforce_oracle_exactly():
    rng = np.random.default_rng(1)
    for _ in range(100):
        preds_q, gts_q = [], []
        for _ in range(int(rng.integers(1, 6))):
            p, g = random_instance(rng)
            preds_q.append(p)
            gts_q.append(g)
        for k in (1, 5):
            for thr in (0.5, 0.7):
                assert M.recall_at_k(preds_q, gts_q, k, thr) == oracle_recall(preds_q, gts_q, k, thr)


def test_metrics_invariant_to_monotone_confidence_transform():
    rng = np.random.default_rng(2)
    preds, gts = random_instance(rng)
    while not gts or not preds:
        preds, gts = random_instance(rng)
    squashed = [P(p.start, p.end, float(np.tanh(3 * p.confidence))) for p in preds]
    for thr in (0.5, 0.75):
        assert M.average_precision(preds, gts, thr) == M.average_precision(squashed, gts, thr)


def test_recall_monotonicity_properties():
    rng = np.random.default_rng(3)
    preds_q, gts_q = [], []
    for _ in range(20):
        p, g = random_instance(rng)
        preds_q.append(p)
        gts_q.append(g)
    for thr in (0.5, 0.7):
        assert M.recall_at_k(preds_q, gts_q, 5, thr) >= M.recall_at_k(preds_q, gts_q, 1, thr)
    for k in (1, 5):
        assert M.recall_at_k(preds_q, gts_q, k, 0.5) >= M.recall_at_k(preds_q, gts_q, k, 0.7)


# --- highlight metrics ---


def test_highlight_perfect_and_hand_cases():
    labels = np.array([0, 1, 1, 0, 0], dtype=bool)
    hd_map, hit = M.highlight_metrics([labels.astype(float)], [labels])
    assert hd_map == 1.0 and hit == 1.0
    scores = np.array([0.9, 0.1, 0.2, 0.3, 0.4])  # top clip is a negative
    hd_map, hit = M.highlight_metrics([scores], [labels])
    assert hit == 0.0
    assert 0.0 < hd_map < 1.0


def test_highlight_excludes_videos_without_positives():
    no_pos = np.zeros(4, dtype=bool)
    pos = np.array([1, 0, 0, 0], dtype=bool)
    hd_map, hit = M.highlight_metrics(
        [np.array([0.9, 0.1, 0.1, 0.1]), np.array([0.9, 0.1, 0.1, 0.1])], [no_pos, pos]
    )
    assert hd_map == 1.0 and hit == 1.0  # only the second video counts
    assert M.highlight_metrics([np.ones(3)], [np.zeros(3, dtype=bool)]) == (0.0, 0.0)


def test_highlight_matches_oracle_exactly():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 17))
        scores = rng.uniform(0, 1, n)
        labels = rng.uniform(0, 1, n) < 0.4
        if not labels.any():
            labels[int(rng.integers(0, n))] = True
        got_map, got_hit = M.highlight_metrics([scores], [labels])
        order = sorted(range(n), key=lambda i: (-scores[i], i))
        flags = [bool(labels[i]) for i in order]
        assert got_map == pytest.approx(oracle_ap_from_flags(flags, int(labels.sum())), abs=1e-12)
        assert got_hit == (1.0 if labels[order[0]] else 0.0)


def test_top5_hand_cases():
    labels = np.ones(8, dtype=bool)
    scores = np.linspace(1, 0, 8)
    assert M.top5_map([scores], [labels]) == 1.0  # all five retained clips positive
    labels = np.zeros(8, dtype=bool)
    labels[7] = True  # positive exists but scores last
    assert M.top5_map([scores], [labels]) == 0.0
    short_scores = np.array([0.2, 0.9, 0.4])  # fewer than five clips: use all
    short_labels = np.array([0, 1, 0], dtype=bool)
    assert M.top5_map([short_scores], [short_labels]) == 1.0


def test_top5_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 17))
        scores = rng.uniform(0, 1, n)
        labels = rng.uniform(0, 1, n) < 0.5
        if not labels.any():
            labels[int(rng.integers(0, n))] = True
        got = M.top5_map([scores], [labels])
        order = sorted(range(n), key=lambda i: (-scores[i], i))[:5]
        flags = [bool(labels[i]) for i in order]
        assert got == pytest.approx(oracle_ap_from_flags(flags, sum(flags)), abs=1e-12)


# --- report assembly ---


def test_build_report_task_selection():
    preds_q = [[P(0.0, 5.0, 0.9)]]
    gts_q = [[(0.0, 5.0)]]
    sal = [np.array([0.9, 0.1])]
    pos = [np.array([1, 0], dtype=bool)]
    both = M.build_report(preds_q, gts_q, sal, pos, tasks="both")
    assert both.map_avg == 1.0 and both.hd_map == 1.0 and both.top5_map == 1.0
    assert set(both.map_at) == set(M.IOU_GRID)
    hd_only = M.build_report(None, None, sal, pos, tasks="hd")
    assert hd_only.r1_at is None and hd_only.map_avg is None
    assert hd_only.hit_at_1 == 1.0
    mr_only = M.build_report(preds_q, gts_q, None, None, tasks="mr")
    assert mr_only.hd_map is None and mr_only.r1_at[0.5] == 1.0
    with pytest.raises(ValueError):
        M.build_report(preds_q, gts_q, sal, pos, tasks="everything")


def test_report_serialization():
    rep = M.build_report(
        [[P(0.0, 5.0, 0.9)]], [[(0.0, 5.0)]], [np.array([0.9, 0.1])], [np.array([1, 0], dtype=bool)]
    )
    doc = rep.as_dict()
    assert doc["map_at"]["0.50"] == 1.0
    assert doc["hit_at_1"] == 1.0
    assert all(0.0 <= v <= 1.0 for v in doc["r1_at"].values())
