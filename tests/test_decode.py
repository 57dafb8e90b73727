"""Center extraction, interval composition, and the target round trip."""

from __future__ import annotations

import re

import numpy as np
import pytest

from momentkit import decode as dec
from momentkit.data import DataError, MomentAnnotation
from momentkit.losses import build_targets


def test_local_maxima_hand_example():
    heat = np.array([0.1, 0.9, 0.1, 0.8, 0.2])
    assert dec.extract_centers(heat, top_k=2) == [1, 3]


def test_boundary_clips_compare_single_neighbour():
    heat = np.array([0.9, 0.5, 0.2, 0.6])
    assert dec.extract_centers(heat, top_k=4) == [0, 3]


def test_ties_rank_by_lower_index():
    heat = np.array([0.3, 0.7, 0.3, 0.7, 0.3])
    assert dec.extract_centers(heat, top_k=2) == [1, 3]


def test_top_k_truncates_and_validates():
    heat = np.array([0.5, 0.1, 0.4, 0.1, 0.3])
    assert dec.extract_centers(heat, top_k=1) == [0]
    with pytest.raises(ValueError):
        dec.extract_centers(heat, top_k=0)


def test_local_maxima_match_a_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        # coarse levels make plateaus and ties common
        heat = rng.integers(0, 4, n) / 4.0 if rng.uniform() < 0.5 else rng.uniform(0, 1, n)
        want = [i for i in range(n) if all(heat[i] >= heat[j] for j in (i - 1, i + 1) if 0 <= j < n)]
        want.sort(key=lambda i: (-heat[i], i))
        assert dec.extract_centers(heat, top_k=n) == want
        k = int(rng.integers(1, n + 1))
        assert dec.extract_centers(heat, top_k=k) == want[:k]


def test_compose_hand_example():
    # center clip 5, offset +0.25, window 4 clips of 2 s each
    heat = np.full(10, 0.5)
    window = np.zeros(10)
    offset = np.zeros(10)
    window[5], offset[5] = 4.0, 0.25
    (m,) = dec.compose_moments([5], heat, window, offset, clip_seconds=2.0)
    assert m.start == pytest.approx(6.5)
    assert m.end == pytest.approx(14.5)
    assert m.confidence == 0.5


def test_compose_drops_empty_spans_and_clips_to_extent():
    heat = np.array([0.9, 0.8, 0.7, 0.6])
    window = np.array([0.0, 50.0, 2.0, 0.0])
    offset = np.zeros(4)
    out = dec.compose_moments([0, 1, 2, 3], heat, window, offset, clip_seconds=1.0)
    assert len(out) == 2  # zero-window candidates at 0 and 3 dropped
    assert out[0].start == 0.0 and out[0].end == 4.0  # clipped to the video
    assert out[1].start == pytest.approx(1.0) and out[1].end == pytest.approx(3.0)


def test_compose_orders_by_confidence_then_index():
    heat = np.array([0.2, 0.9, 0.9, 0.4])
    window = np.ones(4)
    offset = np.zeros(4)
    out = dec.compose_moments([0, 1, 2, 3], heat, window, offset, clip_seconds=1.0)
    assert [m.confidence for m in out] == [0.9, 0.9, 0.4, 0.2]
    assert out[0].start < out[1].start  # the tie broke toward clip 1


def test_roundtrip_recovers_hand_case():
    ts = build_targets([MomentAnnotation(5.3, 6.0)], None, 16)
    (m,) = dec.roundtrip(ts, clip_seconds=1.0)
    center = (m.start + m.end) / 2.0
    width = m.end - m.start
    assert abs(center - 5.3) < 1e-9
    assert abs(width - 6.0) < 1e-9


def test_roundtrip_recovers_two_separated_moments():
    moments = [MomentAnnotation(3.4, 3.0), MomentAnnotation(10.8, 4.0)]
    ts = build_targets(moments, None, 16)
    out = dec.roundtrip(ts)
    recovered = sorted(((m.start + m.end) / 2.0, m.end - m.start) for m in out)
    assert len(recovered) == 2
    for (c, w), m in zip(recovered, moments):
        assert abs(c - m.center) < 1e-9
        assert abs(w - m.window) < 1e-9


def test_roundtrip_empty_targets():
    ts = build_targets([], None, 8)
    assert dec.roundtrip(ts) == []


def test_roundtrip_across_random_separated_moments():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(12, 40))
        count = int(rng.integers(1, 4))
        centers: list[float] = []
        moments = []
        for _ in range(40):
            if len(moments) == count:
                break
            w = float(rng.uniform(1.0, 6.0))
            c = float(rng.uniform(w / 2.0, min(n - w / 2.0, n - 0.51)))
            if all(abs(np.floor(c + 0.5) - np.floor(o + 0.5)) >= 2 for o in centers):
                centers.append(c)
                moments.append(MomentAnnotation(c, w))
        ts = build_targets(moments, None, n)
        out = dec.roundtrip(ts)
        got = sorted(((m.start + m.end) / 2.0, m.end - m.start) for m in out)
        want = sorted((m.center, m.window) for m in moments)
        assert len(got) == len(want)
        for (gc, gw), (wc, ww) in zip(got, want):
            assert abs(gc - wc) < 1e-9
            assert abs(gw - ww) < 1e-9


def test_prediction_records_roundtrip_through_json_lines(tmp_path):
    recs = [
        dec.PredictionRecord("v0", [dec.MomentPrediction(1.0, 3.5, 0.8)], [0.1, 0.9]),
        dec.PredictionRecord("v1", [], [0.5]),
    ]
    path = tmp_path / "preds.jsonl"
    dec.write_predictions(path, recs)
    back = dec.read_predictions(path)
    assert back == recs


@pytest.mark.parametrize("line, detail", [
    ('{"id": "a"}', "KeyError: 'moments'"),
    ('{"id": "a", "moments": [', "JSONDecodeError"),
    ('["a", [], []]', "TypeError"),
])
def test_a_malformed_predictions_line_is_a_data_error(tmp_path, line, detail):
    path = tmp_path / "preds.jsonl"
    good = dec.PredictionRecord("v", [dec.MomentPrediction(0.0, 1.0, 0.5)], [0.5]).to_json_line()
    path.write_text(f"{good}\n\n{line}\n")
    with pytest.raises(DataError, match=rf"preds\.jsonl: line 3: .*{re.escape(detail)}"):
        dec.read_predictions(path)
