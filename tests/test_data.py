"""Feature file format, manifest round-trips, and the synthesizer."""

from __future__ import annotations

import json

import numpy as np
import pytest

from momentkit import data as dio


def test_matrix_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(37, 12)).astype(np.float32)
    path = tmp_path / "m.bin"
    dio.write_matrix(path, arr)
    back = dio.read_matrix(path)
    np.testing.assert_array_equal(back, arr)
    assert back.dtype == np.float32
    assert path.stat().st_size == 8 + 4 * 37 * 12


def test_matrix_rejects_truncation_mismatch_and_absence(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x01\x00")
    with pytest.raises(dio.DataError):
        dio.read_matrix(path)
    dio.write_matrix(path, np.zeros((4, 4), dtype=np.float32))
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])  # drop one float
    with pytest.raises(dio.DataError):
        dio.read_matrix(path)
    with pytest.raises(dio.DataError):
        dio.read_matrix(tmp_path / "nope.bin")


def test_matrix_rejects_non_2d():
    with pytest.raises(dio.DataError):
        dio.write_matrix("unused", np.zeros(5, dtype=np.float32))


def make_sample(vid="v0", n_clips=10, with_text=True, positive_threshold=0.5):
    rng = np.random.default_rng(abs(hash(vid)) % 2**32)
    return dio.VideoSample(
        video_id=vid,
        clip_seconds=2.0,
        visual=dio.FeatureSequence(rng.normal(size=(n_clips, 6)), "visual"),
        audio=dio.FeatureSequence(rng.normal(size=(n_clips, 4)), "audio"),
        text=dio.FeatureSequence(rng.normal(size=(3, 5)), "text") if with_text else None,
        moments=[dio.MomentAnnotation(2.5, 3.0), dio.MomentAnnotation(7.0, 2.0)],
        saliency=np.linspace(0.0, 1.0, n_clips),
        positive_threshold=positive_threshold,
    )


def test_dataset_roundtrip(tmp_path):
    samples = [make_sample("v0", positive_threshold=0.4), make_sample("v1", with_text=False, positive_threshold=0.4)]
    manifest = dio.save_dataset(tmp_path, samples)
    back = dio.load_dataset(manifest)
    assert len(back) == 2
    for orig, got in zip(samples, back):
        assert got.video_id == orig.video_id
        assert got.clip_seconds == orig.clip_seconds
        assert got.positive_threshold == 0.4
        np.testing.assert_array_equal(got.visual.array, orig.visual.array)
        np.testing.assert_array_equal(got.audio.array, orig.audio.array)
        if orig.text is None:
            assert got.text is None
        else:
            np.testing.assert_array_equal(got.text.array, orig.text.array)
        assert [(m.center, m.window) for m in got.moments] == [
            (m.center, m.window) for m in orig.moments
        ]
        np.testing.assert_array_equal(got.saliency, orig.saliency)


def test_saved_manifests_keep_the_threshold_they_were_loaded_at(tmp_path):
    manifest = dio.save_dataset(tmp_path / "a", [make_sample("v0", positive_threshold=0.7)])
    loaded = dio.load_dataset(manifest)
    again = dio.load_dataset(dio.save_dataset(tmp_path / "b", loaded))
    assert [s.positive_threshold for s in again] == [0.7]
    with pytest.raises(dio.DataError, match="positive_threshold"):
        dio.save_dataset(tmp_path / "c", [make_sample("v0"), make_sample("v1", positive_threshold=0.7)])


def test_one_based_manifests_shift_centers_once(tmp_path):
    manifest_path = dio.save_dataset(tmp_path, [make_sample("v0")])
    doc = json.loads(manifest_path.read_text())
    doc["coordinate_base"] = 1
    doc["samples"][0]["moments"] = [{"center": 3.0, "window": 2.0}]
    manifest_path.write_text(json.dumps(doc))
    got = dio.load_dataset(manifest_path)[0]
    assert got.moments[0].center == pytest.approx(2.0)
    assert got.moments[0].window == pytest.approx(2.0)


def test_manifest_validation_errors(tmp_path):
    manifest_path = dio.save_dataset(tmp_path, [make_sample("v0")])
    doc = json.loads(manifest_path.read_text())
    doc["version"] = 99
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(dio.DataError):
        dio.load_dataset(manifest_path)
    doc["version"] = 1
    doc["coordinate_base"] = 2
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(dio.DataError):
        dio.load_dataset(manifest_path)
    manifest_path.write_text("{not json")
    with pytest.raises(dio.DataError):
        dio.load_dataset(manifest_path)
    with pytest.raises(dio.DataError):
        dio.load_dataset(tmp_path / "absent" / "manifest.json")


def test_load_errors_name_the_offending_sample(tmp_path):
    manifest_path = dio.save_dataset(tmp_path, [make_sample("v0"), make_sample("v1")])
    manifest = manifest_path.read_text()
    for field in ("center", "window"):
        doc = json.loads(manifest)
        doc["samples"][1]["moments"][0][field] = float("nan")
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(dio.DataError, match="sample v1: moment needs a finite center"):
            dio.load_dataset(manifest_path)
    manifest_path.write_text(manifest)
    (tmp_path / "features" / "v1.audio.bin").unlink()
    with pytest.raises(dio.DataError, match="v1"):
        dio.load_dataset(manifest_path)


def test_modality_length_mismatch_names_sample(tmp_path):
    manifest_path = dio.save_dataset(tmp_path, [make_sample("v0")])
    dio.write_matrix(tmp_path / "features" / "v0.audio.bin", np.zeros((7, 4), dtype=np.float32))
    with pytest.raises(dio.DataError, match="v0"):
        dio.load_dataset(manifest_path)


def test_non_finite_features_rejected():
    bad = np.ones((4, 3))
    bad[1, 2] = np.nan
    with pytest.raises(dio.DataError):
        dio.FeatureSequence(bad, "visual")


def test_sample_validation():
    rng = np.random.default_rng(1)
    vis = dio.FeatureSequence(rng.normal(size=(8, 4)), "visual")
    with pytest.raises(dio.DataError):
        dio.VideoSample("x", 1.0, vis, saliency=np.zeros(5))
    with pytest.raises(dio.DataError):
        dio.VideoSample("x", 1.0, vis, audio=dio.FeatureSequence(rng.normal(size=(7, 4)), "audio"))
    with pytest.raises(dio.DataError):
        dio.VideoSample("x", 1.0, visual=None, audio=None)
    with pytest.raises(dio.DataError):
        dio.MomentAnnotation(5.0, 0.0)
    with pytest.raises(dio.DataError):  # entirely outside the video
        dio.VideoSample("x", 1.0, vis, moments=[dio.MomentAnnotation(20.0, 2.0)])


def test_audio_only_sample_is_valid():
    aud = dio.FeatureSequence(np.zeros((6, 4)), "audio")
    s = dio.VideoSample("a", 1.5, visual=None, audio=aud)
    assert s.n_clips == 6


def test_moment_span_helpers():
    m = dio.MomentAnnotation(3.5, 3.0)
    assert m.start_clips == pytest.approx(2.0)
    assert m.end_clips == pytest.approx(5.0)
    assert m.span_seconds(2.0) == (pytest.approx(4.0), pytest.approx(10.0))


def test_positive_flags_threshold():
    s = make_sample("v0")  # saliency = linspace(0, 1, 10), threshold 0.5
    flags = s.positive_flags()
    assert flags.sum() == 5
    assert not dio.VideoSample("y", 1.0, s.visual, saliency=None).positive_flags().any()


def test_synthesizer_is_deterministic():
    cfg = dio.SynthConfig(n_videos=3, seed=7)
    a = dio.synthesize_dataset(cfg)
    b = dio.synthesize_dataset(cfg)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.visual.array, sb.visual.array)
        np.testing.assert_array_equal(sa.text.array, sb.text.array)
        np.testing.assert_array_equal(sa.saliency, sb.saliency)
        assert [(m.center, m.window) for m in sa.moments] == [(m.center, m.window) for m in sb.moments]
    c = dio.synthesize_dataset(dio.SynthConfig(n_videos=3, seed=8))
    assert not np.array_equal(a[0].visual.array, c[0].visual.array)


def test_synthesizer_moment_geometry():
    cfg = dio.SynthConfig(n_videos=24, n_clips=40, min_moments=2, max_moments=3, seed=11)
    for s in dio.synthesize_dataset(cfg):
        assert len(s.moments) >= 1
        centers = [np.floor(m.center + 0.5) for m in s.moments]
        for a, b in zip(s.moments, s.moments[1:]):
            assert a.end_clips <= b.start_clips  # sorted and non-overlapping
        for ca, cb in zip(centers, centers[1:]):
            assert abs(cb - ca) >= 2
        for m in s.moments:
            assert m.start_clips >= 0.0
            assert m.end_clips <= s.n_clips


def test_synthesizer_saliency_marks_exactly_the_planted_clips():
    cfg = dio.SynthConfig(n_videos=8, seed=13)
    for s in dio.synthesize_dataset(cfg):
        inside = np.zeros(s.n_clips, dtype=bool)
        for m in s.moments:
            for i in range(s.n_clips):
                if m.start_clips <= i + 0.5 <= m.end_clips:
                    inside[i] = True
        assert np.array_equal(s.saliency > 0, inside)
        assert np.all(s.saliency[inside] >= 0.6)
        assert np.all(s.saliency <= 1.0)
        assert np.array_equal(s.positive_flags(), inside)  # 0.6 clears the 0.5 threshold


def _group_mean_sq(samples):
    inside, outside = [], []
    for s in samples:
        mask = s.saliency > 0
        sq = (s.visual.array.astype(np.float64) ** 2).sum(axis=1)
        inside.extend(sq[mask])
        outside.extend(sq[~mask])
    return np.mean(inside), np.mean(outside)


def test_zero_snr_leaves_no_feature_trace():
    cfg = dio.SynthConfig(n_videos=48, n_clips=32, snr=0.0, seed=17)
    mean_in, mean_out = _group_mean_sq(dio.synthesize_dataset(cfg))
    # both are mean squared norms of N(0,1)^24 draws: expect ~24 with std < 0.5
    assert abs(mean_in - mean_out) < 1.5
    strong = dio.SynthConfig(n_videos=48, n_clips=32, snr=3.0, seed=17)
    mean_in_s, mean_out_s = _group_mean_sq(dio.synthesize_dataset(strong))
    assert mean_in_s - mean_out_s > 3.0  # offset of norm ~3 adds ~ snr^2 * strength^2


def test_synthesizer_modality_switches_and_validation():
    cfg = dio.SynthConfig(n_videos=2, with_audio=False, with_text=False, seed=19)
    for s in dio.synthesize_dataset(cfg):
        assert s.audio is None and s.text is None
    with pytest.raises(dio.DataError):
        dio.synthesize_dataset(dio.SynthConfig(n_clips=1))
    with pytest.raises(dio.DataError):
        dio.synthesize_dataset(dio.SynthConfig(min_moments=3, max_moments=2))
