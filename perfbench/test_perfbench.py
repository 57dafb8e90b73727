"""Tests of the benchmark's own parts.

From the repository root: ``PYTHONPATH=src python3 -m pytest -q perfbench``
"""

from __future__ import annotations

import pytest

from momentkit import autograd, blocks, model, train
from momentkit.data import SynthConfig, synthesize_dataset
from momentkit.decode import MomentPrediction, PredictionRecord

import checks
import collect
import session
import spans
from workloads import WORKLOADS


def _span(name, start, end, parent=-1, phase="p", macs=0):
    return spans.Span(name, phase, parent, start, end, macs)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert spans.covered(0, 100, []) == 0
    assert spans.covered(0, 100, [(10, 20), (30, 40)]) == 20
    assert spans.covered(0, 100, [(10, 30), (20, 40)]) == 30
    assert spans.covered(0, 100, [(-5, 10), (90, 120)]) == 20
    assert spans.covered(0, 100, [(20, 30), (10, 40), (35, 50)]) == 40


def test_self_time_is_duration_minus_children():
    recorded = [
        _span("outer", 0, 100, macs=50),
        _span("a", 10, 30, parent=0, macs=20),
        _span("b", 15, 20, parent=1, macs=5),   # grandchild: counted against "a", not "outer"
        _span("c", 60, 90, parent=0, macs=10),
    ]
    assert spans.self_times(recorded) == [(50, 20), (15, 15), (5, 5), (30, 10)]


def test_stages_partition_the_forward():
    recorded = [
        _span("model.forward", 0, 100, macs=100),
        _span("model.encoders", 0, 50, parent=0, macs=60),
        _span("blocks.attention", 5, 15, parent=1, macs=10),
        _span("model.fusion", 20, 45, parent=1, macs=40),
        _span("blocks.attention", 25, 35, parent=3, macs=30),
        _span("model.query", 50, 60, parent=0, macs=5),
        _span("model.heads", 60, 100, parent=0, macs=35),
        _span("model.decoder", 65, 95, parent=6, macs=33),
    ]
    tot = spans.stage_totals(recorded, "p")
    assert {s: t["ns"] for s, t in tot.items()} == {
        "encoders": 25, "fusion": 25, "query": 10, "decoder": 30, "heads": 10,
    }
    assert {s: t["self_ns"] for s, t in tot.items()} == {
        "encoders": 15, "fusion": 15, "query": 10, "decoder": 30, "heads": 10,
    }
    assert sum(t["macs"] for t in tot.values()) == 100
    assert tot["encoders"]["macs"] == 20 and tot["fusion"]["macs"] == 40


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert session.tail_percentile(values) == (90, 90)
    assert session.tail_percentile(list(reversed(values)) + [1000]) == (90, 91)
    assert session.tail_percentile(list(range(128))) == (92, 117)
    pct, value = session.tail_percentile(list(range(20)))
    assert (pct, value) == (50, 9)
    assert sum(v > value for v in range(20)) == 10
    with pytest.raises(ValueError):
        session.tail_percentile(list(range(10)))


def test_tail_requests_are_whole_serving_passes_with_a_tail():
    for wl in WORKLOADS.values():
        assert wl.tail_requests % len(wl.predict_lengths) == 0   # every video length equally represented
        session.tail_percentile(list(range(wl.tail_requests)))


def test_worse_by_follows_the_better_direction():
    assert collect.worse_by(100.0, 110.0, "lower") == pytest.approx(0.1)
    assert collect.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.1)
    assert collect.worse_by(10.0, 8.0, "higher") == pytest.approx(0.2)


def _targets_now():
    return {f"{owner.__name__}.{attr}": vars(owner)[attr] for owner, attr, _, _ in spans._targets()}


def test_traced_run_leaves_no_wrapper_installed():
    before = _targets_now()
    (video,) = synthesize_dataset(SynthConfig(n_videos=1, n_clips=8, seed=3))
    net = model.MomentModel(model.ModelConfig(model_dim=16, heads=2, n_bottleneck=2), seed=0)
    rec = spans.Recorder()
    with spans.traced(rec):
        assert len(spans.installed_wrappers()) == len(before)
        train.train(net, [video], train.TrainConfig(epochs=1, batch_size=1))
        train.predict(net, [video])
    assert spans.installed_wrappers() == []
    assert _targets_now() == before
    names = {s.name for s in rec.spans}
    assert {"blocks.attention", "model.forward", "autograd.backward", "train.adamw_step",
            "decode.decode", "losses.targets"} <= names
    # a failure inside the traced body restores the originals as well
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Recorder()):
            raise RuntimeError("boom")
    assert spans.installed_wrappers() == []
    assert _targets_now() == before
    assert blocks.attention is before["momentkit.blocks.attention"]


def test_tape_node_count_matches_the_backward_walk():
    x = autograd.Tensor([1.0, 2.0], requires_grad=True)
    y = autograd.mul(x, x)
    loss = autograd.sum_(autograd.add(y, y))
    assert spans.count_tape_nodes(loss) == 4
    assert spans.count_tape_nodes(loss) == len(autograd._topo_order(loss))


def _record(**change):
    doc = {
        "moments": [MomentPrediction(1.0, 3.0, 0.9), MomentPrediction(4.0, 6.0, 0.5)],
        "saliency": [0.1, 0.5, 0.9, 0.0, 1.0, 0.3, 0.2, 0.4],
    }
    doc.update(change)
    return PredictionRecord("v", doc["moments"], doc["saliency"])


def test_record_checks_accept_a_good_record():
    assert checks.record_problems(_record(), n_clips=8, clip_seconds=1.0) == []


@pytest.mark.parametrize("change", [
    {"moments": [MomentPrediction(3.0, 1.0, 0.9)]},                                  # start after end
    {"moments": [MomentPrediction(2.0, 2.0, 0.9)]},                                  # empty
    {"moments": [MomentPrediction(-0.5, 2.0, 0.9)]},                                 # before the video
    {"moments": [MomentPrediction(6.0, 8.5, 0.9)]},                                  # past the video
    {"moments": [MomentPrediction(1.0, 3.0, 0.4), MomentPrediction(4.0, 6.0, 0.5)]},  # confidence rises
    {"saliency": [0.1, 0.5, 1.5, 0.0, 1.0, 0.3, 0.2, 0.4]},                          # saliency above 1
    {"saliency": [0.1, 0.5, float("nan"), 0.0, 1.0, 0.3, 0.2, 0.4]},                 # not a number
    {"saliency": [0.1, 0.5]},                                                        # wrong length
])
def test_record_checks_catch_a_corrupted_record(change):
    assert checks.record_problems(_record(**change), n_clips=8, clip_seconds=1.0)


def test_ops_count_failed_checks():
    ops = session.Ops()
    ops.unit()
    ops.check("good", [])
    ops.check("bad", ["x", "y"])
    assert (ops.attempted, ops.failed) == (3, 1)
    assert ops.problems == ["bad: x", "bad: y"]


def test_replicate_and_loss_checks():
    assert checks.replicate_problems(([1.0], "h"), ([1.0], "h")) == []
    assert checks.replicate_problems(([1.0], "h"), ([1.0], "g"))
    assert checks.replicate_problems(([1.0], "h"), ([1.5], "h"))
    assert checks.loss_problems([1.0, 0.5]) == []
    assert checks.loss_problems([1.0, float("inf")])
    assert checks.loss_problems([])
