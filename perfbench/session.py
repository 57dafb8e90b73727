"""One benchmark session: train, write the checkpoint, load it, predict, check.

The session drives momentkit only through ``data.load_dataset``,
``MomentModel(...)``, ``train.train``, ``model.load_checkpoint``,
``train.predict`` and ``metrics.build_report``; the output checks also run
``MomentModel.forward`` with and without gradients. Module attributes are
looked up at call time, so the span wrappers of a traced run are seen here.
"""

from __future__ import annotations

import hashlib
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from momentkit import autograd, data, metrics, model, train

import checks
from workloads import Workload

MODEL_SEED = 0         # model init and training shuffle; the workload seed drives the corpora alone
SETUP_GROUPS = 2       # timed groups of main-phase set-ups in each cycle, so they sample the whole run
# Set-ups per timed group. A new model's pages come alternately from the OS
# (page faults, about 1.5x slower) and from the model freed before it, so the
# median of single set-ups lands in either mode; a pair holds one of each.
SETUP_GROUP_SIZE = 2
MIN_CYCLES = 3         # timed train-then-serve cycles, however short the budget
TAIL_BEYOND = 10       # samples that must lie beyond the reported tail percentile
CHECKPOINT = Path("ckpt") / "final.ckpt"   # under the work directory: what training writes and serving loads


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it, and its value.

    Sessions pass a fixed number of requests, so every run of a workload
    reports the same percentile.

    Nearest-rank: the p-th percentile of n sorted values is the one at rank
    ceil(p * n / 100); the samples beyond it are those at higher ranks.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} samples beyond it")


@dataclass
class Ops:
    """Timed units and output checks: how many were attempted, and what failed."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0

    def unit(self) -> None:
        self.attempted += 1

    def check(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


@dataclass
class SessionResult:
    setup_s: list[float]       # set-ups of the main phase
    epoch_s: list[float]       # timed one-epoch train() calls, warm-up left out
    samples_per_epoch: int
    train_loss: float          # mean loss of one epoch from a fresh model
    video_ms: list[float]      # predict requests, in the order served
    peak_rss_mb: float
    warmup_rss_mb: float       # peak RSS after the warm-up epoch, before any request
    check_macs: int            # MAC-counter delta over the checked no-grad forward
    main_units: list[float]    # the main phase's timed units: epochs in s, or requests in ms
    ops: Ops


def _model_config(samples) -> model.ModelConfig:
    """The default model, with feature dims taken from the data."""
    first = samples[0]
    return model.ModelConfig(visual_dim=first.visual.dim, audio_dim=first.audio.dim, text_dim=first.text.dim)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _set_phase(rec, phase: str) -> None:
    if rec is not None:
        rec.phase = phase


def _setup(manifest: Path, checkpoint: Path | None):
    """Load a corpus, then build a fresh model or load ``checkpoint``."""
    samples = data.load_dataset(manifest)
    if checkpoint is None:
        return samples, model.MomentModel(_model_config(samples), seed=MODEL_SEED)
    return samples, model.load_checkpoint(checkpoint)[0]


def _timed_setups(manifest: Path, checkpoint: Path | None, groups: int):
    """Set up ``groups`` times ``SETUP_GROUP_SIZE`` times, back to back.

    Returns the mean time of one set-up in each group, and the last result.
    Each result is released only once the next one is built, as when a
    long-lived process replaces its model.
    """
    times = []
    for _ in range(groups):
        t0 = time.perf_counter()
        for _ in range(SETUP_GROUP_SIZE):
            result = _setup(manifest, checkpoint)
        times.append((time.perf_counter() - t0) / SETUP_GROUP_SIZE)
    return times, result


def _train_epoch(wl: Workload, samples, net, out_dir: Path, rec):
    """Train ``net`` for one epoch and write ``final.ckpt``; returns the time and outcome."""
    cfg = train.TrainConfig(epochs=1, batch_size=wl.batch_size, seed=MODEL_SEED)
    t0 = time.perf_counter()
    if rec is None:
        result = train.train(net, samples, cfg, out_dir)
    else:
        with rec.span("session.train_unit"):
            result = train.train(net, samples, cfg, out_dir)
    elapsed = time.perf_counter() - t0
    digest = hashlib.sha256((out_dir / "final.ckpt").read_bytes()).hexdigest()
    return elapsed, (result.loss_history, digest)


def run_session(wl: Workload, manifests: tuple[Path, Path], budget_s: float, workdir: Path,
                rec=None, min_requests: int = 0) -> SessionResult:
    """Run one session; cycles of train-then-serve fill ``budget_s`` seconds.

    Cycles go on past the budget until at least ``min_requests`` requests
    have been served.

    Each cycle builds a fresh, identically seeded model, trains it for one
    epoch, writes ``final.ckpt``, loads it back and predicts every held-out
    video once, one request per video. The main phase's set-up is timed a few
    times per cycle. Interleaving keeps every figure measured over the same
    stretch of time.
    """
    train_manifest, predict_manifest = manifests
    ops = Ops()
    checkpoint = workdir / CHECKPOINT
    repeats = {phase: SETUP_GROUPS if phase == wl.main else 1 for phase in ("train", "predict")}

    # warm-up: the first epoch grows the heap; its outcome is the reference for the rest
    _set_phase(rec, "train")
    samples, net = _setup(train_manifest, None)
    _, first = _train_epoch(wl, samples, net, checkpoint.parent, rec)
    ops.unit()
    ops.check("losses", checks.loss_problems(first[0]))
    warmup_rss_mb = _peak_rss_mb()

    setups, epochs, video_ms, records = [], [], [], []
    deadline = time.perf_counter() + budget_s
    while len(epochs) < MIN_CYCLES or len(video_ms) < min_requests or time.perf_counter() < deadline:
        _set_phase(rec, "train")
        times, (samples, net) = _timed_setups(train_manifest, None, repeats["train"])
        epoch_s, outcome = _train_epoch(wl, samples, net, checkpoint.parent, rec)
        epochs.append(epoch_s)
        ops.unit()
        ops.check("losses", checks.loss_problems(outcome[0]))
        ops.check("same-seed train()", checks.replicate_problems(first, outcome))
        if wl.main == "train":
            setups += times

        _set_phase(rec, "predict")
        times, (videos, served) = _timed_setups(predict_manifest, checkpoint, repeats["predict"])
        if wl.main == "predict":
            setups += times
        for video in videos:
            t0 = time.perf_counter()
            (record,) = train.predict(served, [video])
            video_ms.append((time.perf_counter() - t0) * 1e3)
            ops.unit()
            ops.check(f"record {video.video_id}", checks.record_problems(record, video.n_clips, video.clip_seconds))
            records.append((record, video))
    ops.attempted += len(setups)
    report = metrics.build_report(
        [r.moments for r, _ in records],
        [[m.span_seconds(v.clip_seconds) for m in v.moments] for _, v in records],
        [np.asarray(r.saliency) for r, _ in records],
        [v.positive_flags() for _, v in records],
    )
    ops.check("report", checks.report_problems(report))
    peak_rss_mb = _peak_rss_mb()

    # -- check: one sampled video, forward with and without gradients ----------
    video = videos[len(videos) // 2]
    _set_phase(rec, "check")
    with autograd.no_grad():
        macs0 = autograd.mac_count()
        plain = served.forward(video)
        check_macs = autograd.mac_count() - macs0
    _set_phase(rec, "check_grad")
    taped = served.forward(video)
    ops.check("no_grad forward", checks.forward_mismatches(plain, taped))
    _set_phase(rec, "")

    return SessionResult(
        setup_s=setups,
        epoch_s=epochs,
        samples_per_epoch=len(samples),
        train_loss=first[0][-1],
        video_ms=video_ms,
        peak_rss_mb=peak_rss_mb,
        warmup_rss_mb=warmup_rss_mb,
        check_macs=check_macs,
        main_units=epochs if wl.main == "train" else video_ms,
        ops=ops,
    )
