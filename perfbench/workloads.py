"""The benchmark's workloads and the corpora they are run on.

Every workload is one session of a single client in a closed loop, on one
thread, repeating one cycle: build a fresh model, train it for one epoch,
write ``final.ckpt``, load it back and predict each held-out video once, one
request per video; the predictions are scored at the end. Both phases run on every
workload, so every layer is exercised and every metric exists everywhere. The
corpus sizes decide where the time goes; ``main`` names the phase that takes
most of it, whose set-up ``setup_s`` times and whose spans the per-layer
figures prefer.

Corpora come from ``synthesize_dataset`` and are written with ``save_dataset``
under the session's work directory; the program reads only those files.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from momentkit.data import SynthConfig, save_dataset, synthesize_dataset


# Moments per synthetic video (QVHighlights averages 1.8). A fixed count keeps
# the training loss from swinging across seeds with the share of one-moment
# videos: the center loss is normalised by the moment count.
MOMENTS = 2


# QVHighlights (Lei et al., 2021) cuts every video into 75 clips of two seconds.
QVH_CLIPS = 75
# train_long's ragged mix: four videos each of 64, 96, 128 and 160 clips
RAGGED = (64,) * 4 + (96,) * 4 + (128,) * 4 + (160,) * 4
# Held-out videos spanning the same range: two of each length 6 clips apart.
# Latency follows length, so a percentile that falls at the edge between two
# lengths is an extreme of one of them and swings. Four equal groups of the
# training lengths put the median at such an edge. Here both the median and
# the tail (ten requests beyond it, out of ten serving passes) fall in the
# middle of one length's twenty requests.
RAGGED_SPAN = tuple(n for n in range(64, 161, 6) for _ in range(2))


@dataclass(frozen=True)
class Workload:
    name: str                               # why each workload exists is recorded in BENCHMARK.json
    main: str                               # "train" or "predict": the phase that takes most of the time
    train_lengths: tuple[int, ...]          # clip count of each training video
    batch_size: int
    predict_lengths: tuple[int, ...]        # clip count of each held-out video served after training
    tail_requests: int                      # the tail latency is taken over this many first requests


WORKLOADS = {
    w.name: w
    for w in (
        # Training dominates. The held-out videos span the training corpus's
        # range of lengths.
        Workload(
            name="train_long",
            main="train",
            train_lengths=RAGGED,
            batch_size=4,
            predict_lengths=RAGGED_SPAN,
            tail_requests=340,
        ),
        # Serving dominates. The short training phase uses the QVHighlights
        # shape, 75 clips per video, as in UMT (Liu et al., CVPR 2022).
        Workload(
            name="predict_long",
            main="predict",
            train_lengths=(QVH_CLIPS,) * 16,
            batch_size=4,
            predict_lengths=(512,) * 24,
            tail_requests=120,
        ),
    )
}


def synth_corpus(lengths: tuple[int, ...], seed: int) -> list:
    """Synthetic videos of the given clip counts; the same seed gives the same corpus.

    Videos of one length come from one ``synthesize_dataset`` call; each
    length group gets its own generator seed and an id prefix naming its length.
    """
    samples = []
    for group, n_clips in enumerate(sorted(set(lengths))):
        count = lengths.count(n_clips)
        cfg = SynthConfig(n_videos=count, n_clips=n_clips, seed=seed * 64 + group,
                          min_moments=MOMENTS, max_moments=MOMENTS)
        samples += [
            dataclasses.replace(s, video_id=f"c{n_clips}_{i:03d}") for i, s in enumerate(synthesize_dataset(cfg))
        ]
    return samples


def write_inputs(wl: Workload, seed: int, root: Path) -> tuple[Path, Path]:
    """Write the training and prediction corpora; returns their manifest paths."""
    train_manifest = save_dataset(root / "train_corpus", synth_corpus(wl.train_lengths, seed))
    # a distinct seed stream, so prediction never sees a training video
    return train_manifest, save_dataset(root / "predict_corpus", synth_corpus(wl.predict_lengths, seed + 1_000_003))
