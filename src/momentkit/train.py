"""Seed-deterministic training loop, evaluation driver, and batch prediction.

The loop runs one step at a time and is fully determined by (seed, config,
dataset): per-epoch shuffles come from one generator, dropout masks from
another, and checkpoints are written atomically, so identical runs produce
byte-identical checkpoint files and loss histories. Large ops run in two
halves on two threads where the process has two CPUs, split by shape alone
(see ``autograd``), so the bytes do not depend on the CPU count either.

A step optimizes the mean loss of a batch. The batch's largest group of
samples that share every input shape (clips and text tokens) runs first, as
one stacked forward over (B, N, dim) sequences and one backward; its heads
split into the per-sample losses. The other samples then run one by one, each
as a stack of one. Each such backward unit is differentiated as soon as its
losses exist, its share of the mean scaled by 1/B, before the next unit's
forward starts: a step holds one unit's tape, and gradients add up in the
parameters. The stack runs while no gradient is held yet, so its larger tape
does not meet the gradient set.

A batch with no two samples of one shape runs as stacks of one, by the float
ops of one backward through the summed batch graph, so its gradients are
bitwise that backward's. A stack sums its samples' weight gradients in one
product over all of their rows, so its gradients equal the per-sample fold to
rounding (within 1e-12 relative), and it draws one dropout mask per site for
the whole stack.

Task selection ("mr", "hd", "both") works by zeroing the loss weights of the
inactive task, which leaves targets and the model untouched — the single-task
configurations differ from joint training only in which heads receive
gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import NumericError, RngState, Tensor
from .data import DataError, VideoSample
from .decode import PredictionRecord, decode_predictions, write_predictions
from .losses import (
    LossWeights,
    build_targets,
    focal_center_loss,
    regression_losses,
    saliency_loss,
    total_loss,
)
from .metrics import TASKS, EvalReport, build_report
from .model import ConfigError, MomentModel, RawPredictions, input_shapes, save_checkpoint


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    batch_size: int = 8
    epochs: int = 50
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    checkpoint_every: int = 0        # periodic snapshot interval in epochs; 0 = final only
    clip_norm: float | None = None   # optional global-norm safety rail (e.g. 10.0)
    tasks: str = "both"

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be nonnegative, got {self.epochs}")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every must be nonnegative, got {self.checkpoint_every}")
        if self.tasks not in TASKS:
            raise ConfigError(f"tasks must be one of {TASKS}, got {self.tasks!r}")
        # written so that NaN fails each comparison
        for name in ("learning_rate", "weight_decay"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and nonnegative, got {getattr(self, name)}")
        self.weights.validate()
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ConfigError(f"clip_norm must be positive when set, got {self.clip_norm}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")

    def task_weights(self) -> LossWeights:
        """Loss weights with the inactive task's terms zeroed out."""
        if self.tasks == "mr":
            return replace(self.weights, saliency=0.0)
        if self.tasks == "hd":
            return replace(self.weights, center=0.0, window=0.0, offset=0.0)
        return self.weights


class AdamW:
    """Adaptive moment estimation with decoupled weight decay.

    The decay term is applied directly to the parameters, scaled by the
    learning rate but outside the adaptive rescaling, so regularization
    strength does not depend on gradient magnitudes.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    block = 16384  # elements updated at a time, so the step's temporaries stay in cache

    def __init__(self, params, lr: float = 1e-3, weight_decay: float = 1e-4):
        self.params: list[tuple[str, Tensor]] = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for _, p in self.params]
        self._v = [np.zeros_like(p.data) for _, p in self.params]
        self._scratch = (np.empty(self.block), np.empty(self.block))

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()

    def grad_norm(self) -> float:
        return math.sqrt(sum(float(np.sum(p.grad**2)) for _, p in self.params if p.grad is not None))

    def clip_gradients(self, max_norm: float) -> float:
        norm = self.grad_norm()
        if norm > max_norm:
            scale = max_norm / norm
            for _, p in self.params:
                if p.grad is not None:
                    p.grad = p.grad * scale
        return norm

    def step(self) -> None:
        """One update of every parameter, in place.

        Each block evaluates, in this operand order, ``m = b1 m + (1 - b1) g``,
        ``v = b2 v + ((1 - b2) g) g`` and
        ``p = p - lr ((m / bc1) / (sqrt(v / bc2) + eps) + wd p)``.
        """
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        a_buf, b_buf = self._scratch
        for (_, p), m, v in zip(self.params, self._m, self._v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            flat = (p.data.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1))
            for lo in range(0, p.data.size, self.block):
                pb, gb, mb, vb = (x[lo : lo + self.block] for x in flat)
                a, b = a_buf[: pb.size], b_buf[: pb.size]
                mb *= self.beta1
                np.multiply(1.0 - self.beta1, gb, out=a)
                mb += a
                vb *= self.beta2
                np.multiply(1.0 - self.beta2, gb, out=a)
                a *= gb
                vb += a
                np.divide(mb, bc1, out=a)
                np.divide(vb, bc2, out=b)
                np.sqrt(b, out=b)
                b += self.eps
                a /= b
                np.multiply(self.weight_decay, pb, out=b)
                a += b
                a *= self.lr
                pb -= a


@dataclass
class TrainResult:
    loss_history: list[float]                 # per-epoch mean of batch totals
    component_history: list[dict[str, float]]  # per-epoch unweighted component means
    checkpoints: list[Path]


def sample_loss(model: MomentModel, sample: VideoSample, targets, weights: LossWeights, rng: RngState | None):
    """Weighted training loss of one sample, plus its four unweighted components.

    ``rng`` is the dropout stream; ``None`` gives the loss without dropout.
    """
    return _weighted_loss(model.forward(sample, rng=rng), targets, weights)


def stack_losses(model: MomentModel, samples: list[VideoSample], targets: list, weights: LossWeights,
                 rng: RngState | None) -> list[tuple[Tensor, tuple[float, float, float, float]]]:
    """``sample_loss`` of each of ``samples``, which share every input shape, from one forward of their stack."""
    return [_weighted_loss(p, t, weights) for p, t in zip(model.forward(samples, rng=rng), targets)]


def _weighted_loss(preds: RawPredictions, targets, weights: LossWeights):
    """The weighted loss of one sample's predictions, plus its four unweighted components."""
    l_s = saliency_loss(preds.saliency, targets.saliency_targets)
    l_c = focal_center_loss(preds.heatmap, targets.heatmap, targets.n_moments)
    l_w, l_o = regression_losses(preds.window, preds.offset, targets)
    return total_loss(l_s, l_c, l_w, l_o, weights), (l_s.item(), l_c.item(), l_w.item(), l_o.item())


def backward_units(batch, shapes: list) -> list[list[int]]:
    """The batch's largest stack of samples sharing every input shape, then the rest one by one in batch order.

    Of stacks of equal size, the first in batch order runs. A batch with no
    two samples of one shape is its samples one by one.
    """
    groups: dict[tuple, list[int]] = {}
    for idx in batch:
        groups.setdefault(shapes[idx], []).append(int(idx))
    stack = max(groups.values(), key=len)
    return [stack] + [[int(idx)] for idx in batch if idx not in stack]


def train(model: MomentModel, samples: list[VideoSample], config: TrainConfig,
          out_dir: str | Path | None = None) -> TrainResult:
    """Optimize the model in place; returns loss history and checkpoint paths.

    Each backward unit (a stack of one sample or more) is differentiated as
    soon as its losses exist, so a step holds one unit's tape; the batch value
    is ``((s1 + s2) + ...) * (1 / B)`` in unit order.
    """
    config.validate()
    if not samples:
        raise DataError("training needs at least one sample")
    weights = config.task_weights()
    targets = [build_targets(s.moments, s.saliency, s.n_clips) for s in samples]
    shapes = [input_shapes(s) for s in samples]
    drop_rng = RngState(config.seed)
    order = np.random.default_rng(config.seed)
    opt = AdamW(model.named_parameters(), lr=config.learning_rate, weight_decay=config.weight_decay)
    out_path = Path(out_dir) if out_dir is not None else None
    history: list[float] = []
    component_history: list[dict[str, float]] = []
    written: list[Path] = []
    for epoch in range(config.epochs):
        perm = order.permutation(len(samples))
        batch_values: list[float] = []
        batch_comps: list[np.ndarray] = []
        for start in range(0, len(samples), config.batch_size):
            batch = perm[start : start + config.batch_size]
            opt.zero_grad()
            value: float | None = None
            comps = np.zeros(4)
            for unit in backward_units(batch, shapes):
                losses = stack_losses(model, [samples[i] for i in unit], [targets[i] for i in unit], weights,
                                      drop_rng)
                unit_total = losses[0][0]
                for sample_total, _ in losses[1:]:
                    unit_total = ag.add(unit_total, sample_total)
                # the mean is linear, so each unit's share is differentiated now and its tape freed
                ag.backward(ag.mul(unit_total, 1.0 / len(batch)))
                for sample_total, parts in losses:
                    value = sample_total.item() if value is None else value + sample_total.item()
                    comps += parts
            value *= 1.0 / len(batch)
            comps /= len(batch)
            batch_id = start // config.batch_size
            if not np.isfinite(value):
                raise NumericError(f"non-finite loss {value} at epoch {epoch} batch {batch_id}")
            recombined = (
                weights.saliency * comps[0] + weights.center * comps[1]
                + weights.window * comps[2] + weights.offset * comps[3]
            )
            if abs(value - recombined) > 1e-10:
                raise NumericError(
                    f"loss bookkeeping drift {abs(value - recombined):.3e} at epoch {epoch} batch {batch_id}"
                )
            if config.clip_norm is not None:
                opt.clip_gradients(config.clip_norm)
            opt.step()
            batch_values.append(value)
            batch_comps.append(comps)
        history.append(float(np.mean(batch_values)))
        epoch_comps = np.mean(batch_comps, axis=0)
        component_history.append(
            {k: float(v) for k, v in zip(("saliency", "center", "window", "offset"), epoch_comps)}
        )
        if (
            out_path is not None and config.checkpoint_every
            and (epoch + 1) % config.checkpoint_every == 0 and epoch + 1 < config.epochs
        ):
            snap = out_path / f"epoch{epoch + 1:04d}.ckpt"
            save_checkpoint(model, snap, extra={"epoch": epoch + 1})
            written.append(snap)
    if out_path is not None:
        final = out_path / "final.ckpt"
        save_checkpoint(model, final, extra={"epochs": config.epochs, "loss_history": history})
        written.append(final)
    return TrainResult(history, component_history, written)


def evaluate(model: MomentModel, samples: list[VideoSample], tasks: str = "both",
             top_k: int = 10) -> EvalReport:
    """Score ``predict``'s records on annotated samples for the selected task mix."""
    if tasks not in TASKS:
        raise ValueError(f"tasks must be one of {TASKS}, got {tasks!r}")
    if not samples:
        raise DataError("evaluation needs at least one sample")
    if tasks in ("mr", "both") and not any(s.moments for s in samples):
        raise DataError("moment retrieval evaluation needs at least one annotated moment")
    if tasks in ("hd", "both"):
        for s in samples:
            if s.saliency is None:
                raise DataError(f"{s.video_id}: highlight evaluation needs saliency annotations")
        if not any(s.positive_flags().any() for s in samples):
            raise DataError("highlight evaluation needs at least one positive clip")
    records = predict(model, samples, top_k=top_k)
    return build_report(
        [r.moments for r in records],
        [[m.span_seconds(s.clip_seconds) for m in s.moments] for s in samples],
        [np.array(r.saliency) for r in records],
        [s.positive_flags() for s in samples],
        tasks=tasks,
    )


def predict(model: MomentModel, samples: list[VideoSample], output_path: str | Path | None = None,
            top_k: int = 10) -> list[PredictionRecord]:
    """Run inference and optionally write the JSON-lines interchange format."""
    records: list[PredictionRecord] = []
    with ag.no_grad():
        for s in samples:
            preds = model.forward(s)
            moments = decode_predictions(
                preds.heatmap.data, preds.window.data, preds.offset.data, s.clip_seconds, top_k=top_k
            )
            records.append(
                PredictionRecord(s.video_id, moments, [float(v) for v in preds.saliency.data])
            )
    if output_path is not None:
        write_predictions(output_path, records)
    return records
