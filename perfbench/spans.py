"""Span recording around momentkit's public callables, and the per-layer sums.

A traced run replaces a fixed list of module functions and class methods with
wrappers that record one span per call: name, start, end, parent span, the
session phase it ran in, the MAC-counter delta over the call, and an optional
count (tape nodes, moments decoded, bytes read). Each callable is wrapped at
the name its caller looks up, so ``attention`` is wrapped both in
``momentkit.blocks`` (used by the self/compress/expand wirings) and in
``momentkit.model`` (used by the query generator and the decoder).

``traced`` installs the wrappers and always restores the originals on exit;
``installed_wrappers`` reports any that are still in place.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from momentkit import autograd, blocks, data, metrics, model, train

_MARK = "_perfbench_span"

# model stages: the span that opens each stage, and the stage it opens
STAGE_SPANS = {
    "model.encoders": "encoders",   # MomentModel.encode_features, minus the fusion layers inside it
    "model.fusion": "fusion",       # CrossModalLayer calls
    "model.query": "query",         # MomentModel.generate_queries
    "model.heads": "heads",         # MomentModel.decode, minus the decoder layers inside it
    "model.decoder": "decoder",     # DecoderLayer calls
}
STAGES = ("encoders", "fusion", "query", "decoder", "heads")


@dataclass
class Span:
    name: str
    phase: str
    parent: int
    start: int = 0
    end: int = 0
    macs: int = 0
    count: int = 0

    @property
    def duration(self) -> int:
        return self.end - self.start


class Recorder:
    """Spans of one traced session, kept in memory in call order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def _open(self, name: str) -> Span:
        sp = Span(name, self.phase, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        sp.macs = autograd.mac_count()
        sp.start = time.perf_counter_ns()
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter_ns()
        sp.macs = autograd.mac_count() - sp.macs
        self._stack.pop()


def count_tape_nodes(loss) -> int:
    """Nodes a backward pass from ``loss`` visits; reads the graph, changes nothing."""
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(p for p in node._parents if p.requires_grad)
    return len(seen)


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# (owner, attribute, span name, count taken from the call); counts are taken
# outside the span so they do not inflate its time
def _targets():
    return [
        (blocks, "attention", "blocks.attention", None),
        (model, "attention", "blocks.attention", None),
        (blocks.FeedForward, "__call__", "blocks.feedforward", None),
        (model.MomentModel, "forward", "model.forward", None),
        (model.MomentModel, "encode_features", "model.encoders", None),
        (model.CrossModalLayer, "__call__", "model.fusion", None),
        (model.MomentModel, "generate_queries", "model.query", None),
        (model.MomentModel, "decode", "model.heads", None),
        (model.DecoderLayer, "__call__", "model.decoder", None),
        (autograd, "backward", "autograd.backward", ("before", lambda args, out: count_tape_nodes(args[0]))),
        (train.AdamW, "step", "train.adamw_step", None),
        (train, "save_checkpoint", "train.save_checkpoint", None),
        (train, "build_targets", "losses.targets", None),
        (train, "saliency_loss", "losses.loss", None),
        (train, "focal_center_loss", "losses.loss", None),
        (train, "regression_losses", "losses.loss", None),
        (train, "total_loss", "losses.loss", None),
        (train, "decode_predictions", "decode.decode", ("after", lambda args, out: len(out))),
        (data, "load_dataset", "data.load_dataset",
         ("after", lambda args, out: _dir_bytes(Path(args[0]).parent))),
        (model, "load_checkpoint", "model.load_checkpoint",
         ("after", lambda args, out: Path(args[0]).stat().st_size)),
        (metrics, "build_report", "metrics.build_report", None),
    ]


def _wrap(fn, name: str, rec: Recorder, counter):
    when, count = counter if counter else (None, None)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = count(args, None) if when == "before" else 0
        sp = rec._open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec._close(sp)
        sp.count = count(args, out) if when == "after" else before
        return out

    setattr(wrapper, _MARK, name)
    return wrapper


def installed_wrappers() -> list[str]:
    """``owner.attribute`` of every target that still holds a span wrapper."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in _targets()
        if hasattr(vars(owner)[attr], _MARK)
    ]


@contextmanager
def traced(rec: Recorder):
    """Install every span wrapper for the body; the originals are back afterwards."""
    originals = []
    try:
        for owner, attr, name, counter in _targets():
            fn = vars(owner)[attr]
            originals.append((owner, attr, fn))
            setattr(owner, attr, _wrap(fn, name, rec, counter))
        yield rec
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# arithmetic over recorded spans
# ---------------------------------------------------------------------------


def covered(start: int, end: int, intervals) -> int:
    """Length of [start, end) covered by the union of ``intervals``."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[tuple[int, int]]:
    """(self ns, self MACs) of each span: its own minus what its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append(sp)
    return [
        (
            sp.duration - covered(sp.start, sp.end, [(c.start, c.end) for c in kids]),
            sp.macs - sum(c.macs for c in kids),
        )
        for sp, kids in zip(spans, children)
    ]


def stage_totals(spans: list[Span], phase: str) -> dict[str, dict[str, int]]:
    """Per model stage: inclusive ns and MACs, and the stage span's own self ns.

    Every span is charged to its nearest enclosing stage span, so the stages
    partition the forward pass: nested fusion layers are carved out of the
    encoders and decoder layers out of the heads. ``self_ns`` leaves out the
    attention and feed-forward blocks inside the stage.
    """
    own = self_times(spans)
    stage_of: list[str | None] = []
    out = {s: {"ns": 0, "self_ns": 0, "macs": 0} for s in STAGES}
    for i, sp in enumerate(spans):
        stage = STAGE_SPANS.get(sp.name) or (stage_of[sp.parent] if sp.parent >= 0 else None)
        stage_of.append(stage)
        if stage is None or sp.phase != phase:
            continue
        ns, macs = own[i]
        out[stage]["ns"] += ns
        out[stage]["macs"] += macs
        if sp.name in STAGE_SPANS:
            out[stage]["self_ns"] += ns
    return out


def step_intervals_ms(spans: list[Span], phase: str) -> list[float]:
    """Times between consecutive optimizer-step ends inside one ``train()`` call."""
    ends: dict[int, list[int]] = {}
    unit_of: list[int] = []
    for i, sp in enumerate(spans):
        unit_of.append(i if sp.name == "session.train_unit" else (unit_of[sp.parent] if sp.parent >= 0 else -1))
        if sp.name == "train.adamw_step" and sp.phase == phase and unit_of[i] >= 0:
            ends.setdefault(unit_of[i], []).append(sp.end)
    return [(b - a) / 1e6 for e in ends.values() for a, b in zip(e, e[1:])]


def layer_metrics(spans: list[Span], main_phase: str, other_phase: str) -> dict[str, float]:
    """Per-layer figures of one traced session.

    Each layer is read from the workload's main phase when it runs there, and
    from the other phase otherwise. Block and stage times are per sample
    forward; the rest are per call unless the name says otherwise.
    """

    def pick(name: str) -> list[Span]:
        for phase in (main_phase, other_phase):
            found = [s for s in spans if s.name == name and s.phase == phase]
            if found:
                return found
        raise ValueError(f"no {name!r} span was recorded")

    def phase_of(name: str) -> str:
        return pick(name)[0].phase

    def mean_ms(name: str) -> float:
        return statistics.fmean(s.duration for s in pick(name)) / 1e6

    def forwards(phase: str) -> int:
        return sum(1 for s in spans if s.name == "model.forward" and s.phase == phase)

    def per_forward_ms(name: str) -> float:
        found = pick(name)
        return sum(s.duration for s in found) / 1e6 / forwards(found[0].phase)

    out: dict[str, float] = {}
    train_phase = phase_of("autograd.backward")
    out["autograd.backward_ms"] = mean_ms("autograd.backward")
    out["autograd.tape_nodes_per_sample"] = sum(s.count for s in pick("autograd.backward")) / forwards(train_phase)
    attn = pick("blocks.attention")
    out["blocks.attention_ms"] = per_forward_ms("blocks.attention")
    out["blocks.attention_calls"] = len(attn) / forwards(attn[0].phase)
    out["blocks.feedforward_ms"] = per_forward_ms("blocks.feedforward")
    fwd_phase = phase_of("model.forward")
    n_fwd = forwards(fwd_phase)
    for stage, tot in stage_totals(spans, fwd_phase).items():
        out[f"model.{stage}_ms"] = tot["ns"] / 1e6 / n_fwd
        out[f"model.{stage}_self_ms"] = tot["self_ns"] / 1e6 / n_fwd
    out["train.step_ms_p50"] = statistics.median(step_intervals_ms(spans, train_phase))
    out["train.adamw_step_ms"] = mean_ms("train.adamw_step")
    out["train.save_checkpoint_ms"] = mean_ms("train.save_checkpoint")
    out["losses.targets_ms"] = mean_ms("losses.targets")
    out["losses.loss_ms"] = sum(s.duration for s in pick("losses.loss")) / 1e6 / forwards(train_phase)
    loads = pick("data.load_dataset")
    out["data.load_dataset_ms"] = mean_ms("data.load_dataset")
    out["data.bytes_read"] = statistics.fmean(s.count for s in loads)
    ckpts = pick("model.load_checkpoint")
    out["model.load_checkpoint_ms"] = mean_ms("model.load_checkpoint")
    out["model.checkpoint_bytes"] = statistics.fmean(s.count for s in ckpts)
    out["decode.decode_ms"] = mean_ms("decode.decode")
    out["decode.moments_per_video"] = statistics.fmean(s.count for s in pick("decode.decode"))
    out["metrics.build_report_ms"] = mean_ms("metrics.build_report")
    return out


def check_forward_macs(spans: list[Span], phase: str) -> dict[str, int]:
    """Stage MACs of the single forward pass recorded in ``phase``, and its total."""
    (fwd,) = [s for s in spans if s.name == "model.forward" and s.phase == phase]
    out = {f"model.{stage}_macs": tot["macs"] for stage, tot in stage_totals(spans, phase).items()}
    out["model.macs_per_sample"] = fwd.macs
    return out
