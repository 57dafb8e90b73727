"""Command-line entry points: data synthesis, training, evaluation, audits.

Every command reads an optional keyed text configuration (`--config`): flat
``key = value`` lines, ``#`` comments, values parsed as JSON when they look
like it. A key's dotted prefix names its dataclass in ``SECTIONS``, and the
rest must name one of its fields, whichever command reads the file::

    synth.n_videos = 16
    model.model_dim = 64
    train.epochs = 100
    loss.saliency = 3.0
    eval.tasks = both

Each value is type-checked against its field (a float by ``data.is_number``),
then its section's dataclass checks the ranges; ``--seed`` overrides
``synth.seed`` and ``train.seed``.

Commands print a JSON summary to stdout and exit 0; failures print one
machine-parsable JSON error line to stderr and exit nonzero (2 for a usage
error, 1 otherwise).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bench import scaling_report
from .data import (
    MODALITIES,
    DataError,
    FeatureSequence,
    MomentAnnotation,
    SynthConfig,
    VideoSample,
    load_dataset,
    save_dataset,
    synthesize_dataset,
)
from .fdcheck import check_gradients
from .losses import LossWeights, build_targets
from .metrics import TASKS
from .model import (
    ModelConfig,
    MomentModel,
    check_field_types,
    load_checkpoint,
)
from .train import TrainConfig, evaluate, predict, stack_losses, train


@dataclasses.dataclass
class EvalConfig:
    """Settings that ``eval`` and ``predict`` read."""

    tasks: str = "both"
    top_k: int = 10

    def validate(self) -> None:
        if self.tasks not in TASKS:
            raise DataError(f"eval.tasks must be one of {TASKS}, got {json.dumps(self.tasks)}")
        if self.top_k < 1:
            raise DataError(f"eval.top_k must be a positive int, got {self.top_k}")


SECTIONS = {"synth": SynthConfig, "model": ModelConfig, "train": TrainConfig, "loss": LossWeights, "eval": EvalConfig}

GRADCHECK_DEFAULTS = dict(
    model_dim=8, heads=2, uni_layers=1, cross_layers=1, decoder_layers=1,
    n_bottleneck=2, visual_dim=6, audio_dim=5, text_dim=4, max_len=16,
)


# ---------------------------------------------------------------------------
# keyed text configuration
# ---------------------------------------------------------------------------

def parse_config_file(path: str | Path) -> dict[str, object]:
    doc: dict[str, object] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise DataError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        try:
            doc[key] = json.loads(value)
        except ValueError:  # not JSON, or an integer literal past Python's 4300-digit limit: kept as text
            doc[key] = value
    return doc


def section(doc: dict[str, object], prefix: str) -> dict[str, object]:
    return {k[len(prefix) + 1:]: v for k, v in doc.items() if k.startswith(prefix + ".")}


def _build(doc: dict[str, object], prefix: str, **defaults):
    """Section ``prefix`` of ``doc`` as its dataclass over ``defaults``: every value type-checked, then validated."""
    cfg = SECTIONS[prefix](**{**defaults, **section(doc, prefix)})
    check_field_types(cfg, prefix, DataError)
    cfg.validate()
    return cfg


def _load_config(args) -> dict[str, object]:
    """The ``--config`` settings; a key that names no field of its section is an error."""
    doc = parse_config_file(args.config) if args.config else {}
    for key in doc:
        prefix, _, name = key.partition(".")
        if prefix not in SECTIONS or name not in {f.name for f in dataclasses.fields(SECTIONS[prefix])}:
            raise DataError(f"unknown config key {key!r}")
    if getattr(args, "seed", None) is not None:  # --seed overrides the configured seed
        doc["synth.seed"] = doc["train.seed"] = args.seed
    return doc


def _model_config(doc: dict[str, object], samples) -> ModelConfig:
    """model.* settings; modality switches and feature dims default from the data."""
    fields = {}
    if samples:
        for mod in MODALITIES:
            seq = getattr(samples[0], mod)
            fields[f"use_{mod}"] = seq is not None
            if seq is not None:
                fields[f"{mod}_dim"] = seq.dim
    return _build(doc, "model", **fields)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    samples = synthesize_dataset(_build(_load_config(args), "synth"))
    manifest = save_dataset(args.out, samples)
    print(json.dumps({"videos": len(samples), "manifest": str(manifest)}))
    return 0


def cmd_train(args) -> int:
    doc = _load_config(args)
    train_cfg = _build(doc, "train", weights=_build(doc, "loss"))
    samples = load_dataset(args.data)
    model_cfg = _model_config(doc, samples)
    model = MomentModel(model_cfg, seed=train_cfg.seed)
    result = train(model, samples, train_cfg, out_dir=args.out)
    print(json.dumps({
        "epochs": len(result.loss_history),
        "first_loss": result.loss_history[0] if result.loss_history else None,
        "final_loss": result.loss_history[-1] if result.loss_history else None,
        "checkpoints": [str(p) for p in result.checkpoints],
    }))
    return 0


def cmd_eval(args) -> int:
    cfg = _build(_load_config(args), "eval")
    samples = load_dataset(args.data)
    model, _ = load_checkpoint(args.checkpoint)
    report = evaluate(model, samples, tasks=args.tasks or cfg.tasks, top_k=cfg.top_k)
    payload = report.as_dict()
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_predict(args) -> int:
    cfg = _build(_load_config(args), "eval")
    samples = load_dataset(args.data)
    model, _ = load_checkpoint(args.checkpoint)
    records = predict(model, samples, args.out, top_k=cfg.top_k)
    print(json.dumps({"written": len(records), "path": str(args.out)}))
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _build(_load_config(args), "model", **GRADCHECK_DEFAULTS)
    seed = args.seed if args.seed is not None else 0
    model = MomentModel(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    n_clips = max(4, cfg.n_bottleneck)
    feats = {
        mod: FeatureSequence(rng.normal(size=(rows, getattr(cfg, f"{mod}_dim"))), mod)
        for mod, rows in (("visual", n_clips), ("audio", n_clips), ("text", 3))
        if getattr(cfg, f"use_{mod}")
    }
    sample = VideoSample(
        "gradcheck", 1.0, **feats, moments=[MomentAnnotation(center=n_clips / 2.0, window=2.0)],
        saliency=rng.uniform(0.1, 0.9, size=n_clips),
    )
    targets = build_targets(sample.moments, sample.saliency, n_clips)

    def loss_fn():
        return stack_losses(model, [sample], [targets], LossWeights(), None)[0][0]

    report = check_gradients(
        loss_fn, model.named_parameters(),
        max_coords_per_param=args.coords, rng=np.random.default_rng(seed),
    )
    ok = report.ok(args.tolerance)
    payload = {
        "checked": report.checked,
        "max_rel_err": report.max_rel_err,
        "worst_param": report.worst_param,
        "tolerance": args.tolerance,
        "ok": ok,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload))
    return 0 if ok else 2


def cmd_bench_attn(args) -> int:
    if len(args.lengths) < 2:
        raise DataError("bench-attn needs at least two sequence lengths")
    report = scaling_report(lengths=args.lengths)
    payload = report.as_dict()
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(report.format_table(), file=sys.stderr)
    print(json.dumps(payload))
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _positive(kind):
    """An argparse ``type`` accepting a finite ``kind`` value above zero; anything else is a usage error."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"expected a positive, finite {kind.__name__}, got {text!r}")
        return value

    return parse


def _lengths(text: str) -> tuple[int, ...]:
    return tuple(map(_positive(int), text.split(",")))


def _seed(text: str) -> int:
    """An argparse ``type`` for ``--seed``: a non-negative int, since numpy takes no negative seed."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative int, got {text!r}")
    return int(text)


class UsageParser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one JSON line on stderr and exit status 2."""

    def error(self, message: str):
        print(json.dumps({"error": "UsageError", "message": f"{self.prog}: {message}"}), file=sys.stderr)
        sys.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = UsageParser(
        prog="momentkit",
        description="Joint moment retrieval and highlight detection over clip features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_help, out_required=False, seed=True):
        p.add_argument("--config", help="keyed text configuration file")
        if seed:
            p.add_argument("--seed", type=_seed, default=None, help="override the configured seed")
        p.add_argument("--out", required=out_required, help=out_help)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p, "dataset output directory", out_required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset manifest")
    p.add_argument("data", help="path to manifest.json")
    common(p, "checkpoint output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p.add_argument("data", help="path to manifest.json")
    p.add_argument("--checkpoint", required=True, help="checkpoint file to load")
    p.add_argument("--tasks", choices=TASKS, default=None)
    common(p, "optional path for the JSON report", seed=False)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="write JSON-lines predictions for a dataset")
    p.add_argument("data", help="path to manifest.json")
    p.add_argument("--checkpoint", required=True, help="checkpoint file to load")
    common(p, "output .jsonl path", out_required=True, seed=False)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference audit of the full model")
    p.add_argument("--coords", type=_positive(int), default=3, help="sampled coordinates per parameter")
    p.add_argument("--tolerance", type=_positive(float), default=1e-4)
    common(p, "optional path for the JSON report")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench-attn", help="operation-count scaling report")
    p.add_argument("--lengths", type=_lengths, default="64,128", help="comma-separated clip counts")
    p.add_argument("--out", help="optional path for the JSON report")
    p.set_defaults(func=cmd_bench_attn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:  # the package's typed errors are all ValueErrors
        # numpy refuses an oversized array with a private MemoryError subclass; report the public name
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
