"""Command-line entry points: data synthesis, training, evaluation, audits.

Every command reads an optional keyed text configuration (`--config`): flat
``key = value`` lines, ``#`` comments, values parsed as JSON when they look
like it. Dotted prefixes group settings by consumer::

    synth.n_videos = 16
    model.model_dim = 64
    train.epochs = 100
    loss.saliency = 3.0
    eval.tasks = both

Commands print a JSON summary to stdout and exit 0; failures print one
machine-parsable JSON error line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
import types
import typing
from pathlib import Path

import numpy as np

from .autograd import NumericError
from .bench import scaling_report
from .data import (
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
from .model import (
    CheckpointError,
    ConfigError,
    ModelConfig,
    MomentModel,
    load_checkpoint,
)
from .train import TrainConfig, evaluate, predict, sample_loss, train

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
        except json.JSONDecodeError:
            doc[key] = value
    return doc


def section(doc: dict[str, object], prefix: str) -> dict[str, object]:
    return {k[len(prefix) + 1:]: v for k, v in doc.items() if k.startswith(prefix + ".")}


def _fits(value: object, hint) -> bool:
    """Whether ``value`` has the declared field type; booleans are not numbers here."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _build(dc_cls, fields: dict[str, object], label: str):
    hints = typing.get_type_hints(dc_cls)
    unknown = sorted(set(fields) - set(hints))
    if unknown:
        raise DataError(f"unknown {label} settings: {', '.join(unknown)}")
    for name, value in fields.items():
        hint = hints[name]
        if not _fits(value, hint):
            raise DataError(f"{label}.{name} must be {getattr(hint, '__name__', hint)}, got {json.dumps(value)}")
    return dc_cls(**fields)


def _load_config(args) -> dict[str, object]:
    return parse_config_file(args.config) if args.config else {}


def _model_config(doc: dict[str, object], samples) -> ModelConfig:
    """model.* settings; modality switches and feature dims default from the data."""
    fields = section(doc, "model")
    if samples:
        first = samples[0]
        for mod in ("visual", "audio", "text"):
            seq = getattr(first, mod)
            fields.setdefault(f"use_{mod}", seq is not None)
            if seq is not None:
                fields.setdefault(f"{mod}_dim", seq.dim)
    return _build(ModelConfig, fields, "model")


def _train_config(doc: dict[str, object], seed: int | None) -> TrainConfig:
    fields = section(doc, "train")
    loss_fields = section(doc, "loss")
    if loss_fields:
        fields["weights"] = _build(LossWeights, loss_fields, "loss")
    if seed is not None:
        fields["seed"] = seed
    cfg = _build(TrainConfig, fields, "train")
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    doc = _load_config(args)
    fields = section(doc, "synth")
    if args.seed is not None:
        fields["seed"] = args.seed
    cfg = _build(SynthConfig, fields, "synth")
    samples = synthesize_dataset(cfg)
    manifest = save_dataset(args.out, samples)
    print(json.dumps({"videos": len(samples), "manifest": str(manifest)}))
    return 0


def cmd_train(args) -> int:
    doc = _load_config(args)
    train_cfg = _train_config(doc, args.seed)
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
    doc = _load_config(args)
    samples = load_dataset(args.data)
    model, _ = load_checkpoint(args.checkpoint)
    tasks = args.tasks or str(doc.get("eval.tasks", "both"))
    report = evaluate(model, samples, tasks=tasks, top_k=int(doc.get("eval.top_k", 10)))
    payload = report.as_dict()
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_predict(args) -> int:
    doc = _load_config(args)
    samples = load_dataset(args.data)
    model, _ = load_checkpoint(args.checkpoint)
    records = predict(model, samples, args.out, top_k=int(doc.get("eval.top_k", 10)))
    print(json.dumps({"written": len(records), "path": str(args.out)}))
    return 0


def cmd_gradcheck(args) -> int:
    doc = _load_config(args)
    fields = {**GRADCHECK_DEFAULTS, **section(doc, "model")}
    cfg = _build(ModelConfig, fields, "model")
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
        return sample_loss(model, sample, targets, LossWeights(), rng=None)[0]

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
    lengths = tuple(int(v) for v in args.lengths.split(","))
    if len(lengths) < 2:
        raise DataError("bench-attn needs at least two sequence lengths")
    report = scaling_report(lengths=lengths)
    payload = report.as_dict()
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(report.format_table(), file=sys.stderr)
    print(json.dumps(payload))
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentkit",
        description="Joint moment retrieval and highlight detection over clip features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_help, out_required=False):
        p.add_argument("--config", help="keyed text configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
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
    p.add_argument("--tasks", choices=("mr", "hd", "both"), default=None)
    common(p, "optional path for the JSON report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="write JSON-lines predictions for a dataset")
    p.add_argument("data", help="path to manifest.json")
    p.add_argument("--checkpoint", required=True, help="checkpoint file to load")
    common(p, "output .jsonl path", out_required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference audit of the full model")
    p.add_argument("--coords", type=int, default=3, help="sampled coordinates per parameter")
    p.add_argument("--tolerance", type=float, default=1e-4)
    common(p, "optional path for the JSON report")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench-attn", help="operation-count scaling report")
    p.add_argument("--lengths", default="64,128", help="comma-separated clip counts")
    common(p, "optional path for the JSON report")
    p.set_defaults(func=cmd_bench_attn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataError, ConfigError, CheckpointError, NumericError, ValueError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
