"""End-to-end command-line workflow on a tiny synthetic corpus."""

import argparse
import json
import struct

import pytest

from momentkit.cli import build_parser, main, parse_config_file, section
from momentkit.data import DataError, load_dataset
from momentkit.decode import read_predictions
from momentkit.model import (
    CheckpointError,
    ConfigError,
    ModelConfig,
    MomentModel,
    load_checkpoint,
    save_checkpoint,
)

TINY_CONFIG = """\
# tiny end-to-end setup
synth.n_videos = 3
synth.n_clips = 8
synth.visual_dim = 6
synth.audio_dim = 5
synth.text_dim = 4
synth.n_text_tokens = 3
synth.max_moments = 1
synth.min_width_clips = 3.0
synth.max_width_clips = 4.0

model.model_dim = 8
model.heads = 2
model.n_bottleneck = 2
model.max_len = 16

train.epochs = 2
train.batch_size = 2
"""


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_full_workflow(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CONFIG)

    code, out, _ = run(capsys, ["synth", "--config", str(cfg), "--out", str(tmp_path / "ds")])
    assert code == 0
    manifest = json.loads(out)["manifest"]

    code, out, _ = run(capsys, ["train", manifest, "--config", str(cfg), "--out", str(tmp_path / "ck")])
    assert code == 0
    summary = json.loads(out)
    assert summary["epochs"] == 2
    final = [p for p in summary["checkpoints"] if p.endswith("final.ckpt")][0]

    code, out, _ = run(capsys, ["eval", manifest, "--checkpoint", final, "--tasks", "both",
                                "--out", str(tmp_path / "report.json")])
    assert code == 0
    report = json.loads(out)
    assert "map_avg" in report and "hit_at_1" in report
    assert json.loads((tmp_path / "report.json").read_text()) == report

    code, out, _ = run(capsys, ["predict", manifest, "--checkpoint", final,
                                "--out", str(tmp_path / "preds.jsonl")])
    assert code == 0
    assert json.loads(out)["written"] == 3
    records = read_predictions(tmp_path / "preds.jsonl")
    assert len(records) == 3 and len(records[0].saliency) == 8


def test_seed_override_changes_the_dataset(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CONFIG)
    run(capsys, ["synth", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "a")])
    run(capsys, ["synth", "--config", str(cfg), "--seed", "2", "--out", str(tmp_path / "b")])
    run(capsys, ["synth", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "c")])
    a = (tmp_path / "a" / "features" / "synth0000.visual.bin").read_bytes()
    b = (tmp_path / "b" / "features" / "synth0000.visual.bin").read_bytes()
    c = (tmp_path / "c" / "features" / "synth0000.visual.bin").read_bytes()
    assert a != b
    assert a == c


def test_gradcheck_command_passes(tmp_path, capsys):
    code, out, _ = run(capsys, ["gradcheck", "--coords", "2", "--out", str(tmp_path / "fd.json")])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["max_rel_err"] < 1e-4
    assert json.loads((tmp_path / "fd.json").read_text())["checked"] == payload["checked"]


def test_bench_attn_command(capsys):
    code, out, err = run(capsys, ["bench-attn", "--lengths", "64,128"])
    assert code == 0
    payload = json.loads(out)
    (bottleneck_growth,) = payload["bottleneck_growth"]
    (full_growth,) = payload["full_growth"]
    assert 1.8 <= bottleneck_growth <= 2.2
    assert 3.6 <= full_growth <= 4.4
    assert "bottleneck" in err  # human-readable table goes to stderr


# every option string each command declares; a flag the command never reads does not belong here
OPTIONS = {
    "synth": ["--config", "--seed", "--out"],
    "train": ["--config", "--seed", "--out"],
    "eval": ["--checkpoint", "--tasks", "--config", "--out"],
    "predict": ["--checkpoint", "--config", "--out"],
    "gradcheck": ["--coords", "--tolerance", "--config", "--seed", "--out"],
    "bench-attn": ["--lengths", "--out"],
}


def test_each_command_declares_the_options_it_reads():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {
        name: sorted(s for action in parser._actions for s in action.option_strings if s not in ("-h", "--help"))
        for name, parser in commands.choices.items()
    }
    assert declared == {name: sorted(opts) for name, opts in OPTIONS.items()}


USAGE_ERRORS = {
    "missing data argument": ["train"],
    "unknown flag": ["synth", "--out", "ds", "--turbo"],
    "eval --seed": ["eval", "m.json", "--checkpoint", "c.ckpt", "--seed", "1"],
    "predict --seed": ["predict", "m.json", "--checkpoint", "c.ckpt", "--out", "p.jsonl", "--seed", "1"],
    "bench-attn --config": ["bench-attn", "--config", "run.cfg"],
    "non-integer seed": ["synth", "--out", "ds", "--seed", "one"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_are_one_json_line_on_stderr(case, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(USAGE_ERRORS[case])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"] == "UsageError"


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["train", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: momentkit train")


def test_errors_are_one_json_line_on_stderr(tmp_path, capsys):
    code, out, err = run(capsys, ["train", str(tmp_path / "missing.json")])
    assert code == 1 and out == ""
    doc = json.loads(err.strip())
    assert doc["error"] == "DataError" and "missing" in doc["message"]


def test_unknown_config_keys_are_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CONFIG + "train.turbo = true\n")
    manifest = tmp_path / "never-read.json"
    code, _, err = run(capsys, ["train", str(manifest), "--config", str(cfg)])
    assert code == 1
    assert "turbo" in json.loads(err.strip())["message"]


def test_config_file_parsing(tmp_path):
    path = tmp_path / "mix.cfg"
    path.write_text(
        "a.number = 3\n"
        "a.flag = true   # trailing comment\n"
        "b.name = both\n"
        "\n"
        "# full-line comment\n"
        'b.list = [1, 2]\n'
    )
    doc = parse_config_file(path)
    assert doc == {"a.number": 3, "a.flag": True, "b.name": "both", "b.list": [1, 2]}
    assert section(doc, "a") == {"number": 3, "flag": True}
    (tmp_path / "broken.cfg").write_text("just words\n")
    with pytest.raises(DataError, match="key = value"):
        parse_config_file(tmp_path / "broken.cfg")


def _drop(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _set(*path, value):
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc
    return edit


def _rewrite_manifest(path, edit):
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))


def _rewrite_checkpoint_header(path, edit):
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 8)
    blob = json.dumps(edit(json.loads(raw[16:16 + length]))).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + length:])


MALFORMED = {
    "checkpoint header without config": (_rewrite_checkpoint_header, _drop("config"), CheckpointError),
    "checkpoint header without params": (_rewrite_checkpoint_header, _drop("params"), CheckpointError),
    "checkpoint header not an object": (_rewrite_checkpoint_header, lambda doc: [doc], CheckpointError),
    "checkpoint config max_len 2**45": (
        _rewrite_checkpoint_header, _set("config", "max_len", value=2**45), CheckpointError),
    "checkpoint config dropout 1.5": (_rewrite_checkpoint_header, _set("config", "dropout", value=1.5), ConfigError),
    "checkpoint config heads 0": (_rewrite_checkpoint_header, _set("config", "heads", value=0), ConfigError),
    "checkpoint config heads true": (_rewrite_checkpoint_header, _set("config", "heads", value=True), CheckpointError),
    "checkpoint config n_bottleneck 2.5": (
        _rewrite_checkpoint_header, _set("config", "n_bottleneck", value=2.5), CheckpointError),
    "checkpoint config scaled_attention false": (
        _rewrite_checkpoint_header, _set("config", "scaled_attention", value=False), ConfigError),
    "checkpoint config positive_window false": (
        _rewrite_checkpoint_header, _set("config", "positive_window", value=False), ConfigError),
    "checkpoint config fusion concat": (
        _rewrite_checkpoint_header, _set("config", "fusion", value="concat"), ConfigError),
    "checkpoint config share_cross_weights true": (
        _rewrite_checkpoint_header, _set("config", "share_cross_weights", value=True), ConfigError),
    "manifest without samples": (_rewrite_manifest, _drop("samples"), DataError),
    "manifest not an object": (_rewrite_manifest, lambda doc: [doc], DataError),
    "negative clip_seconds": (_rewrite_manifest, _set("samples", 0, "clip_seconds", value=-1), DataError),
    "null clip_seconds": (_rewrite_manifest, _set("samples", 0, "clip_seconds", value=None), DataError),
    "saliency above one": (_rewrite_manifest, _set("samples", 0, "saliency", 0, value=7.0), DataError),
    "NaN moment window": (_rewrite_manifest, _set("samples", 0, "moments", 0, "window", value=float("nan")), DataError),
    "NaN moment center": (_rewrite_manifest, _set("samples", 0, "moments", 0, "center", value=float("nan")), DataError),
    "non-numeric moment center": (_rewrite_manifest, _set("samples", 0, "moments", 0, "center", value="abc"), DataError),
    "non-numeric clip_seconds": (_rewrite_manifest, _set("samples", 0, "clip_seconds", value="abc"), DataError),
    "non-numeric saliency": (_rewrite_manifest, _set("samples", 0, "saliency", 0, value="x"), DataError),
    "non-numeric positive_threshold": (_rewrite_manifest, _set("positive_threshold", value="abc"), DataError),
    "boolean coordinate_base": (_rewrite_manifest, _set("coordinate_base", value=True), DataError),
    "null moments": (_rewrite_manifest, _set("samples", 0, "moments", value=None), DataError),
    "numeric moments": (_rewrite_manifest, _set("samples", 0, "moments", value=5), DataError),
    "numeric visual_path": (_rewrite_manifest, _set("samples", 0, "visual_path", value=5), DataError),
    "boolean manifest version": (_rewrite_manifest, _set("version", value=True), DataError),
    "list sample id": (_rewrite_manifest, _set("samples", 0, "id", value=["a"]), DataError),
    "null sample id": (_rewrite_manifest, _set("samples", 0, "id", value=None), DataError),
    "boolean positive_threshold": (_rewrite_manifest, _set("positive_threshold", value=True), DataError),
    "boolean clip_seconds": (_rewrite_manifest, _set("samples", 0, "clip_seconds", value=True), DataError),
    "boolean moment center": (_rewrite_manifest, _set("samples", 0, "moments", 0, "center", value=True), DataError),
    "NaN positive_threshold": (_rewrite_manifest, _set("positive_threshold", value=float("nan")), DataError),
    "numeric-string clip_seconds": (_rewrite_manifest, _set("samples", 0, "clip_seconds", value="1.0"), DataError),
    "numeric-string moment window": (
        _rewrite_manifest, _set("samples", 0, "moments", 0, "window", value="3.5"), DataError),
    "boolean saliency": (_rewrite_manifest, _set("samples", 0, "saliency", 1, value=True), DataError),
    "numeric-string saliency": (_rewrite_manifest, _set("samples", 0, "saliency", 0, value="0.5"), DataError),
    "oversized-integer clip_seconds": (_rewrite_manifest, _set("samples", 0, "clip_seconds", value=10**400), DataError),
    "oversized-integer saliency": (_rewrite_manifest, _set("samples", 0, "saliency", 0, value=10**400), DataError),
}


# config-file lines of the wrong type or range: each must end in one typed JSON error line
BAD_CONFIG_LINES = {
    "model.use_audio = no": ("train", DataError),
    "model.heads = 0": ("train", ConfigError),
    "model.model_dim = 0": ("train", ConfigError),
    "model.heads = -2": ("train", ConfigError),
    "model.heads = true": ("train", DataError),
    "model.n_bottleneck = 2.5": ("train", DataError),
    'model.dropout = "abc"': ("train", DataError),
    'train.epochs = "abc"': ("train", DataError),
    "train.batch_size = 2.5": ("train", DataError),
    'train.learning_rate = "x"': ("train", DataError),
    "synth.n_videos = 1.5": ("synth", DataError),
    "train.batch_size = 0": ("train", ConfigError),
    "eval.top_k = true": ("predict", DataError),
    "eval.top_k = 2.5": ("eval", DataError),
    "eval.top_k = 0": ("predict", DataError),
    "trian.epochs = 3": ("train", DataError),
    "modle.heads = 4": ("predict", DataError),
    "eval.topk = 1": ("predict", DataError),
    "eval.tasks = 5": ("eval", DataError),
    "model.fusion = sum": ("train", DataError),
    "loss.alpha = 2.0": ("train", DataError),
    "model.hedas = 4": ("predict", DataError),
    "synth.n_vidoes = 3": ("train", DataError),
}


def _tiny_checkpoint(path):
    """A checkpoint whose model fits the corpus ``TINY_CONFIG`` synthesizes."""
    cfg = ModelConfig(model_dim=8, heads=2, n_bottleneck=2, max_len=16, visual_dim=6, audio_dim=5, text_dim=4)
    save_checkpoint(MomentModel(cfg), path)


@pytest.mark.parametrize("line", sorted(BAD_CONFIG_LINES))
def test_bad_config_values_raise_typed_errors_and_exit_cleanly(line, tmp_path, capsys):
    command, error = BAD_CONFIG_LINES[line]
    good = tmp_path / "good.cfg"
    good.write_text(TINY_CONFIG)
    code, out, _ = run(capsys, ["synth", "--config", str(good), "--out", str(tmp_path / "ds")])
    assert code == 0
    manifest = json.loads(out)["manifest"]
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CONFIG + line + "\n")
    ckpt = tmp_path / "model.ckpt"
    _tiny_checkpoint(ckpt)
    argv = {
        "synth": ["synth", "--out", str(tmp_path / "ds2")],
        "train": ["train", manifest],
        "eval": ["eval", manifest, "--checkpoint", str(ckpt)],
        "predict": ["predict", manifest, "--checkpoint", str(ckpt), "--out", str(tmp_path / "p.jsonl")],
    }[command]

    code, out, err = run(capsys, argv + ["--config", str(bad)])
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    doc = json.loads(err)
    assert doc["error"] == error.__name__
    assert line.split(" = ")[0].split(".")[1] in doc["message"]


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_inputs_raise_typed_errors_and_exit_cleanly(case, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CONFIG)
    code, out, _ = run(capsys, ["synth", "--config", str(cfg), "--out", str(tmp_path / "ds")])
    assert code == 0
    manifest = json.loads(out)["manifest"]
    ckpt = tmp_path / "model.ckpt"
    _tiny_checkpoint(ckpt)
    rewrite, edit, error = MALFORMED[case]
    rewrite(ckpt if rewrite is _rewrite_checkpoint_header else tmp_path / "ds" / "manifest.json", edit)

    with pytest.raises(error):
        load_dataset(manifest)
        load_checkpoint(ckpt)
    code, out, err = run(capsys, ["eval", manifest, "--checkpoint", str(ckpt)])
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert json.loads(err)["error"] == error.__name__
