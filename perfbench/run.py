"""Run one momentkit benchmark workload and print its metrics as JSON.

From the repository root:

    python3 perfbench/run.py --workload train_long --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the session twice, first untraced and then with span
wrappers installed, each with half the time, and prints the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, the workload, its seed and the sample counts.

BLAS is pinned to one thread before numpy is imported: every workload is a
single client on a single thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
BLAS_THREADS = "1"
CURVE_LENGTHS = (128, 256, 512)
WORK_DIR = ".perfbench_work"   # corpora and checkpoints of a run, removed when it ends


def declared(spec: dict, section: str, values: dict[str, float]) -> dict[str, dict]:
    """The metrics ``BENCHMARK.json`` declares in ``section``, with their units."""
    names = [m["name"] for m in spec[section]]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"{section}: measured {sorted(values)}, declared {sorted(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def mac_curve(seed: int) -> dict[str, float]:
    """Whole-model forward MACs of the default d256 model at growing clip counts,
    beside the isolated compress+expand round of ``momentkit.bench``."""
    from momentkit import autograd, bench, model

    from workloads import synth_corpus

    net = model.MomentModel(model.ModelConfig(), seed=seed)
    macs = {}
    for n in CURVE_LENGTHS:
        (video,) = synth_corpus((n,), seed)
        with autograd.no_grad():
            before = autograd.mac_count()
            net.forward(video)
            macs[n] = autograd.mac_count() - before
    iso = bench.scaling_report(CURVE_LENGTHS)
    out: dict[str, float] = {f"model.macs_at_{n}": macs[n] for n in CURVE_LENGTHS}
    pairs = zip(CURVE_LENGTHS, CURVE_LENGTHS[1:])
    for (a, b), bottleneck, full in zip(pairs, iso.growth("bottleneck_macs"), iso.growth("full_macs")):
        out[f"model.macs_growth_{a}_{b}"] = macs[b] / macs[a]
        out[f"bench.bottleneck_growth_{a}_{b}"] = bottleneck
        out[f"bench.full_growth_{a}_{b}"] = full
    return out


def request_heap_mb(predict_manifest: Path, checkpoint: Path) -> float:
    """Peak heap of one request on the longest held-out video, read with tracemalloc.

    Serving never sets the process's peak RSS (training and ``load_checkpoint``
    do), so this is the figure a change to serving memory moves. It runs
    untimed, with no span wrapper installed.
    """
    import tracemalloc

    from momentkit import data, model, train

    videos = data.load_dataset(predict_manifest)
    net = model.load_checkpoint(checkpoint)[0]
    video = max(videos, key=lambda v: v.n_clips)
    tracemalloc.start()
    try:
        train.predict(net, [video])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def run(spec: dict, workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    import session
    import spans
    from workloads import WORKLOADS, write_inputs

    wl = WORKLOADS[workload]
    manifests = write_inputs(wl, seed, workdir)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    info = {"workload": workload, "why": why, "seed": seed, "seconds": seconds, "trace": int(trace),
            "machine": machine()}
    if not trace:
        res = session.run_session(wl, manifests, seconds, workdir, min_requests=wl.tail_requests)
        pct, tail = session.tail_percentile(res.video_ms[:wl.tail_requests])
        values = {
            "setup_s": statistics.median(res.setup_s),
            "train_samples_per_s": res.samples_per_epoch / statistics.median(res.epoch_s),
            "train_loss": res.train_loss,
            "predict_video_ms_p50": statistics.median(res.video_ms),
            "predict_video_ms_tail": tail,
            "peak_rss_mb": res.peak_rss_mb,
        }
        metrics = declared(spec, "end_to_end", values)
        info["samples"] = {"setups": len(res.setup_s), "train_epochs": len(res.epoch_s),
                           "predict_requests": len(res.video_ms), "tail_requests": wl.tail_requests,
                           "tail_percentile": pct, "warmup_rss_mb": res.warmup_rss_mb}
        ops = res.ops
    else:
        plain = session.run_session(wl, manifests, seconds / 2, workdir)
        rec = spans.Recorder()
        with spans.traced(rec):
            res = session.run_session(wl, manifests, seconds / 2, workdir, rec)
        ops = res.ops
        ops.attempted += plain.ops.attempted
        ops.failed += plain.ops.failed
        ops.problems += plain.ops.problems
        ops.check("wrappers restored", [f"{w} still wrapped" for w in spans.installed_wrappers()])
        other = "predict" if wl.main == "train" else "train"
        values = spans.layer_metrics(rec.spans, wl.main, other)
        macs = spans.check_forward_macs(rec.spans, "check")
        stage_sum = sum(macs[f"model.{s}_macs"] for s in spans.STAGES)
        ops.check("stage MACs", [] if stage_sum == macs["model.macs_per_sample"] == res.check_macs else [
            f"stages sum to {stage_sum}, forward span {macs['model.macs_per_sample']}, counter {res.check_macs}"
        ])
        values.update(macs)
        values["trace_overhead_frac"] = (
            statistics.median(res.main_units) / statistics.median(plain.main_units) - 1.0
        )
        values.update(mac_curve(seed))
        values["train.predict_heap_peak_mb"] = request_heap_mb(manifests[1], workdir / session.CHECKPOINT)
        metrics = declared(spec, "per_layer", values)
        info["samples"] = {"untraced_main_units": len(plain.main_units), "traced_main_units": len(res.main_units),
                           "spans": len(rec.spans)}
    info["ops_attempted"] = ops.attempted
    info["ops_failed"] = ops.failed
    info["problems"] = ops.problems
    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "momentkit" / "__init__.py").is_file():
        print(f"perfbench: no momentkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    workdir = ROOT / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        info, result = run(spec, args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
