"""Run workloads over several seeds, each in a fresh process, and summarise them.

From the repository root:

    python3 perfbench/collect.py --seeds 1-10 --trace-seeds 1 --out perfbench/baseline.json

For every workload and seed this runs ``perfbench/run.py`` once untraced (and
once traced for each ``--trace-seeds`` seed), then reports, per metric, the
median and quartiles over seeds and the spread: the distance between the
first and third quartile as a share of the median. A spread at or above a
third of the metric's bound in ``BENCHMARK.json`` is flagged. Run seconds come
from ``BENCHMARK.json``.

With ``--compare`` it also reports, per end-to-end metric, how much worse this
set's median is than the median in an earlier summary, as a share of the
earlier one, and whether that stays within the bound:

    python3 perfbench/collect.py --seeds 11-20 --compare perfbench/baseline.json \
        --out perfbench/baseline_repeat.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if not text:
        return []
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    info_line, result_line = proc.stdout.splitlines()[-2:]
    return json.loads(info_line), json.loads(result_line)


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else None,
            "values": values}


def worse_by(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``; negative if better."""
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def compare(doc: dict, earlier: dict, spec: dict) -> dict:
    """Per workload and end-to-end metric: worse-by share against ``earlier`` and whether it is in bound."""
    declared = {m["name"]: m for m in spec["end_to_end"]}
    out: dict = {}
    for workload, entry in doc["workloads"].items():
        before = earlier["workloads"].get(workload, {}).get("end_to_end", {})
        for name, stats in entry["end_to_end"].items():
            if name not in before:
                continue
            share = worse_by(before[name]["median"], stats["median"], declared[name]["better"])
            bound = declared[name]["bound"]
            out.setdefault(workload, {})[name] = {"worse_by": share, "bound": bound, "within": share <= bound}
            flag = "" if share <= bound else "  <-- worse than the bound"
            print(f"{workload:14s} {name:34s} worse by {share:+.4f} (bound {bound}){flag}")
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="untraced seeds, as N or N-M")
    parser.add_argument("--trace-seeds", default="", help="traced seeds, as N or N-M")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path, help="an earlier summary to compare medians with")
    args = parser.parse_args(argv)

    doc: dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        entry: dict = {"end_to_end": {}, "per_layer": {}}
        for trace, seeds in ((0, _seeds(args.seeds)), (1, _seeds(args.trace_seeds))):
            runs = []
            for seed in seeds:
                info, result = run_once(workload, seed, spec["run_seconds"], trace)
                if not result["correct"] or result["failed"]:
                    raise RuntimeError(f"{workload} seed {seed}: failed checks {info['problems']}")
                runs.append((info, result))
                print(f"{workload} seed={seed} trace={trace} attempted={result['attempted']} "
                      f"failed={result['failed']} samples={info['samples']}", file=sys.stderr, flush=True)
            if not runs:
                continue
            doc["machine"] = runs[0][0]["machine"]
            entry["why"] = runs[0][0]["why"]
            section = entry["per_layer" if trace else "end_to_end"]
            entry["trace_seeds" if trace else "seeds"] = seeds
            entry["samples" if not trace else "traced_samples"] = [info["samples"] for info, _ in runs]
            for name, metric in runs[0][1]["metrics"].items():
                stats = summarise([r["metrics"][name]["value"] for _, r in runs])
                stats["unit"] = metric["unit"]
                if name in bounds:
                    stats["bound"] = bounds[name]
                    stats["steady"] = stats["spread"] is not None and stats["spread"] < bounds[name] / 3
                section[name] = stats
                flag = "" if stats.get("steady", True) else "  <-- spread >= bound/3"
                spread = f"{stats['spread']:.4f}" if stats["spread"] is not None else "-"
                print(f"{workload:14s} {name:34s} median {stats['median']:<14.6g} spread {spread}{flag}")
        doc["workloads"][workload] = entry
    if args.compare:
        doc["compared_with"] = {"file": args.compare.name,
                                "worse_by": compare(doc, json.loads(args.compare.read_text()), spec)}
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
