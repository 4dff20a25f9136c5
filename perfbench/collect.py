#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 201-210 [--workload NAME ...] [--out FILE]

Runs the command of BENCHMARK.json once per seed and workload (default:
every workload of BENCHMARK.json) with its run_seconds, untraced, from the
repository root.  Prints, per workload and end-to-end metric, the median
of the runs and the distance between the first and third quartiles as a
share of the median, next to the metric's bound.  --out writes the runs
and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(runs, names):
    median, spread = {}, {}
    for name in names:
        values = [r["metrics"][name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median[name] = statistics.median(values)
        spread[name] = (q3 - q1) / median[name]
    return median, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, required=True, help="first-last, e.g. 201-210")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, **{k: result[k] for k in ("correct", "attempted", "failed")},
                         "metrics": metrics})
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()),
                  flush=True)
        median, spread = summarise(runs, bounds)
        report[workload] = {"median": median, "iqr_over_median": spread, "runs": runs}
        for name in bounds:
            print(f"  {name:16s} median {median[name]:12.6g}  spread {spread[name]:.3f}"
                  f"  bound {bounds[name]}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
