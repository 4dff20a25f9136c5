#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload run.py offers once untraced and once traced and
checks that the last stdout line is the result object, that it names every
end-to-end (untraced) or per-layer (traced) metric with its unit, and that
no request failed.  It also checks that the benchmark refuses to run, with
a nonzero exit and no result, in a directory without the program.  The file
name keeps it out of pytest's collection, so tier-1 does not run it.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc, metrics):
    """Problems with one run's output; empty when it is as specified."""
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}: {proc.stderr[-500:]}")
    want = {m["name"]: m["unit"] for m in metrics}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics differ: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"units {[k for k in want if k in got and got[k] != want[k]]}")
    if "failed_share" not in proc.stdout:
        problems.append("failed_share not printed")
    return problems


def main():
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    failures = 0
    # every workload run.py offers, including any not in BENCHMARK.json
    sys.path.insert(0, str(root / "perfbench"))
    import workloads

    for workload in workloads.GENERATORS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                                     "--seconds", "0.5", "--trace", str(trace), "--tiny"]
            problems = check_result(run(cmd, root), spec[key])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace}")
            for p in problems:
                print(f"     {p}")

    # without the program the benchmark must fail fast and print no result
    (root / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=root / ".perfbench"))
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(root / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        args = ["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                "--trace", "0"]
        proc = run(spec["command"] + args, bare)
        refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
        failures += not refused
        print(f"{'ok  ' if refused else 'FAIL'} refuses to run without src/ (exit {proc.returncode})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
