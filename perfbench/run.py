#!/usr/bin/env python3
"""emcavity benchmark: one closed-loop client issuing in-process CLI requests.

Run from the repository root:

    python3 perfbench/run.py --workload entanglement_map --seed 1 --seconds 45 --trace 0

The program is imported from ./src and called through
`emcavity.cli.main(argv)` in this process, one request at a time, so
interpreter start and imports are paid once, in set-up.  Inputs are
generated from --seed into a scratch directory under ./.perfbench.  The
workload's request list (one "pass") repeats until --seconds of request
time have been measured; every output is checked against independent
numerics outside the timed region.

--trace 0 prints the end-to-end metrics; --trace 1 runs a third of the
time untraced and the rest with per-layer wrappers installed, and prints
the per-layer metrics.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import os

# pin BLAS/OpenMP threads for this process (and its set-up children) only;
# must happen before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np

import tracing
import workloads
from workloads import Result

SETUP_SAMPLES = 3
MAX_SPANS = 20_000
WORK_DIR = ".perfbench"

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

RATIOS = [
    "tripartite.stable_share",
    "tripartite.errored_share",
    "tripartite.zeta_calls_per_stable_point",
    "tripartite.stability_calls_per_search",
    "fitting.fit_reflection.iterations_per_fit",
    "fitting.fit_omit.iterations_per_fit",
    "fitting.omit_model_calls_per_fit",
    "fitting.converged_share",
    "trace.overhead_ratio",
]


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {"cli.requests": "count", "cli.self_s": "s", "cli.bytes_written": "bytes"}
    for layer, names in tracing.TRACED.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    units["device.rows_parsed"] = "count"
    units.update(dict.fromkeys(RATIOS, "ratio"))
    return units


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_program(root: Path):
    """Import emcavity.cli from ./src only; refuse any other copy."""
    package = root / "src" / "emcavity"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"perfbench: {package} not found; run from the repository root")
    sys.path.insert(0, str(root / "src"))
    import emcavity.cli as cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported {cli.__file__}, not {package}")
    return cli


def call(cli, argv) -> Result:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception as exc:  # an undocumented failure is a failed request
            rc = -1
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
    return Result(rc, seconds, out.getvalue(), err.getvalue())


def setup(args, root: Path):
    """Import, generate inputs, warm up one request of each kind."""
    cli = import_program(root)
    scratch = root / WORK_DIR
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        requests = workloads.build(args.workload, args.seed, work, args.tiny)
        seen = set()
        for req in requests:
            if req.kind not in seen:
                seen.add(req.kind)
                call(cli, req.argv)
    except BaseException:
        shutil.rmtree(work, ignore_errors=True)
        raise
    return cli, work, requests


def measure_setup(args, root: Path) -> float:
    """Median over fresh processes of process start to ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.time()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(samples)


class Judge:
    """Checks outputs outside the timed region.

    A request whose output bytes match an output already judged reuses
    that verdict, so repeated passes cost a hash, not a full check.
    """

    def __init__(self, requests):
        self.requests = requests
        self.known = [{} for _ in requests]
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def judge(self, results, facts_out):
        bytes_written = 0
        for i, (req, res) in enumerate(zip(self.requests, results)):
            digest = hashlib.sha1(f"{res.rc}\0{res.stdout}".encode())
            for path in req.outputs:
                with contextlib.suppress(OSError):
                    digest.update(Path(path).read_bytes())
                for p in (path, path + ".manifest.json"):
                    with contextlib.suppress(OSError):
                        bytes_written += os.path.getsize(p)
            bytes_written += len(res.stdout.encode())
            key = digest.hexdigest()
            if key not in self.known[i]:
                try:
                    self.known[i][key] = req.check(res)
                except Exception as exc:  # unreadable output fails the request
                    self.known[i][key] = (f"check raised {type(exc).__name__}: {exc}", {})
            error, facts = self.known[i][key]
            self.attempted += 1
            if error:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{req.kind} {' '.join(req.argv[:2])}: {error}")
            facts_out.append(facts)
        return bytes_written


def run_passes(cli, requests, judge, budget, tracer=None):
    """Repeat the pass until `budget` seconds of pass time are measured.

    Passes take turns on the CPUs this process may use, one CPU per pass:
    on a shared host each CPU's speed drifts on its own, and a run pinned
    by the scheduler to one of them would measure that CPU's phase only.
    """
    cpus = sorted(os.sched_getaffinity(0))
    walls, latencies, facts, bytes_written = [], [], [], 0
    while not walls or sum(walls) < budget:
        os.sched_setaffinity(0, {cpus[len(walls) % len(cpus)]})
        for req in requests:
            for path in req.outputs:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
        results = []
        t0 = time.perf_counter()
        for i, req in enumerate(requests):
            if tracer is None:
                results.append(call(cli, req.argv))
            else:
                tracer.request = i
                start = tracer.enter()
                results.append(call(cli, req.argv))
                tracer.leave("cli.request", start)
        walls.append(time.perf_counter() - t0)
        latencies += [r.seconds for r in results]
        bytes_written += judge.judge(results, facts)
    os.sched_setaffinity(0, cpus)
    return walls, latencies, facts, bytes_written


def end_to_end(setup_s, walls, latencies, items_per_pass):
    lat_ms = np.asarray(latencies) * 1e3
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "items_per_s": items_per_pass / statistics.median(walls),
        "request_p50_ms": float(np.percentile(lat_ms, 50)),
        "request_p90_ms": float(np.percentile(lat_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(num, den):
    """0 where the base is 0: that layer or input kind is not exercised."""
    return num / den if den else 0.0


def per_layer(tracer, walls, untraced_walls, facts, bytes_written):
    passes = len(walls)
    out = {
        "cli.requests": len(facts) / passes,
        "cli.self_s": tracer.self_s["cli.request"] / passes,
        "cli.bytes_written": bytes_written / passes,
    }
    for layer, names in tracing.TRACED.items():
        for name in names:
            out[f"{layer}.{name}.calls"] = tracer.calls[f"{layer}.{name}"] / passes
            out[f"{layer}.{name}.self_s"] = tracer.self_s[f"{layer}.{name}"] / passes
    out["device.rows_parsed"] = tracer.counters["rows_parsed"] / passes
    rows = sum(f.get("rows", 0) for f in facts)
    stable = sum(f.get("stable", 0) for f in facts)
    calls = tracer.calls
    out["tripartite.stable_share"] = _ratio(stable, rows)
    out["tripartite.errored_share"] = _ratio(sum(f.get("errored", 0) for f in facts), stable)
    out["tripartite.zeta_calls_per_stable_point"] = _ratio(
        calls["tripartite.symplectic_eigenvalue_min"], stable)
    out["tripartite.stability_calls_per_search"] = _ratio(
        calls["tripartite.stability"], calls["tripartite.critical_coupling"])
    fits = [f for f in facts if "iterations" in f]
    for fn in ("fit_reflection", "fit_omit"):
        out[f"fitting.{fn}.iterations_per_fit"] = _ratio(
            sum(f["iterations"] for f in fits if f["fit"] == fn),
            sum(f["fit"] == fn for f in fits))
    out["fitting.omit_model_calls_per_fit"] = _ratio(
        calls["fitting.omit_model"], calls["fitting.fit_omit"])
    out["fitting.converged_share"] = _ratio(sum(f["converged"] for f in fits), len(fits))
    out["trace.overhead_ratio"] = statistics.median(walls) / statistics.median(untraced_walls)
    return out


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def main():
    args = parse_args()
    root = Path.cwd()
    if args.setup_only:
        _, work, _ = setup(args, root)
        print("ready", repr(time.time()), flush=True)
        shutil.rmtree(work, ignore_errors=True)
        return 0
    setup_s = None if args.trace else measure_setup(args, root)
    cli, work, requests = setup(args, root)
    try:
        judge = Judge(requests)
        items_per_pass = sum(r.items for r in requests)
        if args.trace:
            untraced, _, _, _ = run_passes(cli, requests, judge, args.seconds / 3)
            tracer = tracing.Tracer(MAX_SPANS)
            uninstall = tracing.install(tracer)
            try:
                walls, _, facts, bytes_written = run_passes(
                    cli, requests, judge, args.seconds * 2 / 3, tracer)
            finally:
                uninstall()
            values = per_layer(tracer, walls, untraced, facts, bytes_written)
            units = per_layer_units()
            tracer.write(root / WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            walls, latencies, _, _ = run_passes(cli, requests, judge, args.seconds)
            values = end_to_end(setup_s, walls, latencies, items_per_pass)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for err in judge.errors:
        print(f"FAILED {err}", file=sys.stderr)
    print(f"# env {json.dumps(environment())}")
    print(f"# {args.workload} seed={args.seed} passes={len(walls)} "
          f"requests/pass={len(requests)} items/pass={items_per_pass} "
          f"pass_wall_s=[{', '.join(f'{w:.3f}' for w in walls)}]")
    for name, unit in units.items():
        print(f"{name:48s} {values[name]:14.6g} {unit}")
    print(f"{'failed_share':48s} {judge.failed / judge.attempted:14.6g} ratio")
    print(json.dumps({
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
