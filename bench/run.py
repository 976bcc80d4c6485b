"""gffads benchmark: runs one workload (or all) and prints its metrics.

    python3 bench/run.py --workload locality --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the root of a source checkout; the library is imported from
./src.  Every measurement happens in a fresh worker process with BLAS and
OpenMP pinned to one thread.  --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer metrics of a separate traced run.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Exit codes: 0 all checks passed, 1 a check failed or a worker
broke, 2 the checkout has no gffads sources.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("locality", "generators", "tensor", "scan")

# fresh processes timed for setup_s; the measuring worker adds one more
SETUP_PROBES = 4
DEADLINE_S = 170.0
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def worker(workload, seed, mode, seconds, deadline, spans=None):
    env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    if spans:
        cmd += ["--spans", str(spans)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("time budget used up before the worker started")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} {mode} worker timed out") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerError(f"{workload} {mode} worker exited with "
                          f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def measure(workload, seed, seconds, deadline):
    """End-to-end metrics of one workload, untraced."""
    setups = [worker(workload, seed, "setup", seconds, deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    res = worker(workload, seed, "run", seconds, deadline)
    setups.append(res["setup_s"])
    n = f"n={res['attempted']} requests, {res['runs']} runs"
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} fresh processes"),
        "latency_p50_s": (res["latency_p50_s"], "s",
                          f"{n}; {res['raw_latency_p50_s']:.6g} s as run"),
        "latency_tail_s": (res["latency_tail_s"], "s",
                           f"p{res['tail_percentile']:.2f}, {n}"),
        "throughput_rps": (res["throughput_rps"], "1/s",
                           "verified requests over their summed latency; "
                           f"{res['raw_throughput_rps']:.6g}/s as run"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", "workload process"),
    }
    cal = ", ".join(f"{c * 1e3:.3f}" for c in res["calibration_s"])
    report = {
        "fail_fraction": (res["failed"] / res["attempted"], "ratio",
                          f"{res['failed']}/{res['attempted']} requests"),
        "estimate_miss_fraction": (
            res["estimate_misses"] / res["estimates"] if res["estimates"]
            else None, "ratio",
            f"{res['estimate_misses']}/{res['estimates']} requests with an "
            "oracle value and an error_estimate"),
        "calibration_ms": (res["calibration_s"][1] * 1e3, "ms",
                           f"min, median, max: {cal}"),
    }
    return res, metrics, report


def traced(workload, seed, seconds, deadline):
    """Per-layer metrics of one workload from a traced run."""
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}.jsonl"
    res = worker(workload, seed, "trace", seconds, deadline, spans)
    metrics = {k: (v, unit, "") for k, (v, unit) in res["metrics"].items()}
    return res, metrics, {"spans": (res["spans"], "count", str(spans))}


def machine(res, seed):
    return {"git_sha": git_sha(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "numpy": res["numpy"],
            "scipy": res["scipy"], "sympy": res["sympy"],
            "blas_threads": res["blas_threads"],
            "blas_env": PINNED["OPENBLAS_NUM_THREADS"], "seed": seed}


def print_block(workload, metrics, report, machine):
    print(f"== {workload}")
    print("machine " + json.dumps(machine))
    for name, (value, unit, note) in {**metrics, **report}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown:>14s} {unit:6s} {note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "gffads" / "__init__.py").is_file():
        print(f"no gffads sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S * (
        len(WORKLOADS) if args.workload == "all" else 1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run = traced if args.trace else measure
    attempted = failed = 0
    out_metrics = {}
    try:
        for name in names:
            res, metrics, report = run(name, args.seed, args.seconds,
                                       deadline)
            print_block(name, metrics, report, machine(res, args.seed))
            attempted += res["attempted"]
            failed += res["failed"]
            prefix = "" if len(names) == 1 else name + "."
            for key, (value, unit, _) in metrics.items():
                out_metrics[prefix + key] = {"value": value, "unit": unit}
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
