"""One fresh benchmark process: set up a workload, then measure or trace it.

Started by run.py, never imported.  Prints one JSON object on stdout.

  --mode setup   set up and report setup_s only
  --mode run     set up, then run whole passes of requests closed-loop (one
                 client: a request starts when the previous verified result
                 is back) until --seconds have passed and at least
                 MIN_SAMPLES requests are done
  --mode trace   set up, then run the first trace_requests requests of the
                 seeded stream, each once untraced and once traced.  The
                 set is fixed, so the counts repeat exactly for a seed.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from workloads import Verdict  # noqa: E402

# a tail percentile needs at least 10 samples beyond it
TAIL_BEYOND = 10
MIN_SAMPLES = TAIL_BEYOND + 1
# A request shorter than REPEAT_S runs again, up to REPEAT_MAX runs, and its
# latency is the median of its runs: short requests are the ones a burst of
# load from elsewhere on the machine distorts most.
REPEAT_S = 0.5
REPEAT_MAX = 5

# Machine-speed correction.  On a shared host the speed of one core swings
# by tens of percent for seconds at a time.  A fixed calibration kernel is
# timed between requests, at least every CAL_EVERY_S, and every run's wall
# time is scaled by CAL_REFERENCE_S over the mean of the calibrations just
# before and after it: times are reported at the machine speed at which the
# kernel takes CAL_REFERENCE_S.
CAL_EVERY_S = 0.25
CAL_REFERENCE_S = 4.0e-4
_CAL_ARRAY = np.linspace(0.0, 1.0, 4096)


def calibration_kernel():
    """Fixed interpreter and numpy work, about the mix the requests do."""
    acc = 0
    for i in range(4000):
        acc += i * i
    for _ in range(16):
        acc += float(np.sqrt(_CAL_ARRAY).sum())
    return acc


class SpeedProbe:
    def __init__(self):
        self.samples = []  # (perf_counter at the probe, kernel seconds)
        self.calibrate()

    def calibrate(self):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            calibration_kernel()
            times.append(time.perf_counter() - start)
        self.samples.append((time.perf_counter(), sorted(times)[1]))

    def before_run(self):
        """Calibrate if due; return the index of the calibration before."""
        if time.perf_counter() - self.samples[-1][0] >= CAL_EVERY_S:
            self.calibrate()
        return len(self.samples) - 1

    def scale(self, index):
        """Factor to reference speed for a run after calibration `index`."""
        around = self.samples[index][1] + self.samples[index + 1][1]
        return 2.0 * CAL_REFERENCE_S / around


def run_once(request, reset):
    """Run a request once; a raise counts as a failed check, not a crash."""
    reset()
    start = time.perf_counter()
    try:
        verdict = request()
    except Exception:
        print(f"request failed: {request.label}\n{traceback.format_exc()}",
              file=sys.stderr)
        verdict = Verdict(False)
    elapsed = time.perf_counter() - start
    if not verdict.ok:
        print(f"check failed: {request.label}", file=sys.stderr)
    return elapsed, verdict


def run_request(request, reset, probe=None):
    """Return ([(seconds, calibration index)] of its runs, verdict).

    Without a probe the request runs once.
    """
    runs, verdicts = [], []
    while True:
        index = probe.before_run() if probe else None
        elapsed, verdict = run_once(request, reset)
        runs.append((elapsed, index))
        verdicts.append(verdict)
        if (probe is None or sum(t for t, _ in runs) >= REPEAT_S
                or len(runs) >= REPEAT_MAX):
            break
    if not all(v.ok for v in verdicts):
        verdict = Verdict(False)
    return runs, verdict


def summarize(latencies, verdicts):
    """End-to-end figures from per-request latencies and verdicts."""
    lat = np.asarray(latencies)
    n = len(lat)
    with_estimate = [v for v in verdicts
                     if v.error is not None and v.estimate is not None]
    out = {"attempted": n,
           "failed": sum(not v.ok for v in verdicts),
           "latency_p50_s": float(np.median(lat)),
           "estimates": len(with_estimate),
           "estimate_misses": int(sum(v.estimate_missed
                                      for v in with_estimate))}
    # requests a client gets verified per second: 1 / mean latency
    out["throughput_rps"] = (n - out["failed"]) / float(np.sum(lat))
    if n > TAIL_BEYOND:
        # at this percentile (linear interpolation) exactly TAIL_BEYOND
        # samples lie above the value
        out["tail_percentile"] = 100.0 * (n - TAIL_BEYOND) / n
        out["latency_tail_s"] = float(np.percentile(lat,
                                                    out["tail_percentile"]))
    return out


def measure(wl, first, passes, seconds):
    """Closed loop over whole passes until `seconds` and MIN_SAMPLES."""
    probe = SpeedProbe()
    done = []
    start = time.perf_counter()
    requests = first
    while True:
        done += [run_request(r, wl.reset, probe) for r in requests]
        if (time.perf_counter() - start >= seconds
                and len(done) >= MIN_SAMPLES):
            break
        requests = next(passes)
    probe.calibrate()
    verdicts = [v for _, v in done]
    out = summarize([np.median([t * probe.scale(i) for t, i in runs])
                     for runs, _ in done], verdicts)
    raw = summarize([np.median([t for t, _ in runs]) for runs, _ in done],
                    verdicts)
    cal = [c for _, c in probe.samples]
    out.update({"runs": sum(len(runs) for runs, _ in done),
                "raw_latency_p50_s": raw["latency_p50_s"],
                "raw_throughput_rps": raw["throughput_rps"],
                "calibration_s": [min(cal), float(np.median(cal)), max(cal)]})
    return out


def blas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    import ctypes
    import glob
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def versions():
    import scipy
    import sympy
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "sympy": sympy.__version__, "blas_threads": blas_threads()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spans", help="file the traced run writes spans to")
    args = ap.parse_args()

    wl = workloads.make(args.workload)
    passes = wl.passes(np.random.default_rng(args.seed))
    first = next(passes)
    wl.warm_up()
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s}

    if args.mode == "run":
        result.update(measure(wl, first, passes, args.seconds))
    elif args.mode == "trace":
        result.update(trace(wl, first, passes, args.spans))
    if args.mode != "setup":
        result.update(versions())

    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


def trace(wl, first, passes, spans_path):
    """Per-layer metrics of a fixed request set, and the tracing overhead.

    Each request runs once untraced and once traced, alternating which goes
    first, so drift during the run falls on both sides alike.
    """
    import tracing
    requests = list(first)
    while len(requests) < wl.trace_requests:
        requests += next(passes)
    requests = requests[:wl.trace_requests]

    tracer = tracing.Tracer()

    def run(request, traced):
        if not traced:
            return run_request(request, wl.reset)
        tracer.install()
        if wl.modes is not None:
            wl.modes.base_wrapper = tracer.base_wrapper
        try:
            return run_request(request, wl.reset)
        finally:
            tracer.uninstall()
            if wl.modes is not None:
                wl.modes.base_wrapper = None

    plain, traced = [], []
    for i, request in enumerate(requests):
        tracer.request = i
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            (traced if on else plain).append(run(request, on))
    if spans_path:
        tracer.write(spans_path)

    def summary(done):
        return summarize([runs[0][0] for runs, _ in done],
                         [v for _, v in done])
    both = summary(plain + traced)
    checks = summary(traced)
    untraced_s = sum(runs[0][0] for runs, _ in plain)
    traced_s = sum(runs[0][0] for runs, _ in traced)
    metrics = tracer.layer_metrics()
    metrics.update({
        "checks.requests": (checks["attempted"], "count"),
        "checks.estimates": (checks["estimates"], "count"),
        "checks.estimate_misses": (checks["estimate_misses"], "count"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    })
    return {"attempted": both["attempted"], "failed": both["failed"],
            "spans": len(tracer.spans), "metrics": metrics}


if __name__ == "__main__":
    main()
