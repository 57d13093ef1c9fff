"""quatspin benchmark: three seeded workloads, end-to-end and per-layer
metrics.

    python3 perfbench/run.py --workload {cli-mix,verify-all,state-sweep}
                             --seed N --seconds S --trace {0,1}

Run from the repository root (the package is imported from ./src).  The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it is a report with sample counts,
every failing input, the run environment and, for traced runs, self time
per layer.  Failing inputs also go to stderr as they happen.

--trace 0 measures the end-to-end metrics.  Times are calibrated wall
times (see calibrate.py): each is scaled by the host's speed on a reference
kernel timed next to it (a subprocess kernel for set-up and cli-mix, an
in-process one for state-sweep), so that they do not follow the speed
swings of a shared machine.  The report line also gives them uncalibrated.
  op_p50_ms, op_p90_ms  per-operation time.  An operation is one
                        `python -m quatspin` call on cli-mix, one
                        `verify --suite all` call on verify-all, and one
                        state on state-sweep.
  ops_per_s             operations completed per second of operation time
                        (closed loop, one client).
  setup_s               median over fresh processes of the time from
                        process start to the first timed operation, with
                        the warm-up call or the in-process import.
  peak_rss_mb           peak RSS of the children (subprocess workloads) or
                        of this process (state-sweep).
--trace 1 runs every operation twice, untraced and then with spans around
every public call (see spans.py), reports self time per layer and the
tracing overhead, then runs the per-layer probes (see probes.py).

A run makes whole passes over the seeded operation list while time is
left, at least one, so `attempted` and `failed` depend only on the seed and
the number of passes.
"""

from __future__ import annotations

import os

# one single-threaded process; set before numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import compileall
import contextlib
import importlib.metadata
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

import spans
from calibrate import Calibration
from workloads import OUT, ROOT, SRC, WORKLOADS, ops_hash

SETUP_PROBES = 5
# the end-to-end metrics under the names they have on each workload
WORKLOAD_NAMES = {
    "cli-mix": {"op_p50_ms": ("cli_p50_s", 1e-3),
                "op_p90_ms": ("cli_p90_s", 1e-3),
                "ops_per_s": ("cli_ops_per_s", 1.0)},
    "verify-all": {"op_p50_ms": ("verify_all_s", 1e-3)},
    "state-sweep": {"op_p50_ms": ("sweep_state_p50_ms", 1.0),
                    "op_p90_ms": ("sweep_state_p90_ms", 1.0),
                    "ops_per_s": ("sweep_states_per_s", 1.0)},
}


def measure(wl, seconds: float, tracer=None, cal=None) -> dict:
    """Whole passes over wl.ops while the last pass still fits in the time
    left; at least one pass.  Returns latencies and failures.

    With a tracer every operation runs twice, untraced and then traced, so
    each traced latency has an untraced partner measured moments before.
    With a Calibration the reference kernel runs before the first operation
    and after each one.
    """
    lat, traced, failures = [], [], []
    passes = 0

    def run(i, tr=None):
        if tr is None:
            dt, reason = wl.run_op(i)
        else:
            tr.op = passes*len(wl.ops) + i
            with (spans.installed(tr) if wl.in_process
                  else contextlib.nullcontext()):
                dt, reason = wl.run_op(i, tr)
        if reason is not None:
            rec = {"op": i, "pass": passes, "input": wl.describe(i),
                   "reason": reason}
            failures.append(rec)
            print(json.dumps({"failed_op": rec}), file=sys.stderr)
        return dt

    t_start = time.perf_counter()
    if cal is not None:
        cal.sample()
    while True:
        p0 = time.perf_counter()
        for i in range(len(wl.ops)):
            lat.append(run(i))
            if cal is not None:
                cal.sample()
            if tracer is not None:
                traced.append(run(i, tracer))
        passes += 1
        now = time.perf_counter()
        if now - t_start + (now - p0) > seconds:
            break
    return {"lat": lat, "traced": traced, "failures": failures,
            "passes": passes}


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q*100) - 1]


def setup_probe_s(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh benchmark process until it reports
    that set-up is done."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", "0"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                          text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line != "ready" or code != 0:
        raise SystemExit(f"error: set-up probe failed (exit {code})")
    return elapsed


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "note": "shared machine; no CPU pinning, no cache dropping, "
                    "no system setting changed"}


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss/1024.0     # Linux: KiB


def failure_summary(failures) -> dict:
    """Each failing operation once."""
    by_op = {}
    for f in failures:
        by_op.setdefault(f["op"], {k: v for k, v in f.items() if k != "pass"})
    return {"failing_ops": sorted(by_op),
            "inputs": [by_op[i] for i in sorted(by_op)]}


def traced_summary(tracer, res) -> dict:
    """Self time per layer and per span name, per operation and as a share
    of traced operation wall time, and the tracing overhead: the median
    over operations of traced/untraced latency, minus 1."""
    by_layer, by_name = spans.self_times(tracer.spans)
    n_ops = len(res["traced"])
    op_total = sum(res["traced"])
    overhead = statistics.median(
        t/u for t, u in zip(res["traced"], res["lat"])) - 1.0

    def table(d):
        return {key: {"ms_per_op": v/n_ops*1e3, "share": v/op_total}
                for key, v in sorted(d.items(), key=lambda kv: -kv[1])}
    return {"ops": n_ops, "spans": len(tracer.spans),
            "overhead_ratio": overhead,
            "self_by_layer": table(by_layer),
            "self_by_name": table(by_name)}


def main() -> int:
    ap = argparse.ArgumentParser(description="quatspin benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "quatspin", "__init__.py")):
        print(f"error: no quatspin package under {SRC}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        wl.setup()
        print("ready", flush=True)
        return 0

    # the build: byte-compile the package so no run pays for it
    if not compileall.compile_dir(SRC, quiet=1):
        print("error: byte-compiling src failed", file=sys.stderr)
        return 2
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    report = {"workload": args.workload, "seed": args.seed,
              "ops_per_pass": len(wl.ops), "ops_hash": ops_hash(wl.ops)}

    if args.trace == 0:
        setup_cal = Calibration(spawn=True)
        setup_cal.sample()
        setups = []
        for _ in range(SETUP_PROBES):
            setups.append(setup_probe_s(args.workload, args.seed))
            setup_cal.sample()
        wl.setup()
        cal = Calibration(spawn=not wl.in_process)
        res = measure(wl, args.seconds, cal=cal)

        def end_to_end(lat_s, setup_s):
            lat_ms = [x*1e3 for x in lat_s]
            n = len(lat_ms)
            return {"op_p50_ms": (statistics.median(lat_ms), "ms", n),
                    "op_p90_ms": (quantile(lat_ms, 0.9), "ms", n),
                    "ops_per_s": (n/sum(lat_s), "1/s", n),
                    "setup_s": (statistics.median(setup_s), "s",
                                len(setup_s))}
        values = end_to_end(cal.calibrated(res["lat"]),
                            setup_cal.calibrated(setups))
        values["peak_rss_mb"] = (peak_rss_mb(wl.in_process), "MB", 1)
        report["uncalibrated"] = {k: v for k, (v, _, _) in
                                  end_to_end(res["lat"], setups).items()}
        report["kernel_ms"] = {
            "median": statistics.median(cal.samples)*1e3,
            "quartiles": [q*1e3 for q in statistics.quantiles(cal.samples,
                                                              n=4)],
            "samples": len(cal.samples)}
        report["workload_names"] = {
            alias: values[m][0]*scale
            for m, (alias, scale) in WORKLOAD_NAMES[args.workload].items()}
    else:
        wl.setup()
        tracer = spans.Tracer()
        res = measure(wl, args.seconds, tracer)
        summary = traced_summary(tracer, res)
        import probes
        values, report["shoot_failures"] = probes.run_all(args.seed)
        values["trace.overhead_ratio"] = (summary["overhead_ratio"], "ratio",
                                          summary["ops"])
        report["trace"] = dict(summary)
        os.makedirs(OUT, exist_ok=True)
        trace_file = os.path.join(
            OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(trace_file, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "span_fields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.spans, "summary": summary}, fh)
        report["trace"]["file"] = os.path.relpath(trace_file, ROOT)

    failures = res["failures"]
    attempted = len(res["lat"]) + len(res["traced"])
    report["passes"] = res["passes"]
    report["fail_ratio"] = len(failures)/attempted
    report["failures"] = failure_summary(failures)
    if getattr(wl, "worst_dev_ratio", None) is not None:
        report["verify_worst_dev_ratio"] = wl.worst_dev_ratio
    report["metrics"] = {k: {"value": v, "unit": u, "samples": s}
                         for k, (v, u, s) in values.items()}
    env["loadavg_end"] = os.getloadavg()
    report["environment"] = env
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
