"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload: the same seed gives the same operation list (compared
by hash) and a different seed a different one; two one-pass runs with the
same seed report the same failing operations, the same fail ratio and, on
verify-all, the same worst max_dev/tol ratio.  Takes a few minutes.
Exits 1 on the first mismatch.
"""

import json
import os
import subprocess
import sys

from workloads import ROOT, WORKLOADS, ops_hash

SEED, OTHER_SEED = 20240601, 7


def one_pass(workload: str, seed: int) -> dict:
    """Run the benchmark for one pass and return its report and result."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: run.py exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    *_, report, result = proc.stdout.strip().splitlines()
    return {**json.loads(report)["report"], **json.loads(result)}


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        raise SystemExit(1)


def main() -> int:
    for name, cls in sorted(WORKLOADS.items()):
        h1, h2 = ops_hash(cls(SEED).ops), ops_hash(cls(SEED).ops)
        check(h1 == h2, f"{name}: same seed, same op list ({h1})")
        h3 = ops_hash(cls(OTHER_SEED).ops)
        check(h3 != h1, f"{name}: other seed, other op list ({h3})")

        a, b = one_pass(name, SEED), one_pass(name, SEED)
        check(a["ops_hash"] == h1, f"{name}: run used the generated op list")
        for key in ("attempted", "failed", "fail_ratio", "correct"):
            check(a[key] == b[key], f"{name}: {key} repeats ({a[key]})")
        fa, fb = a["failures"]["failing_ops"], b["failures"]["failing_ops"]
        check(fa == fb, f"{name}: failing set repeats ({fa})")
        if name == "verify-all":
            wa, wb = a["verify_worst_dev_ratio"], b["verify_worst_dev_ratio"]
            check(wa == wb, f"{name}: worst max_dev/tol repeats ({wa!r})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
