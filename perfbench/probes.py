"""Per-layer measurements, each timed from outside through public functions.

Every probe returns {metric: (value, unit, samples)}.  Timings are medians
over repetitions; `samples` is the number of timed repetitions (or of
states, points and calls where the metric is a mean over them).  The probes
run after the workload in a traced run, in the benchmark's own process.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import statistics
import subprocess
import sys
import time

from spans import parse_importtime
from workloads import ROOT, SRC, child_env, draw_state, run_quatspin

SUBPROCESS_REPS = 3
REPS = 5

# default-flag CLI calls, as a user would type them
CLI_DEFAULTS = {
    "energy": ["energy"],
    "density": ["density"],
    "probability": ["probability"],
    "spinor": ["spinor"],
    "rotate": ["rotate", "--angle", "1.5707963267948966"],
}
# fixed states for the hydrogen layer, low to high n and Z
HYDROGEN_STATES = ((1, -1, 0.5, 1), (4, 2, 1.5, 20), (12, -3, -0.5, 50),
                   (25, -1, 0.5, 1))
SHOOT_STATES = 6
# states beyond the workloads' domain that show ROADMAP item 3's defects:
# the normalization cut-off (n >= 33) and the default density grid
NORM_DEFECT_STATE = (40, -1, 0.5, 1)
GRID_DEFECT_STATES = ((20, -1, 0.5, 1), (1, -1, 0.5, 92))
VERIFY_SUITES = ("algebra", "spin", "rotation", "spinor", "hydrogen", "dirac")
VERIFY_CHECKS = ("eigenvalue-agreement", "normalization-3d",
                 "spinor-worked-example", "spinor-normalization",
                 "density-assembly", "product-associativity")


def _median_time(fn, reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_layer() -> dict:
    """`python -X importtime -c "import quatspin"` in fresh processes."""
    quat, scipy_ = [], []
    for _ in range(SUBPROCESS_REPS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import quatspin"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=150, check=True)
        found = parse_importtime(proc.stderr)
        quat.append(found["quatspin"])
        scipy_.append(found["scipy"])
    n = SUBPROCESS_REPS
    return {"import.quatspin_s": (statistics.median(quat), "s", n),
            "import.scipy_s": (statistics.median(scipy_), "s", n)}


def cli_layer() -> dict:
    """Each subcommand with default flags: wall time as a subprocess, and
    cli.main in process with stdout captured.  Subprocess minus in-process
    time is interpreter start-up plus import."""
    from quatspin import cli
    walls = {sub: [] for sub in CLI_DEFAULTS}
    for _ in range(SUBPROCESS_REPS):      # interleaved, to spread drift
        for sub, argv in CLI_DEFAULTS.items():
            dt, code, _ = run_quatspin(argv)
            if code != 0:
                raise RuntimeError(f"quatspin {argv} exited {code}")
            walls[sub].append(dt)
    out = {}
    total_bytes = 0
    for sub, argv in CLI_DEFAULTS.items():
        buf = io.StringIO()

        def call():
            buf.seek(0)
            buf.truncate()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
            if code != 0:
                raise RuntimeError(f"cli.main({argv}) returned {code}")
        call()                                   # warm
        inproc = _median_time(call)
        total_bytes += len(buf.getvalue().encode())
        out[f"cli.{sub}.p50_s"] = (statistics.median(walls[sub]), "s",
                                   SUBPROCESS_REPS)
        out[f"cli.{sub}.inproc_ms"] = (inproc*1e3, "ms", REPS)
    out["cli.stdout_bytes"] = (total_bytes, "bytes", len(CLI_DEFAULTS))
    return out


def _per_call_us(fn, inputs, reps: int = REPS) -> float:
    def loop():
        for args in inputs:
            fn(*args)
    return _median_time(loop, reps)/len(inputs)*1e6


def algebra_layers(seed: int) -> dict:
    import numpy as np
    from quatspin import biquaternion as bq, matrices, spin, spinor, special
    from quatspin import pauli_dirac
    rng = np.random.default_rng(seed)

    def rand_bq():
        c = rng.standard_normal(8)
        return bq.Biquaternion(c[0] + 1j*c[1], c[2] + 1j*c[3],
                               c[4] + 1j*c[5], c[6] + 1j*c[7])
    qs = [rand_bq() for _ in range(2000)]
    pairs = list(zip(qs, qs[1:] + qs[:1]))
    axes = rng.standard_normal((500, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    rots = [(spin.rotation(tuple(a), rng.uniform(-6, 6)),
             spin.spin_operator("xyz"[i % 3])) for i, a in enumerate(axes)]
    angles = [(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2*math.pi))
              for _ in range(500)]
    sf = spinor.SpinorFunction(2, 2.5, 0.5)
    x = np.linspace(0.0, 80.0, 4096)
    out = {
        "biquaternion.mul_us": (_per_call_us(bq.mul, pairs), "us", REPS),
        "biquaternion.conj_both_us": (
            _per_call_us(bq.conj_both, [(q,) for q in qs]), "us", REPS),
        "matrices.to_matrix_linear_us": (
            _per_call_us(matrices.to_matrix_linear, [(q,) for q in qs]),
            "us", REPS),
        "spin.rotate_operator_us": (
            _per_call_us(spin.rotate_operator, rots), "us", REPS),
        "special.spherical_harmonic_us": (
            _per_call_us(lambda th, ph: special.spherical_harmonic(3, 1, th,
                                                                   ph),
                         angles), "us", REPS),
        "spinor.as_biquaternion_us": (
            _per_call_us(lambda th, ph: spinor.spinor_as_biquaternion(sf, th,
                                                                      ph),
                         angles), "us", REPS),
        "pauli_dirac.verify_clifford_ms": (
            _per_call_us(pauli_dirac.verify_clifford, [()]*20)*1e-3,
            "ms", REPS),
    }
    for degree in (10, 39):
        sec = _median_time(lambda: [special.laguerre(degree, 1.5, x)
                                    for _ in range(20)])
        out[f"special.laguerre_deg{degree}_ns_per_node"] = (
            sec/(20*x.size)*1e9, "ns", REPS)
    return out


def hydrogen_layer(seed: int) -> dict:
    """Means over HYDROGEN_STATES of per-state medians."""
    import numpy as np
    from quatspin import hydrogen as hy
    rng = np.random.default_rng(seed)
    assemble, prob, grid, point = [], [], [], []
    for n, k, mj, z in HYDROGEN_STATES:
        qn = hy.QuantumNumbers(n, k, mj, z)
        assemble.append(_median_time(lambda: hy.assemble_wavefunction(qn), 3))
        w = hy.assemble_wavefunction(qn)
        prob.append(_median_time(
            lambda: hy.probability_in_region(w, 0.0, math.inf), 3))
        r_max = (2*n + 40)/w.C*hy.ALPHA_FS
        R, TH = np.meshgrid(np.linspace(r_max/512, r_max, 512),
                            np.linspace(0.0, math.pi, 256), indexing="ij")
        grid.append(_median_time(lambda: w.density_grid(R, TH), 3)/R.size)
        pts = [(rng.uniform(0.05, 2.0)*n*n/z, math.acos(rng.uniform(-1, 1)),
                rng.uniform(0, 2*math.pi)) for _ in range(100)]
        point.append(_per_call_us(w.density, pts, 3))
    ns = len(HYDROGEN_STATES)
    out = {"hydrogen.assemble_ms": (statistics.fmean(assemble)*1e3, "ms", ns),
           "hydrogen.probability_ms": (statistics.fmean(prob)*1e3, "ms", ns),
           "hydrogen.density_grid_ns_per_node": (
               statistics.fmean(grid)*1e9, "ns", ns),
           "hydrogen.density_point_us": (statistics.fmean(point), "us", ns)}
    return out


def defects() -> dict:
    """|P(0, inf) - 1| of the assembled wavefunction at NORM_DEFECT_STATE,
    and the worst |grid_integral - 1| of `quatspin density` with its default
    grid over GRID_DEFECT_STATES.  Both should fall below 1e-6 once the
    cut-offs scale with the state."""
    import json
    from quatspin import cli, hydrogen as hy
    w = hy.assemble_wavefunction(hy.QuantumNumbers(*NORM_DEFECT_STATE))
    norm_dev = abs(hy.probability_in_region(w, 0.0, math.inf) - 1.0)
    grid_dev = 0.0
    for n, k, mj, z in GRID_DEFECT_STATES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["density", "--n", str(n), "--k", str(k),
                             "--mj", repr(mj), "--z", str(z)])
        if code != 0:
            raise RuntimeError(f"quatspin density at n={n}, Z={z} exited "
                               f"{code}")
        rec = json.loads(buf.getvalue())
        grid_dev = max(grid_dev, abs(rec["grid_integral"] - 1.0))
    return {"defect.norm_dev_n40": (norm_dev, "ratio", 1),
            "defect.density_default_grid_dev": (grid_dev, "ratio",
                                                len(GRID_DEFECT_STATES))}


def shooting(seed: int) -> tuple[dict, list]:
    """Cold shooting on states drawn from the sweep domain: the cache is
    cleared before every state.  A raise, or a level more than 1e-8 of the
    binding energy from Sommerfeld, fails.  Returns metrics and failures."""
    from quatspin import hydrogen as hy
    rng = random.Random(f"shoot:{seed}")
    times, failures = [], []
    for _ in range(SHOOT_STATES):
        st = draw_state(rng)
        qn = hy.QuantumNumbers(st["n"], st["k"], st["mj"], st["z"])
        hy.clear_shooting_cache()
        t0 = time.perf_counter()
        try:
            e = hy.shoot_eigenvalue(qn)
            why = None
        except (RuntimeError, ValueError) as exc:
            why = f"raised {exc}"
        times.append(time.perf_counter() - t0)
        if why is None:
            ref = hy.energy(qn)
            rel = (e - ref)/(1.0 - ref)
            if not abs(rel) <= 1e-8:
                why = f"relative deviation {rel:.3e}"
        if why is not None:
            failures.append({**st, "reason": why[:120]})
    hy.clear_shooting_cache()
    return {"hydrogen.shoot_s_per_state": (statistics.fmean(times), "s",
                                           SHOOT_STATES),
            "hydrogen.shoot_fail_ratio": (len(failures)/SHOOT_STATES, "ratio",
                                          SHOOT_STATES)}, failures


def verify_layer(seed: int) -> dict:
    """Every registered check once, timed one by one, shooting cache cold."""
    from quatspin import hydrogen as hy, verify
    hy.clear_shooting_cache()
    suite_s = dict.fromkeys(VERIFY_SUITES, 0.0)
    check_s, worst, eig_dev = {}, 0.0, None
    for name in verify.check_names():
        t0 = time.perf_counter()
        res = verify.run_check(name, seed=seed)
        check_s[name] = time.perf_counter() - t0
        suite_s[res.suite] = suite_s.get(res.suite, 0.0) + check_s[name]
        worst = max(worst, res.max_dev/res.tol)
        if name == "eigenvalue-agreement":
            eig_dev = res.max_dev
    hy.clear_shooting_cache()
    out = {f"verify.suite.{s}_s": (suite_s[s], "s", 1) for s in VERIFY_SUITES}
    out.update({f"verify.check.{c}_s": (check_s[c], "s", 1)
                for c in VERIFY_CHECKS})
    out["verify.worst_dev_ratio"] = (worst, "ratio", len(check_s))
    out["verify.eigenvalue-agreement.max_dev"] = (eig_dev, "ratio", 1)
    return out


def run_all(seed: int) -> tuple[dict, list]:
    """All per-layer metrics, and the failing states of the shooting probe."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    out = import_layer()
    out.update(cli_layer())
    out.update(algebra_layers(seed))
    out.update(hydrogen_layer(seed))
    out.update(defects())
    shoot, shoot_failures = shooting(seed)
    out.update(shoot)
    out.update(verify_layer(seed))
    return out, shoot_failures
