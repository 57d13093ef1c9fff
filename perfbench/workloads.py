"""Seeded inputs, operations and output oracles of the three workloads.

Every workload is one single-threaded client in a closed loop: the next
operation starts when the previous one has returned.  Inputs come only from
the seed; the program sees only the generated arguments.

An operation fails when its output misses an oracle; every failure is
counted and logged, and any failure makes the run incorrect.

States stop at n = N_MAX = 32: from n = 33 the program's normalization
integral is cut off too early and P(0, inf) misses 1 by more than 1e-6
(ROADMAP item 3).  The benchmark's inputs are chosen so that no operation
fails; that defect, and the default `density` grid's (too small from
n = 14, and short of 1e-6 at Z = 92 for every n), are measured instead by
the `defect.*` per-layer metrics (see probes.py).
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time

from spans import parse_importtime

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "trace_child.py")

# the benchmark's own constants for its reference energies
ALPHA_FS = 7.2973525693e-3
MC2_EV = 510998.95

ZS = (1, 20, 50, 92)
N_MAX = 32
TOL = 1e-6                 # grid integrals, shell sums, full-range probability
ROTATE_TOL = 1e-12
OP_TIMEOUT_S = 150

SUBCOMMANDS = ("energy", "density", "probability", "spinor", "rotate")
CLI_CALLS_PER_SUBCOMMAND = 3
# n of the three density calls in a cli-mix pass, one from each third of
# 1..N_MAX: every pass then holds one large grid, so neither the pass's cost
# nor the children's peak RSS depends much on the seed
DENSITY_N_STRATA = ((1, 10), (11, 21), (22, N_MAX))
SWEEP_EXTRA_NS = 10        # low-n values added to the n = 1..N_MAX ladder
SWEEP_K_STRATA = 4
POINTS_PER_STATE = 24

_N_WEIGHTS = [1.0/n for n in range(1, N_MAX + 1)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def ops_hash(ops) -> str:
    blob = json.dumps(ops, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ------------------------------------------------------------------ domain

def draw_n(rng: random.Random, lo: int = 1, hi: int = N_MAX) -> int:
    """n in lo..hi with weight 1/n: every n possible, low n most likely."""
    return rng.choices(range(lo, hi + 1), weights=_N_WEIGHTS[lo - 1:hi])[0]


def draw_state(rng: random.Random, n: int | None = None) -> dict:
    """A valid (n, k, m_j, Z): any k with |k| <= n (k = n excluded), any
    m_j in -j..j, Z from {1, 20, 50, 92} (Z alpha < 1 <= |k| always)."""
    if n is None:
        n = draw_n(rng)
    k = rng.choice([k for k in range(-n, n) if k != 0])
    two_j = 2*abs(k) - 1
    mj = rng.choice(range(-two_j, two_j + 1, 2))/2
    return {"n": n, "k": k, "mj": mj, "z": rng.choice(ZS)}


def state_valid(n: int, k: int, z: int) -> bool:
    return (n >= 1 and k != 0 and abs(k) <= n and not (abs(k) == n and k > 0)
            and z*ALPHA_FS < abs(k))


def sommerfeld(n: int, k: int, z: int) -> float:
    za = z*ALPHA_FS
    s = math.sqrt(k*k - za*za)
    return 1.0/math.sqrt(1.0 + (za/((n - abs(k)) + s))**2)


# ------------------------------------------------------------- subprocess

def run_quatspin(argv: list[str], tracer=None, op_name: str = "op.quatspin"):
    """Run `python -m quatspin ARGV` and return (seconds, exit code, stdout).

    With a tracer the call goes through trace_child.py under -X importtime,
    and the child's spans, plus an `import.scipy` span built from its
    import-time report, are added below one op span.
    """
    if tracer is None:
        cmd = [sys.executable, "-m", "quatspin", *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, env=child_env(),
                              cwd=ROOT, timeout=OP_TIMEOUT_S)
        return time.perf_counter() - t0, proc.returncode, proc.stdout
    os.makedirs(OUT, exist_ok=True)
    spans_file = os.path.join(OUT, f"child-spans-{os.getpid()}.json")
    cmd = [sys.executable, "-X", "importtime", TRACE_CHILD, spans_file, "--",
           *argv]
    with tracer.span(op_name) as op_idx:
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, env=child_env(),
                              cwd=ROOT, timeout=OP_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
    with open(spans_file) as fh:
        child = json.load(fh)
    os.remove(spans_file)
    base = len(tracer.spans)
    import_idx = None
    for name, start, end, parent, _ in child:
        idx = tracer.add(name, start, end,
                         op_idx if parent < 0 else base + parent)
        if name == "import.quatspin":
            import_idx, import_start = idx, start
    if import_idx is not None:
        scipy_s = parse_importtime(proc.stderr.decode())["scipy"]
        tracer.add("import.scipy", import_start, import_start + scipy_s,
                   import_idx)
    return elapsed, proc.returncode, proc.stdout


# ---------------------------------------------------------------- cli-mix

def cli_density_grid(n: int, k: int, z: int) -> list[str]:
    """`--grid` and `--r-max` flags sized to the state.

    The CLI's radial nodes are Gauss-Legendre on [0, r_max], linear in r,
    so they need more nodes than the default 64 at high Z, where the density
    near the origin goes like r^(2s - 2) with s < 1.  r_max = (2n + 40)/C
    in natural units, as in state_grid; theta needs n + 2 nodes.
    """
    c = math.sqrt(1.0 - sommerfeld(n, k, z)**2)
    return ["--grid", f"{max(128, 48 + 6*n)}:{max(32, n + 2)}",
            "--r-max", repr((2*n + 40)/c*ALPHA_FS)]


def cli_ops(seed: int) -> list[list[str]]:
    rng = random.Random(f"cli-mix:{seed}")
    # equal counts of each subcommand in seeded order, so the mix of cheap
    # and expensive calls in a pass is the same for every seed
    subs = list(SUBCOMMANDS)*CLI_CALLS_PER_SUBCOMMAND
    rng.shuffle(subs)
    density_ns = [draw_n(rng, lo, hi) for lo, hi in DENSITY_N_STRATA]
    ops = []
    for sub in subs:
        st = draw_state(rng, density_ns.pop() if sub == "density" else None)
        n, k, mj, z = st["n"], st["k"], st["mj"], st["z"]
        if sub == "energy":
            ns = sorted({n} | {draw_n(rng) for _ in range(rng.randint(0, 2))})
            top = max(ns)
            ks = sorted({k} | {rng.choice([-1, 1])*rng.randint(1, top)
                               for _ in range(rng.randint(0, 3))})
            argv = ["energy", "--z", str(z), "--n", *map(str, ns),
                    "--k", *map(str, ks),
                    "--units", rng.choice(("mc2", "ev"))]
        elif sub in ("density", "probability"):
            argv = [sub, "--z", str(z), "--n", str(n), "--k", str(k),
                    "--mj", repr(mj)]
            if sub == "density":
                argv += cli_density_grid(n, k, z)
            elif rng.random() < 0.5:
                r_hi = rng.uniform(0.1, 2.0)*n*n/z
                argv += ["--r-hi", repr(r_hi)]
        elif sub == "spinor":
            argv = ["spinor", "--k", str(k), "--mj", repr(mj),
                    "--theta", repr(rng.uniform(0.0, math.pi)),
                    "--phi", repr(rng.uniform(0.0, 2*math.pi))]
        else:
            argv = ["rotate", "--axis", rng.choice("xyz"),
                    "--angle", repr(rng.uniform(-2*math.pi, 2*math.pi)),
                    "--target", rng.choice(("Sx", "Sy", "Sz"))]
        ops.append(argv)
    return ops


def check_cli(argv: list[str], code: int, stdout: bytes):
    """Why a CLI call failed, or None."""
    if code != 0:
        return f"exit code {code}"
    try:
        rec = json.loads(stdout)
    except ValueError:
        return "stdout is not valid JSON"
    try:
        return _check_record(argv, rec)
    except (KeyError, TypeError, IndexError) as exc:
        return f"malformed record: {exc!r}"


def _check_record(argv, rec):
    sub = argv[0]
    if sub == "energy":
        z = int(argv[argv.index("--z") + 1])
        scale = MC2_EV if rec["units"] == "eV" else 1.0
        for row in rec["rows"]:
            n, k = row["n"], row["k"]
            if not state_valid(n, k, z):
                if "error" not in row:
                    return f"invalid (n={n}, k={k}) got no error row"
                continue
            want = sommerfeld(n, k, z)*scale
            if abs(row["energy"] - want) > 1e-12*abs(want):
                return (f"energy(n={n}, k={k}) = {row['energy']!r}, "
                        f"Sommerfeld {want!r}")
    elif sub == "density":
        dev = abs(rec["grid_integral"] - 1.0)
        if dev > TOL:
            return f"|grid_integral - 1| = {dev:.3e} > {TOL:g}"
    elif sub == "probability":
        p = rec["probability"]
        if "--r-hi" not in argv:
            if abs(p - 1.0) > TOL:
                return f"|P(0, inf) - 1| = {abs(p - 1.0):.3e} > {TOL:g}"
        elif not 0.0 <= p <= 1.0 + TOL:
            return f"shell probability {p!r} outside [0, 1]"
    elif sub == "spinor":
        total = rec["p_up"] + rec["p_down"]
        if abs(total - rec["density"]) > 1e-12*max(1.0, abs(total)):
            return (f"p_up + p_down = {total!r} != density "
                    f"{rec['density']!r}")
    elif sub == "rotate":
        dev = rec["closed_form_deviation"]
        if not dev <= ROTATE_TOL:
            return f"closed_form_deviation {dev!r} > {ROTATE_TOL:g}"
    elif sub == "verify":
        summary = rec["summary"]
        # later work may add checks; all of them must pass
        if summary["total"] < 49 or summary["passed"] != summary["total"]:
            return (f"verify {summary['passed']}/{summary['total']} "
                    f"checks passed")
    return None


def worst_dev_ratio(rec: dict) -> float:
    """max over checks of max_dev/tol in a verify report."""
    return max(c["max_dev"]/c["tol"] for c in rec["checks"])


class CliMix:
    name = "cli-mix"
    in_process = False

    def __init__(self, seed: int):
        self.ops = cli_ops(seed)

    def setup(self):
        # one untimed call fills the page and bytecode caches
        _, code, _ = run_quatspin(["energy"])
        if code != 0:
            raise SystemExit(f"error: warm-up `quatspin energy` exited {code}")

    def describe(self, i: int):
        return self.ops[i]

    def run_op(self, i: int, tracer=None):
        argv = self.ops[i]
        dt, code, out = run_quatspin(argv, tracer, "op.cli-mix")
        return dt, check_cli(argv, code, out)


class VerifyAll:
    """Not declared in BENCHMARK.json: at 6-10 s per call a run holds 3-5
    calls, too few to be steady while the shared host's speed drifts."""

    name = "verify-all"
    in_process = False

    def __init__(self, seed: int):
        self.ops = [["verify", "--suite", "all", "--seed", str(seed)]]
        self.first_stdout = None
        self.worst_dev_ratio = None

    setup = CliMix.setup
    describe = CliMix.describe

    def run_op(self, i: int, tracer=None):
        argv = self.ops[i]
        dt, code, out = run_quatspin(argv, tracer, "op.verify-all")
        reason = check_cli(argv, code, out)
        if reason is None:
            if self.first_stdout is None:
                self.first_stdout = out
                self.worst_dev_ratio = worst_dev_ratio(json.loads(out))
            elif out != self.first_stdout:
                reason = "stdout differs from the first run with this seed"
        return dt, reason


# ------------------------------------------------------------- state-sweep

def sweep_ops(seed: int) -> list[dict]:
    """States for one pass, each with a shell split radius and density points.

    The n = 1..N_MAX ladder plus SWEEP_EXTRA_NS values of n drawn by stratified
    sampling of the 1/n weights.  Each n gets SWEEP_K_STRATA states, one
    with |k| drawn from each equal part of 1..n, and Z runs through a
    shuffled {1, 20, 50, 92} every four states.  The cost of a state grows
    with n - |k| and with Z, so this keeps the cost mix of a pass, its tail
    included, nearly the same for every seed while every valid state stays
    reachable.
    """
    rng = random.Random(f"state-sweep:{seed}")
    cdf = list(itertools.accumulate(_N_WEIGHTS))
    extra = [1 + bisect.bisect_left(
                 cdf, (i + rng.random())/SWEEP_EXTRA_NS*cdf[-1])
             for i in range(SWEEP_EXTRA_NS)]
    pairs = []
    for n in list(range(1, N_MAX + 1)) + extra:
        for j in range(SWEEP_K_STRATA):
            u = (j + rng.random())/SWEEP_K_STRATA
            kabs = min(n, 1 + int(u*n))
            pairs.append((n, -kabs if kabs == n else rng.choice((-1, 1))*kabs))
    rng.shuffle(pairs)
    zs = []
    while len(zs) < len(pairs):
        zs += rng.sample(ZS, len(ZS))
    ops = []
    for (n, k), z in zip(pairs, zs):
        two_j = 2*abs(k) - 1
        st = {"n": n, "k": k, "mj": rng.choice(range(-two_j, two_j + 1, 2))/2,
              "z": z}
        scale = n*n/z              # Bohr; the orbit radius grows like n^2/Z
        st["r_split"] = rng.uniform(0.2, 1.5)*scale
        st["points"] = [[rng.uniform(0.05, 2.0)*scale,
                         math.acos(rng.uniform(-1.0, 1.0)),
                         rng.uniform(0.0, 2*math.pi)]
                        for _ in range(POINTS_PER_STATE)]
        ops.append(st)
    return ops


def state_grid(n: int, C: float):
    """Gauss-Legendre (r, theta) grid sized to the state.

    r = r_max t^2 with Gauss-Legendre nodes in t: the squared map smooths
    the r^(2s) behaviour at the origin (s < 1 for |k| = 1 at high Z).
    r_max = (2n + 40)/C in natural units covers the outermost node plus a
    decay margin; theta needs n + 2 nodes for the degree-2l harmonics.
    Returns R, THETA and the cell weights 2 pi r^2 w_r w_theta.
    """
    import numpy as np
    r_max = (2*n + 40)/C*ALPHA_FS
    t, wt = np.polynomial.legendre.leggauss(48 + 6*n)
    t, wt = 0.5*(t + 1.0), 0.5*wt
    r, wr = r_max*t*t, 2.0*r_max*t*wt
    x, wx = np.polynomial.legendre.leggauss(max(8, n + 2))
    R, TH = np.meshgrid(r, np.arccos(x), indexing="ij")
    return R, TH, 2*math.pi*R*R*np.outer(wr, wx)


class StateSweep:
    name = "state-sweep"
    in_process = True

    def __init__(self, seed: int):
        self.ops = sweep_ops(seed)

    def setup(self):
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        import numpy as np
        from quatspin import hydrogen as hy
        self.hy, self.np = hy, np
        self.prepared = []
        for st in self.ops:
            qn = hy.QuantumNumbers(st["n"], st["k"], st["mj"], st["z"])
            _, C, _ = hy.radial_parameters(qn)
            pts = np.array(st["points"])
            self.prepared.append((qn, *state_grid(st["n"], C),
                                  pts[:, 0], pts[:, 1]))

    def describe(self, i: int):
        return {key: self.ops[i][key] for key in ("n", "k", "mj", "z")}

    def run_op(self, i: int, tracer=None):
        hy, np = self.hy, self.np
        st = self.ops[i]
        qn, R, TH, cell, pr, pth = self.prepared[i]
        t0 = time.perf_counter()
        with (tracer.span("op.state-sweep") if tracer
              else contextlib.nullcontext()):
            out = self._state(qn, R, TH, st)
        dt = time.perf_counter() - t0
        w, dens, p_in, p_out, p_all, point = out
        grid_dev = abs(float(np.sum(dens*cell)) - 1.0)
        shell_dev = abs(p_in + p_out - 1.0)
        full_dev = abs(p_all - 1.0)
        devs = (f"|grid - 1| = {grid_dev:.3e}, |shells - 1| = "
                f"{shell_dev:.3e}, |P(0, inf) - 1| = {full_dev:.3e}")
        if full_dev > TOL or grid_dev > TOL or shell_dev > TOL:
            return dt, devs
        ref = w.density_grid(pr, pth)
        point = np.array(point)
        pt_dev = float(np.max(np.abs(point - ref)))/max(float(ref.max()),
                                                         1e-300)
        if pt_dev > 1e-10 or point.min() < 0.0:
            return dt, (f"point density vs grid route: relative "
                        f"{pt_dev:.3e}, min {point.min():.3e}")
        return dt, None

    def _state(self, qn, R, TH, st):
        hy = self.hy
        w = hy.assemble_wavefunction(qn)
        dens = w.density_grid(R, TH)
        p_in = hy.probability_in_region(w, 0.0, st["r_split"])
        p_out = hy.probability_in_region(w, st["r_split"], math.inf)
        p_all = hy.probability_in_region(w, 0.0, math.inf)
        point = [w.density(r, th, ph) for r, th, ph in st["points"]]
        return w, dens, p_in, p_out, p_all, point


WORKLOADS = {w.name: w for w in (CliMix, VerifyAll, StateSweep)}
