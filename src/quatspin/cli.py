"""Command-line front end.

Subcommands: energy (level tables), density ((r, theta) grids), probability
(shell integrals), spinor (angular-state evaluation), rotate (operator
conjugation), verify (the identity-check suites).  Output is JSON by default,
CSV with --csv; floats are emitted as shortest-round-trip decimal strings, so
identical invocations produce byte-identical output.  Timing goes to stderr
only.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

import numpy as np

from . import hydrogen as hy
from . import spin as sp
from . import verify as vf
from .biquaternion import max_dev
from .special import gauss_legendre_nodes
from .spinor import SpinorFunction, spinor_as_biquaternion, spinor_as_vector

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here reserves 2 for
    domain errors, so usage problems are remapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    """argparse type for every float flag: NaN and infinities are usage
    errors."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return x


def _emit_json(record: dict) -> None:
    sys.stdout.write(json.dumps(record, indent=2, allow_nan=False))
    sys.stdout.write("\n")


def _emit_csv(rows: list[dict], fields: list[str]) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _csv_cell(row.get(k)) for k in fields})
    sys.stdout.write(buf.getvalue())


def _csv_cell(x):
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, bool):
        return str(x).lower()
    return x


def _cpair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _coeff_pairs(q) -> list[list[float]]:
    return [_cpair(c) for c in q.coefficients()]


# ------------------------------------------------------------------ energy

def _cmd_energy(args, parser) -> int:
    if args.z < 1:
        parser.error("--z must be a positive integer")
    rows = []
    n_valid = 0
    for n in args.n:
        for k in args.k:
            row = {"n": n, "k": k}
            try:
                qn = hy.QuantumNumbers(n, k, 0.5, args.z)
            except ValueError as exc:
                row["error"] = str(exc)
                rows.append(row)
                continue
            E = hy.energy(qn)
            s, C, _ = hy.radial_parameters(qn)
            scale = hy.MC2_EV if args.units == "ev" else 1.0
            row.update({"j": float(qn.j), "energy": float(E*scale),
                        "binding": float((E - 1.0)*scale),
                        "s": float(s), "C": float(C)})
            rows.append(row)
            n_valid += 1
    record = {
        "command": "energy",
        "params": {"z": args.z, "n": list(args.n), "k": list(args.k)},
        "units": "eV" if args.units == "ev" else "mc2",
        "rows": rows,
    }
    if args.csv:
        fields = ["n", "k", "j", "energy", "binding", "s", "C", "error"]
        _emit_csv(rows, fields)
    else:
        _emit_json(record)
    if n_valid == 0:
        print("error: no valid (n, k) rows", file=sys.stderr)
        return 2
    return 0


# ----------------------------------------------------------------- density

def _parse_grid(spec: str, parser) -> tuple[int, int]:
    try:
        nr_s, nt_s = spec.split(":")
        nr, nt = int(nr_s), int(nt_s)
    except ValueError:
        parser.error(f"--grid expects R:THETA counts, got {spec!r}")
    if nr < 4 or nt < 4:
        parser.error("--grid counts must be at least 4")
    return nr, nt


def _state_or_usage(args, parser) -> hy.QuantumNumbers:
    try:
        return hy.QuantumNumbers(args.n, args.k, args.mj, args.z)
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_density(args, parser) -> int:
    n_r, n_theta = _parse_grid(args.grid, parser)
    qn = _state_or_usage(args, parser)
    w = hy.assemble_wavefunction(qn)
    r_max = args.r_max if args.r_max is not None \
        else 40.0/w.C*hy.ALPHA_FS
    if r_max <= 0:
        parser.error("--r-max must be positive")
    r, wr = gauss_legendre_nodes(n_r, 0.0, r_max)
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    order = np.argsort(-x)                  # theta ascending
    theta, wx = np.arccos(x[order]), wx[order]
    R, TH = np.meshgrid(r, theta, indexing="ij")
    dens = w.density_grid(R, TH)
    cell = 2.0*math.pi*R*R*np.outer(wr, wx)
    total = float(np.sum(dens*cell))
    rows = [{"r": float(R[i, j]), "theta": float(TH[i, j]),
             "density": float(dens[i, j]), "cell_weight": float(cell[i, j])}
            for i in range(n_r) for j in range(n_theta)]
    record = {
        "command": "density",
        "params": {"z": qn.Z, "n": qn.n, "k": qn.k, "mj": qn.m_j,
                   "grid": f"{n_r}:{n_theta}", "r_max": float(r_max)},
        "units": {"r": "Bohr", "theta": "rad", "density": "per Bohr^3"},
        "energy_mc2": float(w.energy),
        "grid_integral": total,
        "rows": rows,
    }
    if args.csv:
        _emit_csv(rows, ["r", "theta", "density", "cell_weight"])
    else:
        _emit_json(record)
    return 0


# ------------------------------------------------------------- probability

def _cmd_probability(args, parser) -> int:
    if not (0.0 <= args.r_lo < args.r_hi):
        parser.error("need 0 <= --r-lo < --r-hi")
    qn = _state_or_usage(args, parser)
    w = hy.assemble_wavefunction(qn)
    p, err = hy.probability_in_region(w, args.r_lo, args.r_hi,
                                      return_error=True)
    record = {
        "command": "probability",
        "params": {"z": qn.Z, "n": qn.n, "k": qn.k, "mj": qn.m_j,
                   "r_lo": float(args.r_lo),
                   "r_hi": ("inf" if math.isinf(args.r_hi)
                            else float(args.r_hi))},
        "units": {"r": "Bohr", "probability": "dimensionless"},
        "probability": float(p),
        "quadrature_error": float(err),
    }
    if args.csv:
        _emit_csv([{"r_lo": record["params"]["r_lo"],
                    "r_hi": record["params"]["r_hi"],
                    "probability": record["probability"],
                    "quadrature_error": record["quadrature_error"]}],
                  ["r_lo", "r_hi", "probability", "quadrature_error"])
    else:
        _emit_json(record)
    return 0


# ------------------------------------------------------------------ spinor

def _cmd_spinor(args, parser) -> int:
    k = args.k
    if k == 0:
        parser.error("--k must be a nonzero integer")
    l = hy.l_of_k(k)
    j = abs(k) - 0.5
    try:
        s = SpinorFunction(l, j, args.mj)
    except ValueError as exc:
        parser.error(str(exc))
    th, ph = args.theta, args.phi
    vec = spinor_as_vector(s, th, ph)
    q = spinor_as_biquaternion(s, th, ph)
    p_up, p_dn = abs(vec[0])**2, abs(vec[1])**2
    record = {
        "command": "spinor",
        "params": {"k": k, "mj": float(args.mj),
                   "theta": float(th), "phi": float(ph)},
        "l": l,
        "j": float(j),
        "coefficients": {"c1": float(s.c1), "c2": float(s.c2)},
        "component_up": _cpair(vec[0]),
        "component_down": _cpair(vec[1]),
        "biquaternion": _coeff_pairs(q),
        "p_up": float(p_up),
        "p_down": float(p_dn),
        "density": float(p_up + p_dn),
    }
    if args.csv:
        row = {"l": l, "j": float(j), "mj": float(args.mj), "theta": float(th),
               "phi": float(ph), "c1": float(s.c1), "c2": float(s.c2),
               "up_re": record["component_up"][0],
               "up_im": record["component_up"][1],
               "down_re": record["component_down"][0],
               "down_im": record["component_down"][1],
               "p_up": float(p_up), "p_down": float(p_dn),
               "density": float(p_up + p_dn)}
        _emit_csv([row], list(row))
    else:
        _emit_json(record)
    return 0


# ------------------------------------------------------------------ rotate

def _parse_axis(text: str, parser):
    """A named axis ('x', 'y', 'z') as is, or nx,ny,nz as a unit 3-tuple."""
    if text in ("x", "y", "z"):
        return text
    parts = text.split(",")
    if len(parts) != 3:
        parser.error(f"--axis expects x, y, z, or nx,ny,nz; got {text!r}")
    try:
        v = np.array([_finite_float(p) for p in parts])
    except argparse.ArgumentTypeError:
        parser.error(f"--axis components must be finite numbers, got {text!r}")
    norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        parser.error("--axis must be a nonzero vector")
    v = v/norm
    return (float(v[0]), float(v[1]), float(v[2]))


def _cmd_rotate(args, parser) -> int:
    target = args.target.lower().lstrip("s")
    if target not in ("x", "y", "z"):
        parser.error(f"--target expects Sx, Sy, or Sz; got {args.target!r}")
    axis = _parse_axis(args.axis, parser)
    D = sp.rotation(axis, args.angle)
    S = sp.spin_operator(target)
    rotated = sp.rotate_operator(D, S)
    record = {
        "command": "rotate",
        "params": {"axis": [float(c) for c in D.axis],
                   "angle": float(args.angle),
                   "target": f"S{target}"},
        "units": {"angle": "rad", "operator": "hbar = 1"},
        "rotation": _coeff_pairs(D.value),
        "rotated_operator": _coeff_pairs(rotated),
    }
    if isinstance(axis, str):
        closed = sp.rotated_pauli(axis, target, args.angle)*(sp.HBAR/2)
        record["closed_form"] = _coeff_pairs(closed)
        record["closed_form_deviation"] = float(max_dev(rotated, closed))
    if args.csv:
        rows = []
        labels = ("e0", "e1", "e2", "e3")
        for i, lab in enumerate(labels):
            rows.append({"coefficient": lab,
                         "rotation_re": record["rotation"][i][0],
                         "rotation_im": record["rotation"][i][1],
                         "rotated_re": record["rotated_operator"][i][0],
                         "rotated_im": record["rotated_operator"][i][1]})
        _emit_csv(rows, ["coefficient", "rotation_re", "rotation_im",
                         "rotated_re", "rotated_im"])
    else:
        _emit_json(record)
    return 0


# ------------------------------------------------------------------ verify

def _cmd_verify(args, parser) -> int:
    t0 = time.monotonic()
    try:
        results = vf.run_suite(args.suite, seed=args.seed,
                               tol_scale=args.tol)
    except KeyError as exc:
        parser.error(str(exc.args[0]))
    elapsed = time.monotonic() - t0
    checks = [{"name": r.name, "suite": r.suite, "max_dev": float(r.max_dev),
               "tol": float(r.tol), "passed": r.passed, "detail": r.detail}
              for r in results]
    n_fail = sum(not r.passed for r in results)
    record = {
        "command": "verify",
        "params": {"suite": args.suite, "seed": args.seed,
                   "tol": float(args.tol)},
        "checks": checks,
        "summary": {"total": len(results), "passed": len(results) - n_fail,
                    "failed": n_fail},
    }
    if args.csv:
        _emit_csv(checks, ["name", "suite", "max_dev", "tol", "passed",
                           "detail"])
    else:
        _emit_json(record)
    print(f"verify: {len(results) - n_fail}/{len(results)} checks passed "
          f"in {elapsed:.2f} s", file=sys.stderr)
    if args.suite == "all" and elapsed > 60.0:
        print("warning: full suite exceeded the 60 s budget", file=sys.stderr)
    return 3 if n_fail else 0


# ------------------------------------------------------------------ parser

def _add_state_flags(p, with_mj=True):
    p.add_argument("--z", type=int, default=1, help="nuclear charge (int >= 1)")
    p.add_argument("--n", type=int, default=1, help="principal quantum number")
    p.add_argument("--k", type=int, default=-1,
                   help="Dirac quantum number (nonzero int)")
    if with_mj:
        p.add_argument("--mj", type=_finite_float, default=0.5,
                       help="total angular momentum projection (half-odd)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quatspin",
                     description="Biquaternion spin-1/2 toolkit: energy "
                                 "tables, densities, spinors, rotations, and "
                                 "identity verification.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("energy", help="relativistic level table over "
                                      "(n, k) ranges")
    p.add_argument("--z", type=int, default=1, help="nuclear charge")
    p.add_argument("--n", type=int, nargs="+", default=[1, 2, 3],
                   help="principal quantum numbers")
    p.add_argument("--k", type=int, nargs="+", default=[-1, 1, -2, 2],
                   help="Dirac quantum numbers")
    p.add_argument("--units", type=str.lower, choices=["mc2", "ev"],
                   default="mc2", help="energy units (fraction of rest "
                                       "energy, or electron-volts)")
    p.add_argument("--csv", action="store_true", help="CSV instead of JSON")
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("density", help="probability density on an "
                                       "(r, theta) grid, phi-averaged")
    _add_state_flags(p)
    p.add_argument("--grid", default="64:32",
                   help="R:THETA node counts (Gauss-Legendre), default 64:32")
    p.add_argument("--r-max", type=_finite_float, default=None,
                   help="radial extent in Bohr (default: scaled to the state)")
    p.add_argument("--csv", action="store_true", help="CSV instead of JSON")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("probability", help="probability in a radial shell")
    _add_state_flags(p)
    p.add_argument("--r-lo", type=_finite_float, default=0.0,
                   help="inner radius in Bohr")
    # inf is allowed; NaN fails the 0 <= r_lo < r_hi check
    p.add_argument("--r-hi", type=float, default=math.inf,
                   help="outer radius in Bohr (inf allowed)")
    p.add_argument("--csv", action="store_true", help="CSV instead of JSON")
    p.set_defaults(func=_cmd_probability)

    p = sub.add_parser("spinor", help="evaluate a spin spherical harmonic")
    p.add_argument("--k", type=int, default=-1,
                   help="Dirac quantum number (encodes l and j)")
    p.add_argument("--mj", type=_finite_float, default=0.5,
                   help="total angular momentum projection")
    p.add_argument("--theta", type=_finite_float, default=1.0,
                   help="polar angle in radians")
    p.add_argument("--phi", type=_finite_float, default=0.0,
                   help="azimuthal angle in radians")
    p.add_argument("--csv", action="store_true", help="CSV instead of JSON")
    p.set_defaults(func=_cmd_spinor)

    p = sub.add_parser("rotate", help="conjugate a spin operator by a "
                                      "rotation")
    p.add_argument("--axis", default="z",
                   help="rotation axis: x, y, z, or nx,ny,nz")
    p.add_argument("--angle", type=_finite_float, required=True,
                   help="rotation angle in radians")
    p.add_argument("--target", default="Sz",
                   help="operator to rotate: Sx, Sy, or Sz")
    p.add_argument("--csv", action="store_true", help="CSV instead of JSON")
    p.set_defaults(func=_cmd_rotate)

    p = sub.add_parser("verify", help="run the identity-check suites")
    p.add_argument("--suite", default="all",
                   help="algebra, spin, rotation, spinor, hydrogen, dirac, "
                        "or all")
    p.add_argument("--seed", type=int, default=12345,
                   help="seed for randomized checks (fixed seed gives "
                        "byte-identical reports)")
    p.add_argument("--tol", type=_finite_float, default=1.0,
                   help="tolerance multiplier applied to every check")
    p.add_argument("--csv", action="store_true", help="CSV instead of JSON")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
