"""Command-line front end.

Subcommands: energy (level tables), density ((r, theta) grids), probability
(shell integrals), spinor (angular-state evaluation), rotate (operator
conjugation), verify (the identity-check suites).  Every subcommand writes
through _emit (density through its row-template twin, _emit_density): JSON
by default, CSV with --csv; floats are emitted as shortest-round-trip
decimal strings, so identical invocations produce byte-identical output; a
NaN or infinite result is refused by both writers (exit 2, empty stdout).
Timing goes to stderr only.  Building the parser imports nothing numeric;
each subcommand imports the modules it runs.  energy, spinor and rotate
never load numpy; density and probability run node by node on Python
floats unless numpy is loaded already or the call would cost more than
importing it (hydrogen._on_floats), so of the subcommands only verify,
and density or probability above that bound, load numpy.

Exit codes: 0 success, 1 usage error or a stdout that failed (a closed pipe
exits quietly), 2 domain error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import operator
import os
import sys
import time

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


def _seed(text: str) -> int:
    """argparse type of --seed: numpy's generators take integers >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _emit(args, record: dict, rows: list[dict], fields=None) -> None:
    """Write record as JSON, or with --csv the rows as CSV: the columns are
    fields (default: the first row's keys), and a row's other keys are
    left out."""
    if not args.csv:
        sys.stdout.write(json.dumps(record, indent=2, allow_nan=False))
        sys.stdout.write("\n")
        return
    import csv
    fields = fields or list(rows[0])
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _csv_cell(row.get(k)) for k in fields})
    sys.stdout.write(buf.getvalue())


def _csv_cell(x):
    if isinstance(x, float):
        if not math.isfinite(x):    # refused as the JSON writer refuses it
            raise ValueError(
                f"Out of range float values are not CSV compliant: {x!r}")
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
    from .levels import MC2_EV, QuantumNumbers, _level
    if args.z < 1:
        parser.error("--z must be a positive integer")
    scale = MC2_EV if args.units == "ev" else 1.0
    rows = []
    for n in args.n:
        for k in args.k:
            row = {"n": n, "k": k}
            try:
                qn = QuantumNumbers(n, k, 0.5, args.z)
                lv = _level(qn)
            except ValueError as exc:
                row["error"] = str(exc)
                rows.append(row)
                continue
            row.update({"j": float(qn.j), "energy": float(lv.E*scale),
                        "binding": float(-lv.eps*scale),
                        "s": float(lv.s), "C": float(lv.C)})
            rows.append(row)
    record = {
        "command": "energy",
        "params": {"z": args.z, "n": list(args.n), "k": list(args.k)},
        "units": "eV" if args.units == "ev" else "mc2",
        "rows": rows,
    }
    _emit(args, record, rows,
          ["n", "k", "j", "energy", "binding", "s", "C", "error"])
    if all("error" in row for row in rows):
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


def _state_or_usage(args, parser):
    from .levels import QuantumNumbers
    try:
        return QuantumNumbers(args.n, args.k, args.mj, args.z)
    except ValueError as exc:
        parser.error(str(exc))


_DENSITY_JSON_ROW = ('    {\n      "r": %s,\n      "theta": %s,\n'
                     '      "density": %s,\n      "cell_weight": %s\n    }')


def _emit_density(record: dict, r: list, theta: list, dens: list,
                  cell: list, as_csv: bool) -> None:
    """Write the density record with one row per (r, theta) node, r outer,
    from lists of Python floats (dens and cell flat, r outer): the bytes of
    json.dumps(record + rows, indent=2) + "\n", or of _emit's CSV.  Each r,
    each theta and each density and cell weight is formatted once with
    repr, the shortest round-trip digits both encoders emit, into a fixed
    row template; nothing is written before every value has passed the
    finiteness check."""
    if as_csv:
        head, row, sep, tail = ("r,theta,density,cell_weight\n",
                                "%s,%s,%s,%s", "\n", "\n")
    else:
        # json.dumps checks the header's floats; "rows" is the last key, so
        # the rows go in before the closing brace
        head = (json.dumps(record, indent=2, allow_nan=False)[:-2]
                + ',\n  "rows": [\n')
        row, sep, tail = _DENSITY_JSON_ROW, ",\n", "\n  ]\n}\n"
    finite = math.isfinite
    if not (all(map(finite, dens)) and all(map(finite, cell))):
        # the first value either encoder would refuse
        x = next(x for pair in zip(dens, cell) for x in pair
                 if not finite(x))
        raise ValueError("Out of range float values are not "
                         f"{'CSV' if as_csv else 'JSON'} compliant: {x!r}")
    n_theta = len(theta)
    r_col = [s for x in r for s in (repr(x),)*n_theta]
    theta_col = list(map(repr, theta))*len(r)
    cols = zip(r_col, theta_col, map(repr, dens), map(repr, cell))
    sys.stdout.write(head + sep.join(map(row.__mod__, cols)))
    # the closing bytes get a write of their own: an unbuffered stdout
    # (python -u) drops the rest of a write cut short by a reader that quit,
    # and reports the broken pipe only on the next write
    sys.stdout.write(tail)


def _cmd_density(args, parser) -> int:
    from . import hydrogen as hy
    from .levels import ALPHA_FS
    from .special import gauss_legendre_nodes, leggauss
    grid = _parse_grid(args.grid, parser) if args.grid is not None else None
    qn = _state_or_usage(args, parser)
    w = hy.assemble_wavefunction(qn)
    # defaults sized to the state: the outermost Laguerre node lies near
    # rho = 2n, and theta needs n + 2 nodes for the degree-2l harmonics
    n_r, n_theta = grid or (max(128, 48 + 6*qn.n), max(32, qn.n + 2))
    r_max = args.r_max if args.r_max is not None \
        else (2*qn.n + 40.0)/w.C*ALPHA_FS
    if r_max <= 0:
        parser.error("--r-max must be positive")
    r, wr = gauss_legendre_nodes(n_r, 0.0, r_max)
    x, wx = leggauss(n_theta)
    theta, wx = [math.acos(t) for t in reversed(x)], wx[::-1]  # ascending
    # the point density's real kernel, which no phi enters, at every node;
    # past the float range (a huge --r-max, or n >= 335 at k = -1, Z = 1)
    # these overflow, and the writer refuses the result with one line
    dens = w._density_table(r, theta)
    cell = [2.0*math.pi*a*a*(b*c) for a, b in zip(r, wr) for c in wx]
    total = sum(map(operator.mul, dens, cell))
    record = {
        "command": "density",
        "params": {"z": qn.Z, "n": qn.n, "k": qn.k, "mj": qn.m_j,
                   "grid": f"{n_r}:{n_theta}", "r_max": float(r_max)},
        "units": {"r": "Bohr", "theta": "rad", "density": "per Bohr^3"},
        "energy_mc2": float(w.energy),
        "grid_integral": total,
    }
    _emit_density(record, r, theta, dens, cell, args.csv)
    if abs(total - 1.0) > 1e-6:
        print(f"warning: grid_integral = {total!r} misses 1 by more than "
              f"1e-6; enlarge --grid or --r-max", file=sys.stderr)
    return 0


# ------------------------------------------------------------- probability

def _cmd_probability(args, parser) -> int:
    from . import hydrogen as hy
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
    _emit(args, record, [{**record["params"], **record}],
          ["r_lo", "r_hi", "probability", "quadrature_error"])
    return 0


# ------------------------------------------------------------------ spinor

def _cmd_spinor(args, parser) -> int:
    from .levels import l_of_k
    from .spinor import (SpinorFunction, spinor_as_biquaternion,
                         spinor_components)
    k = args.k
    if k == 0:
        parser.error("--k must be a nonzero integer")
    l = l_of_k(k)
    j = abs(k) - 0.5
    try:
        s = SpinorFunction(l, j, args.mj)
    except ValueError as exc:
        parser.error(str(exc))
    th, ph = args.theta, args.phi
    up, down = spinor_components(s, th, ph)
    q = spinor_as_biquaternion(s, th, ph)
    p_up, p_dn = abs(up)**2, abs(down)**2
    up, down = _cpair(up), _cpair(down)
    record = {
        "command": "spinor",
        "params": {"k": k, "mj": float(args.mj),
                   "theta": float(th), "phi": float(ph)},
        "l": l,
        "j": float(j),
        "coefficients": {"c1": float(s.c1), "c2": float(s.c2)},
        "component_up": up,
        "component_down": down,
        "biquaternion": _coeff_pairs(q),
        "p_up": float(p_up),
        "p_down": float(p_dn),
        "density": float(p_up + p_dn),
    }
    row = {**record, **record["params"], **record["coefficients"],
           "up_re": up[0], "up_im": up[1], "down_re": down[0],
           "down_im": down[1]}
    _emit(args, record, [row],
          ["l", "j", "mj", "theta", "phi", "c1", "c2", "up_re", "up_im",
           "down_re", "down_im", "p_up", "p_down", "density"])
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
        v = [_finite_float(p) for p in parts]
    except argparse.ArgumentTypeError:
        parser.error(f"--axis components must be finite numbers, got {text!r}")
    # scaled by a power of two so that the squares cannot overflow; the
    # scaling is exact, so the normalized digits do not change
    e = math.frexp(max(map(abs, v)))[1]
    v = [math.ldexp(c, -e) for c in v]
    norm = math.hypot(*v)
    if math.ldexp(norm, min(e, 0)) < 1e-12:
        parser.error("--axis must be a nonzero vector")
    return tuple(c/norm for c in v)


def _cmd_rotate(args, parser) -> int:
    from . import spin as sp
    from .biquaternion import max_dev
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
    _emit(args, record, [
        {"coefficient": f"e{i}", "rotation_re": a[0], "rotation_im": a[1],
         "rotated_re": b[0], "rotated_im": b[1]}
        for i, (a, b) in enumerate(zip(record["rotation"],
                                       record["rotated_operator"]))])
    return 0


# ------------------------------------------------------------------ verify

def _cmd_verify(args, parser) -> int:
    from . import verify as vf
    t0 = time.monotonic()
    try:
        results = vf.run_suite(args.suite, seed=args.seed)
    except KeyError as exc:
        parser.error(str(exc.args[0]))
    elapsed = time.monotonic() - t0
    # a NaN or infinite max_dev has failed its check; it is written as null
    # (an empty CSV cell)
    checks = [{"name": r.name, "suite": r.suite,
               "max_dev": r.max_dev if math.isfinite(r.max_dev) else None,
               "tol": float(r.tol), "passed": r.passed, "detail": r.detail}
              for r in results]
    n_fail = sum(not r.passed for r in results)
    record = {
        "command": "verify",
        "params": {"suite": args.suite, "seed": args.seed},
        "checks": checks,
        "summary": {"total": len(results), "passed": len(results) - n_fail,
                    "failed": n_fail},
    }
    _emit(args, record, checks)
    print(f"verify: {len(results) - n_fail}/{len(results)} checks passed "
          f"in {elapsed:.2f} s", file=sys.stderr)
    if args.suite == "all" and elapsed > 60.0:
        print("warning: full suite exceeded the 60 s budget", file=sys.stderr)
    return 3 if n_fail else 0


# ------------------------------------------------------------------ parser

def _add_state_flags(p):
    p.add_argument("--z", type=int, default=1, help="nuclear charge (int >= 1)")
    p.add_argument("--n", type=int, default=1, help="principal quantum number")
    p.add_argument("--k", type=int, default=-1,
                   help="Dirac quantum number (nonzero int)")
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
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("density", help="probability density on an "
                                       "(r, theta) grid (independent of phi)")
    _add_state_flags(p)
    p.add_argument("--grid", default=None,
                   help="R:THETA node counts (Gauss-Legendre), default "
                        "max(128, 48 + 6n):max(32, n + 2)")
    p.add_argument("--r-max", type=_finite_float, default=None,
                   help="radial extent in Bohr (default (2n + 40)/C in "
                        "natural units, scaled to the state)")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("probability", help="probability in a radial shell")
    _add_state_flags(p)
    p.add_argument("--r-lo", type=_finite_float, default=0.0,
                   help="inner radius in Bohr")
    # inf is allowed; NaN fails the 0 <= r_lo < r_hi check
    p.add_argument("--r-hi", type=float, default=math.inf,
                   help="outer radius in Bohr (inf allowed)")
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
    p.set_defaults(func=_cmd_spinor)

    p = sub.add_parser("rotate", help="conjugate a spin operator by a "
                                      "rotation")
    p.add_argument("--axis", default="z",
                   help="rotation axis: x, y, z, or nx,ny,nz")
    p.add_argument("--angle", type=_finite_float, required=True,
                   help="rotation angle in radians")
    p.add_argument("--target", default="Sz",
                   help="operator to rotate: Sx, Sy, or Sz")
    p.set_defaults(func=_cmd_rotate)

    p = sub.add_parser("verify", help="run the identity-check suites")
    p.add_argument("--suite", default="all",
                   help="algebra, spin, rotation, spinor, hydrogen, dirac, "
                        "or all")
    p.add_argument("--seed", type=_seed, default=12345,
                   help="seed for randomized checks, an integer >= 0 (fixed "
                        "seed gives byte-identical reports)")
    p.set_defaults(func=_cmd_verify)

    # added last, so that --csv ends each usage line and help listing; a
    # handler reports usage errors through its own subcommand's parser
    for p in sub.choices.values():
        p.add_argument("--csv", action="store_true",
                       help="CSV instead of JSON")
        p.set_defaults(parser=p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args, args.parser)
        sys.stdout.flush()      # a failing stdout fails here, not at exit
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # stdout was closed early (a reader such as `head` quit) or refused
        # the bytes (a full disk); the unwritten rest goes to the null
        # device so the interpreter's final flush stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
