"""Command-line front end.

Subcommands: energy (level tables), density ((r, theta) grids), probability
(shell integrals), spinor (angular-state evaluation), rotate (operator
conjugation), verify (the identity-check suites).  Every subcommand writes
through _emit (density through its block-template twin, _emit_density,
which writes the table in chunks of r values): JSON by default, CSV with
--csv; floats are emitted as shortest-round-trip decimal strings, so
identical invocations produce byte-identical output; a NaN or infinite
result is refused by both writers (exit 2, empty stdout).  Timing goes to
stderr only.

_COMMANDS is the one table of each subcommand's handler, help and flags.
build_parser makes the argparse parser from it, and _read turns a
well-formed argv into the namespace that parser would give.  _read declines
whatever argparse treats specially (help, `--flag=value`, abbreviations,
`--`, unknown or missing flags, extra or ill-typed values, and a token that
starts with "-" but is no negative number); main then falls back to
argparse, which alone writes help, usage and error text.  A handler raises
its own usage errors as _UsageError, which main reports through the
subcommand's parser, built only then.  JSON is written by _dumps, with the
bytes of json.dumps(record, indent=2, allow_nan=False); it hands json only
a string that needs escapes, and the CLI writes none.  So a well-formed call
loads neither argparse (nor the gettext and locale it loads) nor json;
help, a usage error and verify may.

The density is even under theta -> pi - theta and the polar nodes are
exact mirror pairs, so density evaluates the first ceil(n_theta/2) columns
alone; a column past them is its mirror's, whose values it shares, so each
distinct value is computed, checked, summed and formatted once.

Each subcommand imports the modules it runs.  energy loads levels alone,
and density and probability also hydrogen, special and spinor; of the
subcommands only spinor, rotate and verify load biquaternion and spin.
energy, spinor and rotate never load numpy, and density and probability
run node by node on Python floats (probability through
hydrogen._shell_probability with floats=True, where the library's
probability_in_region runs arrays), so of the subcommands only verify
loads numpy, and the bytes of each do not depend on what the process has
imported.

Exit codes: 0 success, 1 usage error or a stdout that failed (a closed pipe
exits quietly), 2 domain error, 3 verification failure.

main is the library entry: it parses argv, runs one subcommand and returns
its exit code, and callers may run it many times in one process.  run is
the process entry of `python -m quatspin` and the `quatspin` script: once
main has returned or raised SystemExit, it runs the atexit callbacks,
flushes stdout and stderr and ends the process with os._exit, so the
interpreter's module teardown and arena freeing are skipped.  Under a
profiler or tracer run returns main's code instead, so that the wrapper
(cProfile, trace, pdb) gets control back.  In-process callers use main.
"""

from __future__ import annotations

import io
import math
import operator
import os
import sys
import time
from types import SimpleNamespace

__all__ = ["main", "run", "build_parser"]


def _finite_float(text: str) -> float:
    """Type of every float flag: NaN and infinities are usage errors."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        import argparse
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return x


def _seed(text: str) -> int:
    """Type of --seed: numpy's generators take integers >= 0."""
    if not text.isdecimal():
        import argparse
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _json_str(s: str) -> str:
    """s as json writes a string by default: ASCII, with escapes.  Plain
    printable ASCII without quotes or backslashes is written as is; json
    escapes any other string."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    import json
    return json.dumps(s)


def _dumps(o, indent: str = "\n") -> str:
    """json.dumps(o, indent=2, allow_nan=False) for what a record holds
    (dicts with str keys, lists, tuples, str, int, float, bool, None): the
    same text, and the same ValueError for a NaN or infinity.  json runs
    its pure-Python encoder whenever indent is set, so this is no slower;
    indent is the newline and indentation that precede the closing
    bracket."""
    if isinstance(o, str):
        return _json_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError("Out of range float values are not JSON "
                             "compliant: " + repr(o))
        return float.__repr__(o)
    inner = indent + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        return ("{" + inner + ("," + inner).join(
            [_json_str(k) + ": " + _dumps(v, inner) for k, v in o.items()])
            + indent + "}")
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return ("[" + inner + ("," + inner).join([_dumps(v, inner) for v in o])
                + indent + "]")
    raise TypeError(f"Object of type {o.__class__.__name__} "
                    "is not JSON serializable")


def _emit(args, record: dict, rows: list[dict], fields=None) -> None:
    """Write record as JSON, or with --csv the rows as CSV: the columns are
    fields (default: the first row's keys), and a row's other keys are
    left out."""
    if not args.csv:
        sys.stdout.write(_dumps(record))
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


class _UsageError(Exception):
    """A usage error that a handler finds after parsing; main reports it
    through the subcommand's parser (exit 1).  Not a ValueError, which is a
    domain error (exit 2)."""


# ------------------------------------------------------------------ energy

def _cmd_energy(args) -> int:
    from .levels import MC2_EV, QuantumNumbers, _level
    if args.z < 1:
        raise _UsageError("--z must be a positive integer")
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

def _parse_grid(spec: str) -> tuple[int, int]:
    try:
        nr_s, nt_s = spec.split(":")
        nr, nt = int(nr_s), int(nt_s)
    except ValueError:
        raise _UsageError(f"--grid expects R:THETA counts, got {spec!r}")
    if nr < 4 or nt < 4:
        raise _UsageError("--grid counts must be at least 4")
    return nr, nt


def _state_or_usage(args):
    from .levels import QuantumNumbers
    try:
        return QuantumNumbers(args.n, args.k, args.mj, args.z)
    except ValueError as exc:
        raise _UsageError(str(exc))


_DENSITY_JSON_ROW = ('    {\n      "r": %s,\n      "theta": %s,\n'
                     '      "density": %s,\n      "cell_weight": %s\n    }')


# r values per write of the density table
_R_PER_WRITE = 64


def _emit_density(record: dict, r: list, theta: list, dens: list,
                  cell: list, as_csv: bool) -> None:
    """Write the density record with one row per (r, theta) node, r outer:
    the bytes of json.dumps(record + rows, indent=2) + "\n", or of _emit's
    CSV.  dens and cell are flat lists of Python floats, r outer, over the
    first h = ceil(len(theta)/2) thetas; column j >= h of the table is
    column len(theta) - 1 - j, its mirror about theta = pi/2, so each value
    is checked and formatted once.  Values are formatted with repr, the
    shortest round-trip digits both encoders emit.  The rows of one r form
    a block of a template made once per call, with each theta's text in
    it.  The table goes out _R_PER_WRITE r values per write, and nothing
    is written before every value has passed the finiteness check."""
    if as_csv:
        head, row, sep, tail = ("r,theta,density,cell_weight\n",
                                "%s,%s,%s,%s", "\n", "\n")
    else:
        # _dumps checks the header's floats; "rows" is the last key, so
        # the rows go in before the closing brace
        head = _dumps(record)[:-2] + ',\n  "rows": [\n'
        row, sep, tail = _DENSITY_JSON_ROW, ",\n", "\n  ]\n}\n"
    finite = math.isfinite
    if not (all(map(finite, dens)) and all(map(finite, cell))):
        # the first value either encoder would refuse
        x = next(x for pair in zip(dens, cell) for x in pair
                 if not finite(x))
        raise ValueError("Out of range float values are not "
                         f"{'CSV' if as_csv else 'JSON'} compliant: {x!r}")
    n_theta = len(theta)
    h = (n_theta + 1)//2
    block = sep.join([row % ("%s", t, "%s", "%s") for t in map(repr, theta)])
    stride = 3*n_theta
    # the first template starts with the head, which % must leave as is
    lead, templates = head.replace("%", "%%"), {}
    write = sys.stdout.write
    for i in range(0, len(r), _R_PER_WRITE):
        r_texts = list(map(repr, r[i:i + _R_PER_WRITE]))
        k = len(r_texts)
        args = [None]*(k*stride)
        for j in range(n_theta):
            args[3*j::stride] = r_texts
        # each row takes (r, density, cell weight) at offsets 0, 1, 2
        for at, values in ((1, dens), (2, cell)):
            texts = list(map(repr, values[i*h:(i + k)*h]))
            for j in range(n_theta):
                args[3*j + at::stride] = texts[min(j, n_theta - 1 - j)::h]
        if (lead, k) not in templates:
            templates[lead, k] = lead + sep.join([block]*k)
        write(templates[lead, k] % tuple(args))
        lead = sep
    # the closing bytes get a write of their own: an unbuffered stdout
    # (python -u) drops the rest of a write cut short by a reader that quit,
    # and reports the broken pipe only on the next write
    write(tail)


def _cmd_density(args) -> int:
    from . import hydrogen as hy
    from .levels import ALPHA_FS
    from .special import gauss_legendre_nodes, leggauss
    grid = _parse_grid(args.grid) if args.grid is not None else None
    qn = _state_or_usage(args)
    w = hy.assemble_wavefunction(qn)
    # defaults sized to the state: the outermost Laguerre node lies near
    # rho = 2n, and theta needs n + 2 nodes for the degree-2l harmonics
    n_r, n_theta = grid or (max(128, 48 + 6*qn.n), max(32, qn.n + 2))
    r_max = args.r_max if args.r_max is not None \
        else (2*qn.n + 40.0)/w.C*ALPHA_FS
    if r_max <= 0:
        raise _UsageError("--r-max must be positive")
    r, wr = gauss_legendre_nodes(n_r, 0.0, r_max)
    if r[0] == 0.0:
        raise _UsageError("--r-max is so small that a radial node rounds "
                          "to 0")
    # alpha/r scales the radial functions; where it overflows at the
    # innermost node, that node's densities are inf and grid_integral NaN
    if ALPHA_FS/r[0] == math.inf:
        raise _UsageError("--r-max is so small that alpha/r overflows at a "
                          "radial node")
    x, wx = leggauss(n_theta)
    theta = [math.acos(t) for t in reversed(x)]     # ascending
    # leggauss's nodes and weights are exact mirrors, and the density is
    # even under theta -> pi - theta, so the first h columns hold every
    # value of the table: the density's real kernel, which no phi enters,
    # and the cell weights 2 pi r^2 w_r w_theta, both r outer.  Past the
    # float range (a huge --r-max, or n >= 335 at k = -1, Z = 1) these
    # overflow, and the writer refuses the result with one line
    h = (n_theta + 1)//2
    dens = w._density_table(r, theta[:h])
    area = [2.0*math.pi*a*a for a in r]
    cell = [s*(b*c) for s, b in zip(area, wr) for c in wx[:h]]
    # a column stands for its mirror too; an odd n_theta's middle column
    # is its own mirror
    twice = ([2.0]*(n_theta//2) + [1.0]*(n_theta % 2))*n_r
    total = sum(map(operator.mul, map(operator.mul, dens, cell), twice))
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

def _cmd_probability(args) -> int:
    from . import hydrogen as hy
    if not (0.0 <= args.r_lo < args.r_hi):
        raise _UsageError("need 0 <= --r-lo < --r-hi")
    qn = _state_or_usage(args)
    w = hy.assemble_wavefunction(qn)
    # on Python floats, which load no numpy
    p, err = hy._shell_probability(w, args.r_lo, args.r_hi,
                                   return_error=True, floats=True)
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

def _cmd_spinor(args) -> int:
    from .levels import l_of_k
    from .spinor import (SpinorFunction, spinor_as_biquaternion,
                         spinor_components)
    k = args.k
    if k == 0:
        raise _UsageError("--k must be a nonzero integer")
    l = l_of_k(k)
    j = abs(k) - 0.5
    try:
        s = SpinorFunction(l, j, args.mj)
    except ValueError as exc:
        raise _UsageError(str(exc))
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

def _parse_axis(text: str):
    """A named axis ('x', 'y', 'z') as is, or nx,ny,nz as a unit 3-tuple."""
    if text in ("x", "y", "z"):
        return text
    parts = text.split(",")
    if len(parts) != 3:
        raise _UsageError(f"--axis expects x, y, z, or nx,ny,nz; got "
                          f"{text!r}")
    try:
        v = [float(p) for p in parts]
    except ValueError:
        v = [math.nan]
    if not all(map(math.isfinite, v)):
        raise _UsageError(f"--axis components must be finite numbers, got "
                          f"{text!r}")
    # scaled by a power of two so that the squares cannot overflow; the
    # scaling is exact, so the normalized digits do not change
    e = math.frexp(max(map(abs, v)))[1]
    v = [math.ldexp(c, -e) for c in v]
    norm = math.hypot(*v)
    if math.ldexp(norm, min(e, 0)) < 1e-12:
        raise _UsageError("--axis must be a nonzero vector")
    return tuple(c/norm for c in v)


def _cmd_rotate(args) -> int:
    from . import spin as sp
    from .biquaternion import max_dev
    target = args.target.lower().lstrip("s")
    if target not in ("x", "y", "z"):
        raise _UsageError(f"--target expects Sx, Sy, or Sz; got "
                          f"{args.target!r}")
    axis = _parse_axis(args.axis)
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

def _cmd_verify(args) -> int:
    from . import verify as vf
    t0 = time.monotonic()
    try:
        results = vf.run_suite(args.suite, seed=args.seed)
    except KeyError as exc:
        raise _UsageError(str(exc.args[0]))
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

# each subcommand's handler, help and flags; every flag's keywords go to
# argparse's add_argument as they are, and _read reads the same ones (type,
# default, nargs, which is "+" where given, choices, required and the
# store_true action).  --csv comes last, so that it ends each usage line
# and help listing.
_CSV = {"--csv": {"action": "store_true", "default": False,
                  "help": "CSV instead of JSON"}}

_STATE_FLAGS = {
    "--z": {"type": int, "default": 1, "help": "nuclear charge (int >= 1)"},
    "--n": {"type": int, "default": 1, "help": "principal quantum number"},
    "--k": {"type": int, "default": -1,
            "help": "Dirac quantum number (nonzero int)"},
    "--mj": {"type": _finite_float, "default": 0.5,
             "help": "total angular momentum projection (half-odd)"},
}

_COMMANDS = {
    "energy": (_cmd_energy, "relativistic level table over (n, k) ranges", {
        "--z": {"type": int, "default": 1, "help": "nuclear charge"},
        "--n": {"type": int, "nargs": "+", "default": [1, 2, 3],
                "help": "principal quantum numbers"},
        "--k": {"type": int, "nargs": "+", "default": [-1, 1, -2, 2],
                "help": "Dirac quantum numbers"},
        "--units": {"type": str.lower, "choices": ["mc2", "ev"],
                    "default": "mc2",
                    "help": "energy units (fraction of rest energy, or "
                            "electron-volts)"},
        **_CSV}),
    "density": (_cmd_density, "probability density on an (r, theta) grid "
                              "(independent of phi)", {
        **_STATE_FLAGS,
        "--grid": {"default": None,
                   "help": "R:THETA node counts (Gauss-Legendre), default "
                           "max(128, 48 + 6n):max(32, n + 2)"},
        "--r-max": {"type": _finite_float, "default": None,
                    "help": "radial extent in Bohr (default (2n + 40)/C in "
                            "natural units, scaled to the state)"},
        **_CSV}),
    "probability": (_cmd_probability, "probability in a radial shell", {
        **_STATE_FLAGS,
        "--r-lo": {"type": _finite_float, "default": 0.0,
                   "help": "inner radius in Bohr"},
        # inf is allowed; NaN fails the 0 <= r_lo < r_hi check
        "--r-hi": {"type": float, "default": math.inf,
                   "help": "outer radius in Bohr (inf allowed)"},
        **_CSV}),
    "spinor": (_cmd_spinor, "evaluate a spin spherical harmonic", {
        "--k": {"type": int, "default": -1,
                "help": "Dirac quantum number (encodes l and j)"},
        "--mj": {"type": _finite_float, "default": 0.5,
                 "help": "total angular momentum projection"},
        "--theta": {"type": _finite_float, "default": 1.0,
                    "help": "polar angle in radians"},
        "--phi": {"type": _finite_float, "default": 0.0,
                  "help": "azimuthal angle in radians"},
        **_CSV}),
    "rotate": (_cmd_rotate, "conjugate a spin operator by a rotation", {
        "--axis": {"default": "z",
                   "help": "rotation axis: x, y, z, or nx,ny,nz"},
        "--angle": {"type": _finite_float, "required": True,
                    "help": "rotation angle in radians"},
        "--target": {"default": "Sz",
                     "help": "operator to rotate: Sx, Sy, or Sz"},
        **_CSV}),
    "verify": (_cmd_verify, "run the identity-check suites", {
        "--suite": {"default": "all",
                    "help": "algebra, spin, rotation, spinor, hydrogen, "
                            "dirac, or all"},
        "--seed": {"type": _seed, "default": 12345,
                   "help": "seed for randomized checks, an integer >= 0 "
                           "(fixed seed gives byte-identical reports)"},
        **_CSV}),
}


def _parser_class():
    """argparse.ArgumentParser with usage errors remapped to exit code 1:
    argparse exits with 2 on bad usage, and the contract here reserves 2
    for domain errors.  A failed write of help to stdout raises, as any
    write of main does (argparse drops it), so that main's rule reports it.
    Made on call, so that only the help and error paths import argparse."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

        def _print_message(self, message, file=None):
            if file is sys.stdout:
                file.write(message)
            else:
                super()._print_message(message, file)

    return Parser


def _add_flags(parser, command: str) -> None:
    for flag, spec in _COMMANDS[command][2].items():
        parser.add_argument(flag, **spec)


def build_parser():
    """The argparse parser of every subcommand, made from _COMMANDS."""
    Parser = _parser_class()
    parser = Parser(prog="quatspin",
                    description="Biquaternion spin-1/2 toolkit: energy "
                                "tables, densities, spinors, rotations, and "
                                "identity verification.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=Parser)
    for command, (_, help_, _) in _COMMANDS.items():
        _add_flags(sub.add_parser(command, help=help_), command)
    return parser


def _is_value(token: str) -> bool:
    """Whether argparse takes token as a flag's value: it does not start
    with "-", or it is a negative number in ASCII digits, such as -5 or
    -.5.  (argparse also takes "-", a token with a space and other digits;
    _read leaves those to it.)"""
    body = token[1:]
    return token[:1] != "-" or (body.isascii() and body[-1:].isdigit()
                                and body.replace(".", "", 1).isdigit())


def _read(argv: list):
    """build_parser().parse_args(argv) for a well-formed argv, without
    argparse: a subcommand, then its flags spelled as in _COMMANDS, each
    with its values (a repeated flag's last values win, as in argparse).
    None for anything else, which argparse handles: help, `--flag=value`,
    an abbreviation, `--`, an unknown flag, a missing required flag, an
    extra value, a value that fails its type or choices, or a token that
    starts with "-" and is no negative number."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = _COMMANDS[argv[0]][2]
    given = {}
    i = 1
    while i < len(argv):
        flag, spec = argv[i], flags.get(argv[i])
        if spec is None:
            return None
        i += 1
        if spec.get("action") == "store_true":
            given[flag] = True
            continue
        end = i
        while end < len(argv) and _is_value(argv[end]):
            end += 1
        if end == i:
            return None
        if "nargs" not in spec:
            end = i + 1         # any further value is an extra one
        try:
            values = list(map(spec.get("type", str), argv[i:end]))
        except Exception:       # argparse reports a type's failure
            return None
        choices = spec.get("choices")
        if choices is not None and not all(v in choices for v in values):
            return None
        given[flag] = values if "nargs" in spec else values[0]
        i = end
    if any(spec.get("required") and flag not in given
           for flag, spec in flags.items()):
        return None
    return SimpleNamespace(command=argv[0], **{
        flag[2:].replace("-", "_"): given.get(flag, spec.get("default"))
        for flag, spec in flags.items()})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _read(argv) or build_parser().parse_args(argv)
        code = _COMMANDS[args.command][0](args)
        sys.stdout.flush()      # a failing stdout fails here, not at exit
    except _UsageError as exc:
        # as build_parser's subparser named "quatspin COMMAND" reports it
        parser = _parser_class()(prog=f"quatspin {args.command}")
        _add_flags(parser, args.command)
        parser.error(str(exc))
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # stdout was closed early (a reader such as `head` quit) or refused
        # the bytes (a full disk); the unwritten rest goes to the null
        # device so that the final flush stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def _watched() -> bool:
    """Whether a profiler or tracer watches this process: sys.setprofile or
    sys.settrace, or from Python 3.12 a sys.monitoring tool (cProfile)."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(map(monitoring.get_tool, range(6)))


def _flush_stdio() -> bool:
    """Flush stdout and stderr, and the streams they replaced, as the
    interpreter's final flush would; False if one failed.  A failing
    stdout follows main's rule: a closed pipe is quiet, any other error is
    one line on stderr."""
    ok = True
    err = (sys.stderr, sys.__stderr__)
    for stream in dict.fromkeys((sys.stdout, sys.__stdout__, *err)):
        if stream is None or getattr(stream, "closed", False):
            continue
        try:
            stream.flush()
        except OSError as exc:
            ok = False
            if stream not in err and not isinstance(exc, BrokenPipeError):
                try:
                    print(f"error: {exc}", file=sys.stderr)
                except OSError:
                    pass
    return ok


def run(argv=None) -> int:
    """main(argv) as a whole process.  However main ends (a return, an
    error, argparse's usage and help exits), the atexit callbacks then
    run, stdio is flushed and os._exit ends the process with main's code,
    or with 1 if the flush failed; the interpreter's teardown is skipped.
    Under a profiler or tracer it returns main's code instead.  Call main,
    not run, where the process goes on."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code             # argparse's help and usage exits
    if _watched():
        return code
    import atexit
    atexit._run_exitfuncs()
    os._exit(code if _flush_stdio() else 1)


if __name__ == "__main__":
    raise SystemExit(run())
