"""Relativistic one-electron atom: bound-state energies, radial functions,
quaternionic wavefunction, and probability densities.

Internal units are natural (hbar = c = m = 1): lengths in Compton wavelengths,
energies in units of the electron rest energy mc^2.  Public radial arguments
are in Bohr radii (r_natural = r_bohr / alpha); energies convert to eV via
mc^2 = 510998.95 eV.

The quantum numbers (n, k, m_j, Z), the Sommerfeld energy E and the
level's radial parameters (levels._level: s, E, 1 - E, C = sqrt(1 - E^2),
s - k, W = (s - kE)/C, Z alpha = za) live in levels, which needs no numpy;
every function here reads them from that one record.  With rho = C r, the
radial pair

    F(rho) = A rho^s e^{-rho} [ za 2rho L_{n_r-1}^{(2s+1)}(2rho)
                                + (s - k) W L_{n_r}^{(2s-1)}(2rho) ]
    G(rho) = -A rho^s e^{-rho} [ (s - k) 2rho L_{n_r-1}^{(2s+1)}(2rho)
                                 + za W L_{n_r}^{(2s-1)}(2rho) ]

(large and small components; degree -1 Laguerre terms are zero) satisfies the
coupled first-order system

    F' + (k/r) F - (1 + E + za/r) G = 0
    G' - (k/r) G + (E - 1 + za/r) F = 0

One run of the Laguerre recurrence gives both polynomials of the pair, and
the normalization A has a closed form (Laguerre orthogonality).  Their
second routes live in verify: the finite-difference residual check
(ode_residual) and the exact Gauss-Laguerre sum of the norm; the
independent two-sided shooting eigensolver is here.  The wavefunction of
a state qn attaches total-angular-momentum spinors to the two components,

    Psi = (A/r) (F y_{l_up} + i G y_{l_low}),   l_up = l(k), l_low = l(-k),

with l(k) = k for k > 0 and -k - 1 otherwise; its biquaternion form is
a q_up + b q_down, and the probability density is the scalar part of
Psi conj_both(Psi), i.e. norm_sq(Psi).  The reversed product conj_both(Psi)
Psi has the same scalar part, its e2/e3 parts cancel identically, and it
equals density times (e0 - i e1).

numpy is imported by the calls that take arrays, and nothing else.  The
shell probabilities and the density tables of the command line run the
same kernels node by node on Python floats while numpy is not loaded and
the call costs less than importing it (_on_floats), and as arrays
otherwise.
"""

from __future__ import annotations

import functools
import math
import operator
import sys

from ._record import Record
from .biquaternion import Biquaternion, _bq, _norm_sq, _polar_im
from .levels import ALPHA_FS, QuantumNumbers, _level, _Level
# unused here: perfbench/workloads.py and perfbench/probes.py read them as hy.*
from .levels import energy, radial_parameters  # noqa: F401
from .special import (
    _harmonics, _laguerre_run, _laguerre_steps, _legendre_column,
    gauss_legendre_nodes,
)
from .spinor import SpinorFunction, _spin_basis

__all__ = [
    "WaveFunction", "shoot_eigenvalue", "assemble_wavefunction",
    "probability_in_region",
]


def _steps(lv: _Level):
    """The steps of L_{n_r}^{(2s-1)}, lazily (see special._laguerre_steps);
    the same run gives L_{n_r-1}^{(2s+1)} (special._laguerre_run)."""
    return _laguerre_steps(lv.n - abs(lv.k), 2*lv.s - 1)


def _brackets(lv: _Level, x, steps):
    """Laguerre brackets (P, Q) at x = 2 rho, so that F = rho^s e^{-rho} P
    and G = -rho^s e^{-rho} Q; polynomials of degree n_r in x, from
    L_{n_r-1}^{(2s+1)} and L_{n_r}^{(2s-1)}, both from one run of
    steps = _steps(lv), lazy or held as a tuple.  Degree 0 needs no run:
    L_{-1} = 0, L_0 = 1."""
    L2, L1 = (_laguerre_run(steps, 2*lv.s - 1, x) if lv.n - abs(lv.k)
              else (1.0, 0.0))
    return lv.za*x*L1 + lv.sk*lv.W*L2, lv.sk*x*L1 + lv.za*lv.W*L2


def _radial_FG(lv: _Level, rho, A: float = 1.0):
    """Closed-form (F, G) at dimensionless rho (vectorized), times the
    normalization A (1: unnormalized).  A float or 0-d rho runs on Python
    floats and gives floats.  At rho = inf (F, G) is the limit 0.
    """
    if type(rho) is not float:
        import numpy as np
        rho = np.asarray(rho, dtype=float)
        if rho.ndim == 0:
            rho = float(rho)
    return _radial_kernel(lv, A, math.log(A), rho, _steps(lv))


def _radial_kernel(lv: _Level, A: float, log_a: float, rho, steps):
    """(F, G) times A, log_a = log A, at rho >= 0: a Python float gives
    Python floats, a float array arrays; steps as for _brackets.  At
    rho = inf (F, G) is the limit 0: e^{-rho} beats every power of rho.
    A Python float never touches numpy.

    The prefactor is (A rho^s) e^{-rho}: the argument of e^{-rho} is exact,
    so this rounds to a few eps wherever A rho^s, e^{-rho} and the product
    are normal floats.  Elsewhere (large |k|, far tails) it is the single
    exponential exp(log A + s log rho - rho), which stays finite where
    rho^s alone leaves the float range.
    """
    if type(rho) is float:              # one point runs on Python floats
        if rho == math.inf:
            return 0.0, 0.0
        lo = hi = rho
        exp = math.exp
    else:
        import numpy as np
        lo, hi = (rho.min(), rho.max()) if rho.size else (0.0, 0.0)
        if hi == math.inf:
            finite = rho < hi
            F, G = _radial_kernel(lv, A, log_a, np.where(finite, rho, 0.0),
                                  steps)
            return np.where(finite, F, 0.0), np.where(finite, G, 0.0)
        exp = np.exp
    s = lv.s
    P, Q = _brackets(lv, 2*rho, steps)
    # each condition of _split_ok is monotone or concave in rho, so it holds
    # on every node when it holds at both ends
    if (lo > 0 and _split_ok(log_a, s*math.log(lo), lo)
            and (hi == lo or _split_ok(log_a, s*math.log(hi), hi))):
        pref = A*rho**s*exp(-rho)
    elif type(rho) is float:            # the limit 0 at rho = 0
        try:
            pref = math.exp(log_a + s*math.log(rho) - rho) if rho else 0.0
        except OverflowError:
            pref = math.inf
    else:
        with np.errstate(divide="ignore", over="ignore", under="ignore",
                         invalid="ignore"):  # rho = 0 gives exp(-inf) = 0
            log_rs = s*np.log(rho)
            pref = np.where(_split_ok(log_a, log_rs, rho),
                            A*rho**s*np.exp(-rho),
                            np.exp(log_a + log_rs - rho))
    return pref*P, -pref*Q


def _split_ok(log_a, log_rs, rho):
    """True where A, rho^s, A rho^s, e^{-rho} and the product all lie well
    inside the normal float range (logs within +-700)."""
    log_p = log_a + log_rs
    return ((abs(log_a) < 700) & (abs(log_rs) < 700) & (log_p < 700)
            & (rho < 700) & (log_p - rho > -700))


def _trim(a: np.ndarray) -> np.ndarray:
    """a cut to length 1 along every axis on which it is constant.

    Exact: the comparison is bitwise (signed zeros and NaNs count as
    values), and broadcasting against the other arguments restores the
    cut axes."""
    import numpy as np
    bits = a.view(np.int64)
    for axis in range(a.ndim):
        if a.shape[axis] > 1:
            first = (slice(None),)*axis + (slice(0, 1),)
            if (bits == bits[first]).all():
                a, bits = a[first], bits[first]
    return a


def _log_norm_sq(lv: _Level) -> float:
    """Log of the integral of F^2 + G^2 over r in natural units, in closed
    form.

    With x = 2 rho = 2 C r the integrand is 2^{-2s} x^{2s} e^{-x} (P^2 + Q^2)
    and dr = dx/(2C).  Laguerre orthogonality, int x^{a+1} e^{-x}
    [L_n^(a)]^2 dx = Gamma(n + a + 1)(2n + a + 1)/n!, and the cross term
    from L_n^(2s-1) = L_n^(2s+1) - 2 L_{n-1}^(2s+1) + L_{n-2}^(2s+1)
    (Abramowitz & Stegun, ch. 22) give, with g = n_r (n_r + 2s),

        2^{-2s-1}/C Gamma(n_r + 2s)/n_r!
            [(za^2 + (s - k)^2)(2 n_r + 2s)(g + W^2) - 8 za (s - k) W g],

    taken in logs: for large |k| the integral leaves the float range.
    """
    n_r, s = lv.n - abs(lv.k), lv.s
    g = n_r*(n_r + 2*s)
    bracket = ((lv.za*lv.za + lv.sk*lv.sk)*(2*n_r + 2*s)*(g + lv.W*lv.W)
               - 8*lv.za*lv.sk*lv.W*g)
    return (math.lgamma(n_r + 2*s) - math.lgamma(n_r + 1) + math.log(bracket)
            - (2*s + 1)*math.log(2.0) - math.log(lv.C))


def _shoot_sides(qn: QuantumNumbers, E: float) -> tuple:
    """(F, G) at the solver's steps at energy E, integrated outward from
    the origin and inward from the far tail to the matching point."""
    import numpy as np
    from scipy.integrate import solve_ivp
    lv = _level(qn, E)
    k, za, C = qn.k, lv.za, lv.C

    def rhs(r, y):
        F, G = y
        return [-(k/r)*F + (1 + E + za/r)*G,
                (k/r)*G - (-lv.eps + za/r)*F]

    r0 = 1e-4/C
    r_match = max(za*E/C, 1.0)/C
    r_out = 45.0/C
    # indicial behaviour at the origin: F, G ~ r^s with G/F = (s + k)/(Z alpha)
    y0 = np.array([1.0, (lv.s + k)/za])
    y0 /= np.linalg.norm(y0)
    # exponential decay at infinity: G/F -> -C/(1 + E)
    y1 = np.array([1.0, -C/(1 + E)])
    y1 /= np.linalg.norm(y1)
    return tuple(solve_ivp(rhs, (start, r_match), y, method="DOP853",
                           rtol=1e-11, atol=1e-300).y
                 for start, y in ((r0, y0), (r_out, y1)))


def _shoot_mismatch(E: float, qn: QuantumNumbers) -> float:
    """Normalized Wronskian mismatch of the two sides at energy E."""
    (Fi, Gi), (Fo, Go) = (side[:, -1] for side in _shoot_sides(qn, E))
    return (Fi*Go - Fo*Gi)/(math.hypot(Fi, Gi)*math.hypot(Fo, Go))


@functools.lru_cache(maxsize=256)
def _shoot_level(qn: QuantumNumbers) -> float:
    import numpy as np
    from scipy.optimize import brentq
    lv = _level(qn)
    lo, hi = lv.E - 0.35*lv.eps, min(lv.E + 0.35*lv.eps, 1.0 - 1e-16)
    f_lo, f_hi = _shoot_mismatch(lo, qn), _shoot_mismatch(hi, qn)
    if f_lo*f_hi > 0:
        raise RuntimeError(
            f"no sign change in bracket [{lo}, {hi}]: "
            f"mismatch {f_lo!r} .. {f_hi!r}")
    E = brentq(_shoot_mismatch, lo, hi, args=(qn,), xtol=5e-17, rtol=8.9e-16)
    # F's sign changes, counted per side: each side has its own scale
    nodes = sum(int(np.count_nonzero(np.diff(np.signbit(F))))
                for F, _ in _shoot_sides(qn, E))
    want = qn.n_r - (qn.k > 0)
    if nodes != want:
        raise RuntimeError(
            f"the shooting root E = {E!r} has {nodes} radial nodes; "
            f"n={qn.n}, k={qn.k} has {want}: it is a neighbouring level")
    return E


def shoot_eigenvalue(qn: QuantumNumbers) -> float:
    """Bound-state energy from two-sided shooting, independent of the formula.

    Integrates the radial system outward from the origin (indicial start) and
    inward from the far tail (asymptotic decay ratio), and root-finds the
    Wronskian-style mismatch at an interior matching point to machine
    precision.  The bracket spans +-35% of the binding energy around the
    closed-form value; bracket placement does not bias the root.  Raises
    RuntimeError when the bracket contains no sign change, or when F at the
    root has other than the level's n_r (k < 0) or n_r - 1 (k > 0) nodes:
    the root of a neighbouring level.
    """
    return _shoot_level(qn)


def clear_shooting_cache():
    _shoot_level.cache_clear()


def _arguments(r_au, theta, phi):
    """(shape, r, theta, phi) of psi and density.  For one point shape is
    None and the three are Python floats (ints, numpy scalars and 0-d
    arrays are converted).  Otherwise shape is the broadcast shape and each
    argument is a float array cut by _trim, except that a 0-d r, and 0-d
    theta and phi together, run as Python floats.  Raises ValueError unless
    r > 0 everywhere (NaN included; an empty r passes)."""
    shape = None
    if not type(r_au) is type(theta) is type(phi) is float:
        import numpy as np
        r_au = np.asarray(r_au, dtype=float)
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        if r_au.ndim or theta.ndim or phi.ndim:
            shape = np.broadcast_shapes(r_au.shape, theta.shape, phi.shape)
            r_au, theta, phi = _trim(r_au), _trim(theta), _trim(phi)
        if not r_au.ndim:
            r_au = float(r_au)
        if not (theta.ndim or phi.ndim):
            theta, phi = float(theta), float(phi)
    if not (r_au > 0 if type(r_au) is float else (r_au > 0).all()):
        raise ValueError("r must be > 0")
    return shape, r_au, theta, phi


def _full(a, shape):
    """a as a fresh array of the broadcast shape."""
    if a.shape == shape:
        return a
    import numpy as np
    return np.broadcast_to(a, shape).copy()


class WaveFunction(Record):
    """Normalized bound-state wavefunction Psi = (A/r)(F y_up + i G y_low)
    of a valid state qn.  Its level, A and both spinors are derived fields;
    A^2 int (F^2 + G^2) dr = 1 (the spinors are sphere-normalized) in the
    closed form of _log_norm_sq, whose oracle is the exact Gauss-Laguerre
    sum in verify.  Raises ValueError where A leaves the float range."""

    qn: QuantumNumbers
    level: _Level
    A: float
    spinor_upper: SpinorFunction
    spinor_lower: SpinorFunction

    # the per-state tables of _parts, built by __init__; not a field, so no
    # part of ==, hash or repr
    __slots__ = ("_tables",)

    def __init__(self, qn: QuantumNumbers):
        lv, j = _level(qn), qn.j
        A = math.exp(-0.5*_log_norm_sq(lv))
        upper = SpinorFunction(qn.l_upper, j, qn.m_j)
        lower = SpinorFunction(qn.l_lower, j, qn.m_j)
        d = self.__dict__
        d["qn"], d["level"], d["A"] = qn, lv, A
        d["spinor_upper"], d["spinor_lower"] = upper, lower
        if not 0.0 < A < math.inf:          # also refuses NaN
            raise ValueError(f"normalization of n={qn.n}, k={qn.k} is out of "
                             f"the float range")
        # log A, the Laguerre steps of the radial pair, the degrees l_up and
        # l_low, the orders m_j -+ 1/2 with their Legendre columns up to
        # max(l_up, l_low), and the Clebsch weights
        ls = (upper.l, lower.l)
        m1 = int(round(qn.m_j - 0.5))
        object.__setattr__(self, "_tables", (
            math.log(A), tuple(_steps(lv)), ls,
            m1, _legendre_column(max(ls), abs(m1)),
            m1 + 1, _legendre_column(max(ls), abs(m1 + 1)),
            (upper.c1, upper.c2, lower.c1, lower.c2)))

    def __reduce__(self):
        # copies and pickles carry qn alone; __init__ derives the rest
        return type(self), (self.qn,)

    @property
    def energy(self) -> float:
        return self.level.E

    @property
    def s(self) -> float:
        return self.level.s

    @property
    def C(self) -> float:
        return self.level.C

    def _radial(self, r) -> tuple:
        """(f, h) at r (Bohr, > 0): f = (alpha/r) A F and h = (alpha/r) A G.
        A Python float gives Python floats, an array arrays."""
        lv = self.level
        F, G = _radial_kernel(lv, self.A, self._tables[0], lv.C*r/ALPHA_FS,
                              self._tables[1])
        pref = ALPHA_FS/r
        return pref*F, pref*G

    def _angular(self, theta, phi) -> tuple:
        """(u, v): the coefficients of the biquaternion forms of the upper
        and lower spinors at theta and phi; Python floats give Python
        complex values, arrays arrays."""
        _, _, ls, m1, col1, m2, col2, c = self._tables
        y1u, y1l = _harmonics(ls, m1, col1, theta, phi)
        y2u, y2l = _harmonics(ls, m2, col2, theta, phi)
        return (_spin_basis(c[0]*y1u, c[1]*y2u),
                _spin_basis(c[2]*y1l, c[3]*y2l))

    def _parts(self, r, theta, phi) -> tuple:
        """(f, h, u, v) at _arguments' r, theta and phi (see _radial and
        _angular): f and h on r's axes, u and v on the axes of the
        angles."""
        return (*self._radial(r), *self._angular(theta, phi))

    def _psi(self, r, theta, phi) -> tuple:
        """Psi's four coefficients f u_i + i h v_i (see _parts): the one
        combination, one expression per coefficient, so that numpy reuses
        the full-size product temporaries for the sums."""
        f, h, (u0, u1, u2, u3), (v0, v1, v2, v3) = self._parts(r, theta, phi)
        g = 1j*h
        return f*u0 + g*v0, f*u1 + g*v1, f*u2 + g*v2, f*u3 + g*v3

    def psi(self, r_au, theta, phi) -> Biquaternion:
        """Wavefunction value as a biquaternion, (A/r)(F y_up + i G y_low).

        r (Bohr, > 0), theta and phi broadcast; array arguments give a
        biquaternion with fresh array coefficients of the broadcast shape,
        and one point gives Python complex coefficients.  Three Python
        floats stay Python floats throughout (no numpy call); ints, numpy
        scalars and 0-d arrays are converted to them first.  Each array
        argument is first cut to length 1 along every axis on which it is
        constant (a meshgrid R varies along one axis only), so F and G are
        evaluated once per distinct radius and the spinors once per
        distinct angle; only the final combination is formed at full size.
        """
        shape, r, theta, phi = _arguments(r_au, theta, phi)
        q = self._psi(r, theta, phi)
        return _bq(*q) if shape is None else _bq(*[_full(c, shape) for c in q])

    def density(self, r_au, theta, phi):
        """Probability density per Bohr radius cubed, Sc(Psi conj_both(Psi)).

        r (Bohr, > 0), theta and phi broadcast.  The limit at r -> 0 is
        +inf for |k| = 1 and 0 otherwise, and r = inf gives the limit 0;
        r <= 0 and NaN r raise ValueError.

        One point is norm_sq(psi)/alpha^3.  Arrays never form Psi at full
        size: _polarized combines the radial factors of f and h from
        _radial with the angular factors of u and v from _angular, three
        products and two sums at full size, within a few eps of the point
        values.
        """
        shape, r, theta, phi = _arguments(r_au, theta, phi)
        if shape is None:
            return _norm_sq(*self._psi(r, theta, phi))/ALPHA_FS**3
        return _full(_polarized(_radial_factors(*self._radial(r)),
                                _angular_factors(*self._angular(theta, phi))),
                     shape)

    def density_grid(self, r_au, theta):
        """density() on broadcastable (r, theta) arrays; it does not depend
        on phi."""
        return self.density(r_au, theta, 0.0)

    def _density_table(self, r_au: list, theta: list) -> list:
        """density_grid on every pair of r_au (Bohr, > 0) and theta, two
        lists of Python floats, r outer, as one flat list of Python floats.
        It runs node by node on Python floats when _on_floats finds that
        cheaper than importing numpy, else as one density_grid call; the
        two agree to a few eps per node."""
        n_r, n_theta = len(r_au), len(theta)
        steps = (n_r*(self.qn.n_r + _NODE_STEPS)
                 + n_theta*(max(self._tables[2]) + _ANGLE_STEPS)
                 + n_r*n_theta)
        if not _on_floats(steps):
            import numpy as np
            with np.errstate(over="ignore", invalid="ignore"):
                return self.density_grid(np.array(r_au)[:, None],
                                         np.array(theta)).ravel().tolist()
        radial = [_radial_factors(*self._radial(r)) for r in r_au]
        angular = [_angular_factors(*self._angular(t, 0.0)) for t in theta]
        return [_polarized(a, b) for a in radial for b in angular]


def _radial_factors(f, h) -> tuple:
    """(f^2, h^2, 2 f h)/alpha^3 of f and h from WaveFunction._radial."""
    a3 = ALPHA_FS**3
    return f*f/a3, h*h/a3, 2*f*h/a3


def _angular_factors(u, v) -> tuple:
    """(norm_sq(u), norm_sq(v), Im sum_i u_i conj(v_i)) of u and v from
    WaveFunction._angular."""
    return _norm_sq(*u), _norm_sq(*v), _polar_im(_bq(*u), _bq(*v))


def _polarized(a, b):
    """The density norm_sq(f u + i h v)/alpha^3 from a = _radial_factors(f,
    h) and b = _angular_factors(u, v), by the norm's polarization identity
    norm_sq(f u + i h v) = f^2 norm_sq(u) + h^2 norm_sq(v)
    + 2 f h Im sum_i u_i conj(v_i) for real f and h: the one combination of
    the array densities and of the tables on Python floats."""
    return a[0]*b[0] + a[1]*b[1] + a[2]*b[2]


# Importing numpy takes about 110 ms in a fresh process, and one step of
# special._laguerre_run about 0.15 us on Python floats (medians of 15
# fresh interpreters and best of 7 loops; Python 3.11.7, numpy 2.4.6, a
# shared 2-vCPU x86_64 host): a call that needs fewer than _FLOAT_STEPS
# such steps is faster without numpy.  On the same host a radial node
# costs its n_r recurrence steps plus about _NODE_STEPS more, an angular
# node its l steps plus about _ANGLE_STEPS, and one node of a density
# table (_polarized) about one step.  The Gauss-Legendre rules run on
# Python floats on both routes, so they do not enter the choice.
_FLOAT_STEPS = 750_000
_NODE_STEPS = 20
_ANGLE_STEPS = 60


def _on_floats(steps: int) -> bool:
    """True when a call of about steps Laguerre steps is cheaper node by
    node on Python floats: numpy is not loaded yet, and the steps cost
    less than its import.  Once numpy is loaded, arrays are cheaper."""
    return steps < _FLOAT_STEPS and "numpy" not in sys.modules


def assemble_wavefunction(qn: QuantumNumbers) -> WaveFunction:
    """WaveFunction(qn), the normalized wavefunction of a valid state."""
    return WaveFunction(qn)


def _shell_rules(nodes: int) -> tuple:
    """The Gauss-Legendre rules of nodes and nodes + nodes//4 points on
    [0, 1] for probability_in_region: their nodes concatenated (both rules
    in one evaluation) and the two weight vectors, as lists of Python
    floats (special.leggauss holds the rules themselves)."""
    t_c, w_c = gauss_legendre_nodes(nodes, 0.0, 1.0)
    t_f, w_f = gauss_legendre_nodes(nodes + nodes//4, 0.0, 1.0)
    return t_c + t_f, w_c, w_f


@functools.lru_cache(maxsize=64)
def _shell_arrays(nodes: int) -> tuple:
    """_shell_rules(nodes) as read-only numpy arrays, memoized per node
    count."""
    import numpy as np
    rules = tuple(map(np.array, _shell_rules(nodes)))
    for a in rules:
        a.flags.writeable = False
    return rules


def _shell_terms(w: WaveFunction, lo: float, hi: float, t):
    """The integrand 2 (hi - lo) t (F^2 + G^2) of probability_in_region at
    r = lo + (hi - lo) t^2 (natural units), dr = 2 (hi - lo) t dt; a Python
    float t gives a Python float, an array an array."""
    lv = w.level
    F, G = _radial_kernel(lv, w.A, w._tables[0], lv.C*(lo + (hi - lo)*t*t),
                          w._tables[1])
    return 2.0*(hi - lo)*t*(F*F + G*G)


def probability_in_region(w: WaveFunction, r_lo: float, r_hi: float,
                          return_error: bool = False):
    """Probability of finding the electron in the radial shell [r_lo, r_hi].

    Radii in Bohr; r_hi may be inf.  The angular integral is exactly 1, so
    this reduces to the radial Born integral of A^2 (F^2 + G^2), done by a
    fixed Gauss-Legendre rule in t with r = lo + (hi - lo) t^2, which
    clusters the nodes at the lower end (the r^{2s} start at the origin,
    the decaying tail of an outer shell).  The rule has
    N = max(100, 4n + 60) nodes; the error estimate is its difference from
    the rule with N + N/4 nodes, whose value is returned.  Where either
    leaves the float range (from n = 235 at k = -1, Z = 1, where the
    brackets overflow at the cap) this raises ValueError.  The nodes run
    one by one on Python floats when _on_floats finds that cheaper than
    importing numpy, else as arrays; the two agree to a few eps.
    """
    if not 0.0 <= r_lo < r_hi:
        raise ValueError(f"need 0 <= r_lo < r_hi, got [{r_lo!r}, {r_hi!r}]")
    nodes = int(max(100, 4*w.qn.n + 60))
    # the cap at rho = N lies past the outermost Laguerre node (~4n); the
    # tail beyond it is < 1e-50 of the total (checked for n <= 60)
    cap = nodes/w.C
    lo, hi = float(min(r_lo/ALPHA_FS, cap)), float(min(r_hi/ALPHA_FS, cap))
    if hi <= lo:
        return (0.0, 0.0) if return_error else 0.0
    if _on_floats((2*nodes + nodes//4)*(w.qn.n_r + _NODE_STEPS)):
        t, w_c, w_f = _shell_rules(nodes)
        terms = [_shell_terms(w, lo, hi, x) for x in t]
        coarse = sum(map(operator.mul, w_c, terms))
        val = sum(map(operator.mul, w_f, terms[nodes:]))
    else:
        import numpy as np
        t, w_c, w_f = _shell_arrays(nodes)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = _shell_terms(w, lo, hi, t)
            coarse = float(np.dot(w_c, terms[:nodes]))
            val = float(np.dot(w_f, terms[nodes:]))
    err = abs(val - coarse)
    if not math.isfinite(err):          # also refuses a NaN val
        raise ValueError(f"shell probability of n={w.qn.n}, k={w.qn.k} is "
                         f"out of the float range")
    return (val, err) if return_error else val
