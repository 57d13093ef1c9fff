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

Its finite-difference residual check lives in verify (ode_residual); the
independent two-sided shooting eigensolver is here.  The full wavefunction
attaches total-angular-momentum spinors to the two components,

    Psi = (A/r) (F y_{l_up} + i G y_{l_low}),   l_up = l(k), l_low = l(-k),

with l(k) = k for k > 0 and -k - 1 otherwise; its biquaternion form is
a q_up + b q_down, and the probability density is the scalar part of
Psi conj_both(Psi), i.e. norm_sq(Psi).  The reversed product conj_both(Psi)
Psi has the same scalar part, its e2/e3 parts cancel identically, and it
equals density times (e0 - i e1).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._record import Record
from .biquaternion import Biquaternion, _bq, norm_sq
from .levels import ALPHA_FS, QuantumNumbers, _level, _Level, sommerfeld_energy
# unused here: perfbench/workloads.py and perfbench/probes.py read them as hy.*
from .levels import energy, radial_parameters  # noqa: F401
from .special import (
    _laguerre_pair, gauss_laguerre_nodes, gauss_legendre_nodes,
)
from .spinor import SpinorFunction, spinor_biquaternions

__all__ = [
    "WaveFunction", "shoot_eigenvalue", "assemble_wavefunction",
    "probability_in_region",
]


def _brackets(lv: _Level, x):
    """Laguerre brackets (P, Q) at x = 2 rho, so that F = rho^s e^{-rho} P
    and G = -rho^s e^{-rho} Q; polynomials of degree n_r in x, from one
    recurrence pass for L_{n_r-1}^{(2s+1)} and L_{n_r}^{(2s-1)}."""
    L1, L2 = _laguerre_pair(lv.n - abs(lv.k), 2*lv.s + 1, 2*lv.s - 1, x)
    return lv.za*x*L1 + lv.sk*lv.W*L2, lv.sk*x*L1 + lv.za*lv.W*L2


def _radial_FG(lv: _Level, rho, A: float = 1.0):
    """Closed-form (F, G) at dimensionless rho (vectorized), times the
    normalization A (1: unnormalized).  A float or 0-d rho runs on Python
    floats and gives floats.

    The prefactor is (A rho^s) e^{-rho}: the argument of e^{-rho} is exact,
    so this rounds to a few eps wherever A rho^s, e^{-rho} and the product
    are normal floats.  Elsewhere (large |k|, far tails) it is the single
    exponential exp(log A + s log rho - rho), which stays finite where
    rho^s alone leaves the float range.  At rho = inf (F, G) is the limit
    0.
    """
    s = lv.s
    log_a = math.log(A)
    if type(rho) is not float:
        rho = np.asarray(rho, dtype=float)
        if rho.ndim == 0:
            rho = float(rho)
    # e^{-rho} beats every power of rho: the limit at rho = inf is 0
    if type(rho) is float:              # one point runs on Python floats
        if rho == math.inf:
            return 0.0, 0.0
        lo = hi = rho
        exp = math.exp
    else:
        lo, hi = (rho.min(), rho.max()) if rho.size else (0.0, 0.0)
        exp = np.exp
        if hi == math.inf:
            finite = rho < hi
            F, G = _radial_FG(lv, np.where(finite, rho, 0.0), A)
            return np.where(finite, F, 0.0), np.where(finite, G, 0.0)
    P, Q = _brackets(lv, 2*rho)
    # each condition of _split_ok is monotone or concave in rho, so it holds
    # on every node when it holds at both ends
    if lo > 0 and all(_split_ok(log_a, s*math.log(x), x) for x in {lo, hi}):
        pref = A*rho**s*exp(-rho)
    else:
        rho = np.asarray(rho)
        with np.errstate(divide="ignore", over="ignore", under="ignore",
                         invalid="ignore"):  # rho = 0 gives exp(-inf) = 0
            log_rs = s*np.log(rho)
            pref = np.where(_split_ok(log_a, log_rs, rho),
                            A*rho**s*np.exp(-rho),
                            np.exp(log_a + log_rs - rho))
        if not pref.ndim:               # a point stays on Python floats
            pref = float(pref)
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
    bits = a.view(np.int64)
    for axis in range(a.ndim):
        if a.shape[axis] > 1:
            first = (slice(None),)*axis + (slice(0, 1),)
            if (bits == bits[first]).all():
                a, bits = a[first], bits[first]
    return a


def _log_radial_norm_sq(lv: _Level) -> float:
    """Log of the integral of F^2 + G^2 over r in natural units, exact up
    to rounding.

    With x = 2 rho = 2 C r the integrand is 2^{-2s} x^{2s} e^{-x} (P^2 + Q^2)
    and dr = dx/(2C); P^2 + Q^2 has degree 2 n_r, so n_r + 2 generalized
    Gauss-Laguerre nodes with alpha = 2s integrate it exactly.  The sum is
    taken in log form: the far weights underflow where the brackets are
    large, and for large |k| the integral itself exceeds the float range.
    """
    s = lv.s
    # a bracket zero at a node adds 0; from n = 359 (k = -1, Z = 1) the
    # weights and brackets leave the float range and the result is NaN,
    # which assemble_wavefunction refuses
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x, log_w = gauss_laguerre_nodes(lv.n - abs(lv.k) + 2, 2*s)
        P, Q = _brackets(lv, x)
        log_terms = log_w + 2*np.log(np.hypot(P, Q))
        top = float(np.max(log_terms))
        total = float(np.sum(np.exp(log_terms - top)))
    return (top + math.log(total)
            - (2*s + 1)*math.log(2.0) - 0.5*math.log(1.0 - lv.E*lv.E))


def _shoot_mismatch(E: float, k: int, Z: int) -> float:
    """Normalized Wronskian mismatch of two-sided integration at energy E."""
    from scipy.integrate import solve_ivp
    za = Z*ALPHA_FS
    s = math.sqrt(k*k - za*za)
    C = math.sqrt(1.0 - E*E)

    def rhs(r, y):
        F, G = y
        return [-(k/r)*F + (1 + E + za/r)*G,
                (k/r)*G - (E - 1 + za/r)*F]

    r0 = 1e-4/C
    r_match = max(za*E/C, 1.0)/C
    r_out = 45.0/C
    # indicial behaviour at the origin: F, G ~ r^s with G/F = (s + k)/(Z alpha)
    y0 = np.array([1.0, (s + k)/za])
    y0 /= np.linalg.norm(y0)
    left = solve_ivp(rhs, (r0, r_match), y0, method="DOP853",
                     rtol=1e-11, atol=1e-300)
    # exponential decay at infinity: G/F -> -C/(1 + E)
    y1 = np.array([1.0, -C/(1 + E)])
    y1 /= np.linalg.norm(y1)
    right = solve_ivp(rhs, (r_out, r_match), y1, method="DOP853",
                      rtol=1e-11, atol=1e-300)
    Fi, Gi = left.y[0, -1], left.y[1, -1]
    Fo, Go = right.y[0, -1], right.y[1, -1]
    return (Fi*Go - Fo*Gi)/(math.hypot(Fi, Gi)*math.hypot(Fo, Go))


@functools.lru_cache(maxsize=256)
def _shoot_default(n: int, k: int, Z: int) -> float:
    E = sommerfeld_energy(n, k, Z)
    b = 1.0 - E
    return _shoot_bracketed(k, Z, E - 0.35*b, min(E + 0.35*b, 1.0 - 1e-16))


def _shoot_bracketed(k: int, Z: int, lo: float, hi: float) -> float:
    from scipy.optimize import brentq
    f_lo = _shoot_mismatch(lo, k, Z)
    f_hi = _shoot_mismatch(hi, k, Z)
    if f_lo*f_hi > 0:
        raise RuntimeError(
            f"no sign change in bracket [{lo}, {hi}]: "
            f"mismatch {f_lo!r} .. {f_hi!r}")
    return brentq(_shoot_mismatch, lo, hi, args=(k, Z),
                  xtol=5e-17, rtol=8.9e-16)


def shoot_eigenvalue(qn: QuantumNumbers, bracket=None) -> float:
    """Bound-state energy from two-sided shooting, independent of the formula.

    Integrates the radial system outward from the origin (indicial start) and
    inward from the far tail (asymptotic decay ratio), and root-finds the
    Wronskian-style mismatch at an interior matching point to machine
    precision.  The default bracket spans +-35% of the binding energy around
    the closed-form value; bracket placement does not bias the root.  Raises
    RuntimeError when the bracket contains no sign change.
    """
    if bracket is None:
        return _shoot_default(qn.n, qn.k, qn.Z)
    lo, hi = bracket
    return _shoot_bracketed(qn.k, qn.Z, lo, hi)


def clear_shooting_cache():
    _shoot_default.cache_clear()


class WaveFunction(Record):
    """Assembled bound-state wavefunction Psi = (A/r)(F y_up + i G y_low)."""

    qn: QuantumNumbers
    level: _Level
    A: float
    spinor_upper: SpinorFunction
    spinor_lower: SpinorFunction

    def __init__(self, qn: QuantumNumbers, level: _Level, A: float,
                 spinor_upper: SpinorFunction, spinor_lower: SpinorFunction):
        d = self.__dict__
        d["qn"], d["level"], d["A"] = qn, level, A
        d["spinor_upper"], d["spinor_lower"] = spinor_upper, spinor_lower

    @property
    def energy(self) -> float:
        return self.level.E

    @property
    def s(self) -> float:
        return self.level.s

    @property
    def C(self) -> float:
        return self.level.C

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
        point = type(r_au) is type(theta) is type(phi) is float
        if not point:
            r_au = np.asarray(r_au, dtype=float)
            theta = np.asarray(theta, dtype=float)
            phi = np.asarray(phi, dtype=float)
            point = r_au.ndim == theta.ndim == phi.ndim == 0
            if point:
                r_au, theta, phi = float(r_au), float(theta), float(phi)
        if point:
            r = r_min = r_au
        else:
            shape = np.broadcast_shapes(r_au.shape, theta.shape, phi.shape)
            r, theta, phi = _trim(r_au), _trim(theta), _trim(phi)
            r_min = r.min()
        if not r_min > 0:               # also rejects NaN
            raise ValueError("r must be > 0")
        F, G = _radial_FG(self.level, self.C*r/ALPHA_FS, self.A)
        pref = ALPHA_FS/r
        f, g = pref*F, 1j*pref*G
        u, v = spinor_biquaternions(
            (self.spinor_upper, self.spinor_lower), theta, phi)
        # Psi = f u + g v as one expression per coefficient: numpy then
        # reuses the full-size product temporaries for the sums
        p = _bq(f*u.q0 + g*v.q0, f*u.q1 + g*v.q1, f*u.q2 + g*v.q2,
                f*u.q3 + g*v.q3)
        if not point and any(c.shape != shape for c in p.coefficients()):
            p = _bq(*(np.broadcast_to(c, shape).copy()
                      for c in p.coefficients()))
        return p

    def density(self, r_au, theta, phi):
        """Probability density per Bohr radius cubed, Sc(Psi conj_both(Psi)).

        r (Bohr, > 0), theta and phi broadcast.  The limit at r -> 0 is
        +inf for |k| = 1 and 0 otherwise, and r = inf gives the limit 0;
        r <= 0 and NaN r raise ValueError.
        """
        return norm_sq(self.psi(r_au, theta, phi))/ALPHA_FS**3

    def density_grid(self, r_au, theta):
        """density() on broadcastable (r, theta) arrays; it does not depend
        on phi."""
        return self.density(r_au, theta, 0.0)


def assemble_wavefunction(qn: QuantumNumbers) -> WaveFunction:
    """Build the normalized wavefunction for a valid state.

    The normalization constant A comes from the full-domain integral:
    A^2 integral (F^2 + G^2) dr = 1 in natural units (the angular spinors are
    sphere-normalized, so this is the whole Born integral), evaluated
    exactly by Gauss-Laguerre quadrature.
    """
    lv = _level(qn)
    A = math.exp(-0.5*_log_radial_norm_sq(lv))
    if not 0.0 < A < math.inf:          # also refuses NaN
        raise ValueError(f"normalization of n={qn.n}, k={qn.k} is out of "
                         f"the float range")
    j = qn.j
    return WaveFunction(
        qn=qn, level=lv, A=A,
        spinor_upper=SpinorFunction(qn.l_upper, j, qn.m_j),
        spinor_lower=SpinorFunction(qn.l_lower, j, qn.m_j),
    )


@functools.lru_cache(maxsize=64)
def _shell_rules(nodes: int):
    """The Gauss-Legendre rules of nodes and nodes + nodes//4 points on
    [0, 1] for probability_in_region: their nodes concatenated (both rules
    in one evaluation) and the two weight vectors, read-only, memoized per
    node count."""
    t_c, w_c = gauss_legendre_nodes(nodes, 0.0, 1.0)
    t_f, w_f = gauss_legendre_nodes(nodes + nodes//4, 0.0, 1.0)
    t = np.concatenate((t_c, t_f))
    for a in (t, w_c, w_f):
        a.flags.writeable = False
    return t, w_c, w_f


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
    brackets overflow at the cap) this raises ValueError.
    """
    if not 0.0 <= r_lo < r_hi:
        raise ValueError(f"need 0 <= r_lo < r_hi, got [{r_lo!r}, {r_hi!r}]")
    nodes = int(max(100, 4*w.qn.n + 60))
    # the cap at rho = N lies past the outermost Laguerre node (~4n); the
    # tail beyond it is < 1e-50 of the total (checked for n <= 60)
    cap = nodes/w.C
    lo, hi = min(r_lo/ALPHA_FS, cap), min(r_hi/ALPHA_FS, cap)
    if hi <= lo:
        return (0.0, 0.0) if return_error else 0.0
    t, w_c, w_f = _shell_rules(nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        F, G = _radial_FG(w.level, w.C*(lo + (hi - lo)*t*t), w.A)
        terms = 2.0*(hi - lo)*t*(F*F + G*G)       # dr = 2 (hi - lo) t dt
        coarse = float(np.dot(w_c, terms[:nodes]))
        val = float(np.dot(w_f, terms[nodes:]))
    err = abs(val - coarse)
    if not math.isfinite(err):          # also refuses a NaN val
        raise ValueError(f"shell probability of n={w.qn.n}, k={w.qn.k} is "
                         f"out of the float range")
    return (val, err) if return_error else val
