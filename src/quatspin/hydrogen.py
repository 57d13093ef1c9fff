"""Relativistic one-electron atom: bound-state energies, radial functions,
quaternionic wavefunction, and probability densities.

Internal units are natural (hbar = c = m = 1): lengths in Compton wavelengths,
energies in units of the electron rest energy mc^2.  Public radial arguments
are in Bohr radii (r_natural = r_bohr / alpha); energies convert to eV via
mc^2 = 510998.95 eV.

Quantum numbers: principal n >= 1 and the Dirac number k (= -(j+1/2) when
l = j - 1/2, +(j+1/2) when l = j + 1/2; the ground state is k = -1), with
j = |k| - 1/2.  The radial index n_r = n - |k| counts Laguerre degrees, and
n = |k| requires k < 0.

The bound-state energy is the Sommerfeld formula

    E = mc^2 [1 + (Z alpha / (n_r + s))^2]^{-1/2},   s = sqrt(k^2 - (Z alpha)^2),

and with C = sqrt(1 - E^2), rho = C r, W = (s - kE)/C, Z alpha = za, the
radial pair

    F(rho) = A rho^s e^{-rho} [ za 2rho L_{n_r-1}^{(2s+1)}(2rho)
                                + (s - k) W L_{n_r}^{(2s-1)}(2rho) ]
    G(rho) = -A rho^s e^{-rho} [ (s - k) 2rho L_{n_r-1}^{(2s+1)}(2rho)
                                 + za W L_{n_r}^{(2s-1)}(2rho) ]

(large and small components; degree -1 Laguerre terms are zero) satisfies the
coupled first-order system

    F' + (k/r) F - (1 + E + za/r) G = 0
    G' - (k/r) G + (E - 1 + za/r) F = 0

verified here both by high-order finite-difference residuals and by an
independent two-sided shooting eigensolver.  The full wavefunction attaches
total-angular-momentum spinors to the two components,

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
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from .biquaternion import Biquaternion, mul, conj_both, norm_sq
from .special import laguerre
from .spinor import SpinorFunction, spinor_as_biquaternion

__all__ = [
    "ALPHA_FS", "MC2_EV", "QuantumNumbers", "WaveFunction", "l_of_k",
    "sommerfeld_energy", "energy", "energy_ev", "binding_energy_ev",
    "radial_parameters", "radial_F", "radial_G",
    "ode_residual", "system_residual", "shoot_eigenvalue",
    "assemble_wavefunction", "probability_in_region",
]

ALPHA_FS = 7.2973525693e-3   # fine-structure constant
MC2_EV = 510998.95           # electron rest energy in eV


def l_of_k(k: int) -> int:
    """Orbital angular momentum attached to a Dirac quantum number."""
    return k if k > 0 else -k - 1


def _is_int(x) -> bool:
    """True for integral numbers (3 or 3.0); False for bools, NaN and inf."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and math.isfinite(x) and x == int(x))


@dataclass(frozen=True)
class QuantumNumbers:
    """Bound-state labels (n, k, m_j, Z) with Dirac validity constraints."""

    n: int
    k: int
    m_j: float = 0.5
    Z: int = 1

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not _is_int(self.k) or self.k == 0:
            raise ValueError(f"k must be a nonzero integer, got {self.k!r}")
        if abs(self.k) > self.n:
            raise ValueError(f"|k| must not exceed n, got n={self.n}, k={self.k}")
        if abs(self.k) == self.n and self.k > 0:
            raise ValueError(
                f"n = |k| requires k < 0, got n={self.n}, k={self.k}")
        if not _is_int(self.Z) or self.Z < 1:
            raise ValueError(f"Z must be a positive integer, got {self.Z!r}")
        if self.Z*ALPHA_FS >= abs(self.k):
            raise ValueError(
                f"s imaginary: Z alpha = {self.Z*ALPHA_FS:.6f} >= |k| = "
                f"{abs(self.k)}")
        j = abs(self.k) - 0.5
        if not (math.isfinite(self.m_j)
                and abs(2*self.m_j - round(2*self.m_j)) <= 1e-9
                and round(2*self.m_j) % 2 == 1):
            raise ValueError(f"m_j must be half-odd-integer, got {self.m_j!r}")
        if abs(self.m_j) > j + 1e-9:
            raise ValueError(f"|m_j| must not exceed j = {j}, got {self.m_j!r}")

    @property
    def j(self) -> float:
        return abs(self.k) - 0.5

    @property
    def n_r(self) -> int:
        return self.n - abs(self.k)

    @property
    def l_upper(self) -> int:
        """Orbital quantum number of the large-component spinor."""
        return l_of_k(self.k)

    @property
    def l_lower(self) -> int:
        """Orbital quantum number of the small-component spinor."""
        return l_of_k(-self.k)


def sommerfeld_energy(n: int, k: int, Z: float) -> float:
    """Bound-state energy in mc^2 units for arbitrary real Z >= 0.

    E = [1 + (Z alpha/(n - |k| + s))^2]^{-1/2} with s = sqrt(k^2 - (Z alpha)^2).
    The Z -> 0 limit is exactly 1 (free particle).  Raises ValueError when
    n < |k| (negative radial index) or Z alpha >= |k| (s imaginary).
    """
    if n < abs(k):
        raise ValueError(f"|k| must not exceed n, got n={n}, k={k}")
    za = Z*ALPHA_FS
    if za >= abs(k):
        raise ValueError(f"s imaginary: Z alpha = {za} >= |k| = {abs(k)}")
    if za == 0.0:
        return 1.0
    s = math.sqrt(k*k - za*za)
    return 1.0/math.sqrt(1.0 + (za/((n - abs(k)) + s))**2)


def energy(qn: QuantumNumbers) -> float:
    """Bound-state energy in mc^2 units; 0 < E < 1."""
    return sommerfeld_energy(qn.n, qn.k, qn.Z)


def energy_ev(qn: QuantumNumbers) -> float:
    return energy(qn)*MC2_EV


def binding_energy_ev(qn: QuantumNumbers) -> float:
    """E - mc^2 in eV (negative for bound states)."""
    return (energy(qn) - 1.0)*MC2_EV


def radial_parameters(qn: QuantumNumbers, E: float | None = None):
    """(s, C, scale): exponent s, decay constant C = sqrt(1 - E^2) in natural
    units, and scale = C/alpha = rho per Bohr radius."""
    if E is None:
        E = energy(qn)
    if not 0.0 < E < 1.0:
        raise ValueError(f"bound state requires 0 < E < mc^2, got E = {E!r}")
    s = math.sqrt(qn.k*qn.k - (qn.Z*ALPHA_FS)**2)
    C = math.sqrt(1.0 - E*E)
    return s, C, C/ALPHA_FS


def _lag(n: int, a: float, x):
    """Laguerre with the degree -1 convention: L_{-1} == 0."""
    if n < 0:
        return np.zeros_like(np.asarray(x, dtype=float))
    return laguerre(n, a, x)


def _radial_FG(n: int, k: int, Z: int, E: float, rho):
    """Unnormalized closed-form (F, G) at dimensionless rho (vectorized)."""
    za = Z*ALPHA_FS
    s = math.sqrt(k*k - za*za)
    C = math.sqrt(1.0 - E*E)
    W = (s - k*E)/C
    nr = n - abs(k)
    rho = np.asarray(rho, dtype=float)
    with np.errstate(divide="ignore"):  # rho = 0 is handled by s > 0
        pref = np.where(rho > 0, np.power(rho, s)*np.exp(-rho), 0.0)
    L1 = _lag(nr - 1, 2*s + 1, 2*rho)
    L2 = _lag(nr, 2*s - 1, 2*rho)
    F = pref*(za*2*rho*L1 + (s - k)*W*L2)
    G = -pref*((s - k)*2*rho*L1 + za*W*L2)
    return F, G


def radial_F(qn: QuantumNumbers, rho):
    """Large radial component F(rho), unnormalized closed form."""
    F, _ = _radial_FG(qn.n, qn.k, qn.Z, energy(qn), rho)
    return F


def radial_G(qn: QuantumNumbers, rho):
    """Small radial component G(rho), unnormalized closed form."""
    _, G = _radial_FG(qn.n, qn.k, qn.Z, energy(qn), rho)
    return G


def system_residual(qn: QuantumNumbers, E: float, F_fn, G_fn, r_grid):
    """Normalized residuals of the coupled radial system for given callables.

    F_fn and G_fn take radii in natural units and must accept arrays.  The
    grid is in Bohr radii, strictly positive ascending.  Derivatives come
    from a 5-point (4th-order) finite-difference stencil with step
    h = min(8e-4/C, 0.01 r).  Each equation's residual is divided pointwise
    by the sum of its term magnitudes; points where the solution has decayed
    below 1e-200 of the grid maximum report zero.
    """
    r_au = np.asarray(r_grid, dtype=float)
    if r_au.ndim != 1 or len(r_au) < 1:
        raise ValueError("grid must be a 1-d array")
    if not (np.all(r_au > 0) and np.all(np.diff(r_au) > 0)):
        raise ValueError("grid must be strictly positive and ascending")
    if not 0.0 < E < 1.0:
        raise ValueError(f"bound state requires 0 < E < mc^2, got E = {E!r}")
    r = r_au/ALPHA_FS
    C = math.sqrt(1.0 - E*E)
    za = qn.Z*ALPHA_FS
    k = qn.k
    h = np.minimum(8e-4/C, 0.01*r)
    F_st = [F_fn(r + m*h) for m in (-2, -1, 1, 2)]
    G_st = [G_fn(r + m*h) for m in (-2, -1, 1, 2)]
    dF = (-F_st[3] + 8*F_st[2] - 8*F_st[1] + F_st[0])/(12*h)
    dG = (-G_st[3] + 8*G_st[2] - 8*G_st[1] + G_st[0])/(12*h)
    Fv, Gv = F_fn(r), G_fn(r)
    t1 = dF + (k/r)*Fv - (1 + E + za/r)*Gv
    n1 = np.abs(dF) + np.abs((k/r)*Fv) + np.abs((1 + E + za/r)*Gv)
    t2 = dG - (k/r)*Gv + (E - 1 + za/r)*Fv
    n2 = np.abs(dG) + np.abs((k/r)*Gv) + np.abs((E - 1 + za/r)*Fv)
    # keep the floor strictly positive even for identically-zero inputs
    floor = max(1e-200*max(float(n1.max()), float(n2.max())), 2.3e-308)
    res1 = np.where(n1 > floor, np.abs(t1)/np.maximum(n1, floor), 0.0)
    res2 = np.where(n2 > floor, np.abs(t2)/np.maximum(n2, floor), 0.0)
    return res1, res2


def ode_residual(qn: QuantumNumbers, E: float, r_grid):
    """Residuals of the closed-form (F, G) on a Bohr-radius grid.

    Evaluates the closed forms at the supplied energy (which need not be the
    eigenvalue: the residual then grows by orders of magnitude, which is the
    eigenvalue-sensitivity probe).
    """
    C = math.sqrt(1.0 - E*E) if 0.0 < E < 1.0 else None
    if C is None:
        raise ValueError(f"bound state requires 0 < E < mc^2, got E = {E!r}")

    def F_fn(r):
        return _radial_FG(qn.n, qn.k, qn.Z, E, C*r)[0]

    def G_fn(r):
        return _radial_FG(qn.n, qn.k, qn.Z, E, C*r)[1]

    return system_residual(qn, E, F_fn, G_fn, r_grid)


def _shoot_mismatch(E: float, k: int, Z: int) -> float:
    """Normalized Wronskian mismatch of two-sided integration at energy E."""
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


@dataclass(frozen=True)
class WaveFunction:
    """Assembled bound-state wavefunction Psi = (A/r)(F y_up + i G y_low)."""

    qn: QuantumNumbers
    energy: float
    s: float
    C: float
    A: float
    spinor_upper: SpinorFunction
    spinor_lower: SpinorFunction

    def radial(self, r_au):
        """Unnormalized closed-form (F, G) at radii in Bohr."""
        rho = self.C*np.asarray(r_au, dtype=float)/ALPHA_FS
        return _radial_FG(self.qn.n, self.qn.k, self.qn.Z, self.energy, rho)

    def psi(self, r_au, theta, phi) -> Biquaternion:
        """Wavefunction value as a biquaternion, (A/r)(F y_up + i G y_low).

        r (Bohr, > 0), theta and phi broadcast; array arguments give a
        biquaternion with array coefficients.
        """
        r_au = np.asarray(r_au, dtype=float)
        if not r_au.min() > 0:        # also rejects NaN
            raise ValueError("r must be > 0")
        F, G = self.radial(r_au)
        pref = self.A/(r_au/ALPHA_FS)
        y_up = spinor_as_biquaternion(self.spinor_upper, theta, phi)
        y_lo = spinor_as_biquaternion(self.spinor_lower, theta, phi)
        return y_up*(pref*F) + y_lo*(1j*pref*G)

    def density_product(self, r_au, theta, phi) -> Biquaternion:
        """conj_both(Psi) Psi; equals density (e0 - i e1), per natural volume."""
        p = self.psi(r_au, theta, phi)
        return mul(conj_both(p), p)

    def density(self, r_au, theta, phi):
        """Probability density per Bohr radius cubed, Sc(Psi conj_both(Psi)).

        r (Bohr, > 0), theta and phi broadcast.  The limit at r -> 0 is
        +inf for |k| = 1 and 0 otherwise; r <= 0 raises ValueError.
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
    sphere-normalized, so this is the whole Born integral).
    """
    E = energy(qn)
    s, C, _ = radial_parameters(qn, E)

    def integrand(r):
        F, G = _radial_FG(qn.n, qn.k, qn.Z, E, C*r)
        return F*F + G*G

    total, _ = quad(integrand, 0.0, 80.0/C, epsabs=1e-13, epsrel=1e-12,
                    limit=300)
    A = 1.0/math.sqrt(total)
    j = qn.j
    return WaveFunction(
        qn=qn, energy=E, s=s, C=C, A=A,
        spinor_upper=SpinorFunction(qn.l_upper, j, qn.m_j),
        spinor_lower=SpinorFunction(qn.l_lower, j, qn.m_j),
    )


def probability_in_region(w: WaveFunction, r_lo: float, r_hi: float,
                          return_error: bool = False):
    """Probability of finding the electron in the radial shell [r_lo, r_hi].

    Radii in Bohr; r_hi may be inf.  The angular integral is exactly 1, so
    this reduces to the radial Born integral of A^2 (F^2 + G^2).
    """
    if not 0.0 <= r_lo < r_hi:
        raise ValueError(f"need 0 <= r_lo < r_hi, got [{r_lo!r}, {r_hi!r}]")
    lo = r_lo/ALPHA_FS
    hi = r_hi/ALPHA_FS
    cap = 100.0/w.C  # the tail beyond contributes < 1e-80 of the total
    lo, hi = min(lo, cap), min(hi, cap)
    if hi <= lo:
        return (0.0, 0.0) if return_error else 0.0

    def integrand(r):
        F, G = _radial_FG(w.qn.n, w.qn.k, w.qn.Z, w.energy, w.C*r)
        return w.A**2*(F*F + G*G)

    val, err = quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=300)
    return (val, err) if return_error else val
