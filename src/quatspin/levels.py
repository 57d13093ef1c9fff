"""Bound-state labels and Sommerfeld energies of the relativistic
one-electron atom, on Python floats alone (no numpy).

Quantum numbers: principal n >= 1 and the Dirac number k (= -(j+1/2) when
l = j - 1/2, +(j+1/2) when l = j + 1/2; the ground state is k = -1), with
j = |k| - 1/2.  The radial index n_r = n - |k| counts Laguerre degrees, and
n = |k| requires k < 0.  Energies are in units of mc^2 = 510998.95 eV:

    E = [1 + (Z alpha / (n_r + s))^2]^{-1/2},   s = sqrt(k^2 - (Z alpha)^2).

_level derives a level's radial parameters once; every radial function, the
wavefunction and the energy table read them from its record.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._record import Record

__all__ = [
    "ALPHA_FS", "MC2_EV", "QuantumNumbers", "l_of_k",
    "sommerfeld_energy", "energy", "binding_energy_ev",
    "radial_parameters",
]

ALPHA_FS = 7.2973525693e-3   # fine-structure constant
MC2_EV = 510998.95           # electron rest energy in eV


def l_of_k(k: int) -> int:
    """Orbital angular momentum attached to a Dirac quantum number."""
    return k if k > 0 else -k - 1


def _is_int(x) -> bool:
    """True for integral numbers (3 or 3.0); False for bools, NaN and inf.
    numbers is imported only for a value that is no plain int or float, so
    the command line, which passes those, never loads it."""
    if type(x) not in (int, float):
        import numbers
        if not isinstance(x, numbers.Real) or isinstance(x, bool):
            return False
    return math.isfinite(x) and x == int(x)


def _is_half_odd(x) -> bool:
    """True for exact half-odd integers (0.5, -1.5, ...): 2x is then an odd
    integer, exactly; False for NaN and inf."""
    return (2*x) % 2 == 1


class QuantumNumbers(Record):
    """Bound-state labels (n, k, m_j, Z) with Dirac validity constraints."""

    n: int
    k: int
    m_j: float
    Z: int

    def __init__(self, n: int, k: int, m_j: float = 0.5, Z: int = 1):
        d = self.__dict__
        d["n"], d["k"], d["m_j"], d["Z"] = n, k, m_j, Z
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
        if not _is_half_odd(self.m_j):
            raise ValueError(f"m_j must be half-odd-integer, got {self.m_j!r}")
        if abs(self.m_j) > j:
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


def binding_energy_ev(qn: QuantumNumbers) -> float:
    """E - mc^2 in eV (negative for bound states)."""
    return -_level(qn).eps*MC2_EV


def radial_parameters(qn: QuantumNumbers):
    """(s, C, scale): exponent s, decay constant C = sqrt(1 - E^2) in natural
    units, and scale = C/alpha = rho per Bohr radius."""
    lv = _level(qn)
    return lv.s, lv.C, lv.C/ALPHA_FS


# a level's radial parameters: za = Z alpha, s = sqrt(k^2 - za^2), the
# energy E, eps = 1 - E, C = sqrt(1 - E^2), sk = s - k, W = (s - kE)/C
_Level = namedtuple("_Level", "n k za s E eps C sk W")


def _level(qn: QuantumNumbers, E: float | None = None) -> _Level:
    """The radial parameters of qn at its Sommerfeld energy, or at an
    explicit E (the off-shell probes of verify.ode_residual and of
    shooting).  Raises ValueError unless 0 < E < 1."""
    if E is None:
        E = energy(qn)
    if not 0.0 < E < 1.0:
        raise ValueError(f"bound state requires 0 < E < mc^2, got E = {E!r}")
    za = qn.Z*ALPHA_FS
    s = math.sqrt(qn.k*qn.k - za*za)
    C = math.sqrt(1.0 - E*E)
    return _Level(qn.n, qn.k, za, s, E, 1.0 - E, C, s - qn.k,
                  (s - qn.k*E)/C)
