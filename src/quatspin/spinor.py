"""Total-angular-momentum spinor functions (spin spherical harmonics).

A spinor function couples orbital angular momentum l with spin 1/2 into total
j = l +- 1/2, projection m_j:

    y(theta, phi) = C1 Y_l^{m_j - 1/2} |up>  +  C2 Y_l^{m_j + 1/2} |down>

with real Clebsch-Gordan weights C1, C2 (C1^2 + C2^2 = 1, so the
sphere-integrated density is exactly 1).  The biquaternion form expands the
same object on the spin-state quaternions.  Signs follow the standard
two-component convention under the Condon-Shortley harmonic phase:
for j = l + 1/2 both weights are nonnegative, for j = l - 1/2 the first
carries the minus sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .biquaternion import Biquaternion
from .special import spherical_harmonic
from .spin import spin_up, spin_down, inner

__all__ = [
    "SpinorFunction", "clebsch_coefficients", "spinor_as_vector",
    "spinor_as_biquaternion", "measure_probability",
]


_Q_UP = spin_up().value
_Q_DOWN = spin_down().value


def _is_half_odd(x: float) -> bool:
    return abs(2*x - round(2*x)) < 1e-9 and round(2*x) % 2 != 0


def clebsch_coefficients(l: int, j: float, m_j: float) -> tuple[float, float]:
    """Clebsch-Gordan weights (C1, C2) coupling l x 1/2 -> (j, m_j).

    C1 multiplies Y_l^{m_j-1/2} (up component), C2 multiplies Y_l^{m_j+1/2}
    (down component):

        j = l + 1/2:  C1 = +sqrt((l + m_j + 1/2)/(2l + 1)),
                      C2 = +sqrt((l - m_j + 1/2)/(2l + 1))
        j = l - 1/2:  C1 = -sqrt((l - m_j + 1/2)/(2l + 1)),
                      C2 = +sqrt((l + m_j + 1/2)/(2l + 1))

    Always C1^2 + C2^2 = 1.  Raises ValueError on an invalid triple.
    """
    if l != int(l) or l < 0:
        raise ValueError(f"l must be a nonnegative integer, got {l!r}")
    l = int(l)
    if not _is_half_odd(j) or not _is_half_odd(m_j):
        raise ValueError(f"j and m_j must be half-odd-integers, got {j}, {m_j}")
    if abs(m_j) > j + 1e-9:
        raise ValueError(f"|m_j| must not exceed j, got m_j={m_j}, j={j}")
    if abs(j - (l + 0.5)) < 1e-9:
        c1 = math.sqrt((l + m_j + 0.5)/(2*l + 1))
        c2 = math.sqrt((l - m_j + 0.5)/(2*l + 1))
    elif abs(j - (l - 0.5)) < 1e-9 and j > 0:
        c1 = -math.sqrt((l - m_j + 0.5)/(2*l + 1))
        c2 = math.sqrt((l + m_j + 0.5)/(2*l + 1))
    else:
        raise ValueError(f"j must be l +- 1/2 and positive, got l={l}, j={j}")
    return c1, c2


@dataclass(frozen=True)
class SpinorFunction:
    """Angular eigenfunction of (J^2, J_z, L^2) for given (l, j, m_j)."""

    l: int
    j: float
    m_j: float
    c1: float = field(init=False)
    c2: float = field(init=False)

    def __post_init__(self):
        c1, c2 = clebsch_coefficients(self.l, self.j, self.m_j)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)

    def harmonic(self, which: str, theta, phi):
        """Y_l^{m_j -+ 1/2} for which in {'up','down'}; zero if |m| > l."""
        m = self.m_j - 0.5 if which == "up" else self.m_j + 0.5
        m = int(round(m))
        if abs(m) > self.l:
            # the paired Clebsch weight is zero there as well
            z = np.zeros(np.broadcast(np.asarray(theta),
                                      np.asarray(phi)).shape, dtype=complex)
            return z if z.ndim else z[()]
        return spherical_harmonic(self.l, m, theta, phi)


def spinor_as_vector(s: SpinorFunction, theta, phi) -> np.ndarray:
    """Two-component form (C1 Y_l^{m_j-1/2}, C2 Y_l^{m_j+1/2})."""
    return np.array([s.c1*s.harmonic("up", theta, phi),
                     s.c2*s.harmonic("down", theta, phi)])


def spinor_as_biquaternion(s: SpinorFunction, theta,
                           phi) -> Biquaternion:
    """Biquaternion form C1 Y1 q+ + C2 Y2 q-, Y1 = Y_l^{m_j-1/2},
    Y2 = Y_l^{m_j+1/2}, on the spin-state quaternions q+ and q-.

    theta and phi broadcast; array angles give array coefficients.
    """
    return (_Q_UP*(s.c1*s.harmonic("up", theta, phi))
            + _Q_DOWN*(s.c2*s.harmonic("down", theta, phi)))


def measure_probability(state: str, s: SpinorFunction, theta, phi):
    """Probability density of measuring spin 'up' or 'down' at (theta, phi).

    Squared magnitude of the bra projection onto the spinor; up and down add
    up pointwise to the spinor's total density |C1 Y1|^2 + |C2 Y2|^2.
    theta and phi broadcast.
    """
    if state not in ("up", "down"):
        raise ValueError(f"state must be 'up' or 'down', got {state!r}")
    ket = spin_up() if state == "up" else spin_down()
    amp = inner(ket, spinor_as_biquaternion(s, theta, phi))
    return abs(amp)**2
