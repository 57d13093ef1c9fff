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

from ._record import Record
from .biquaternion import Biquaternion, _bq
from .special import spherical_harmonics
from .spin import _Q_UP, _Q_DOWN, inner

__all__ = [
    "SpinorFunction", "clebsch_coefficients", "spinor_components",
    "spinor_as_vector", "spinor_as_biquaternion", "spinor_biquaternions",
    "measure_probability",
]


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


class SpinorFunction(Record):
    """Angular eigenfunction of (J^2, J_z, L^2) for given (l, j, m_j)."""

    l: int
    j: float
    m_j: float
    c1: float
    c2: float

    def __init__(self, l: int, j: float, m_j: float):
        d = self.__dict__
        d["l"], d["j"], d["m_j"] = l, j, m_j
        d["c1"], d["c2"] = clebsch_coefficients(l, j, m_j)

    def harmonic(self, which: str, theta, phi):
        """Y_l^{m_j -+ 1/2} for which in {'up','down'}; zero if |m| > l."""
        m = self.m_j - 0.5 if which == "up" else self.m_j + 0.5
        return spherical_harmonics((self.l,), int(round(m)), theta, phi)[0]


def spinor_components(s: SpinorFunction, theta, phi) -> tuple:
    """Two-component form (C1 Y_l^{m_j-1/2}, C2 Y_l^{m_j+1/2}) as a pair;
    Python complex values at Python-float angles."""
    return (s.c1*s.harmonic("up", theta, phi),
            s.c2*s.harmonic("down", theta, phi))


def spinor_as_vector(s: SpinorFunction, theta, phi):
    """spinor_components stacked into one ndarray (leading axis of 2)."""
    import numpy as np
    return np.array(spinor_components(s, theta, phi))


def spinor_biquaternions(spinors, theta, phi) -> list[Biquaternion]:
    """Biquaternion forms C1 Y1 q+ + C2 Y2 q- of spinors that share m_j,
    Y1 = Y_l^{m_j-1/2}, Y2 = Y_l^{m_j+1/2}, on the spin-state quaternions
    q+ and q-.

    The Y1 of every spinor come from one column pass of the Legendre
    recurrence and the Y2 from another, so the two spinors of a Dirac state
    (l and l +- 1) cost two passes, not four.  theta and phi broadcast;
    array angles give array coefficients.
    """
    m_j = spinors[0].m_j
    if any(s.m_j != m_j for s in spinors):
        raise ValueError("spinors must share m_j")
    ls = [s.l for s in spinors]
    y1 = spherical_harmonics(ls, int(round(m_j - 0.5)), theta, phi)
    y2 = spherical_harmonics(ls, int(round(m_j + 0.5)), theta, phi)
    out = []
    for s, a, b in zip(spinors, y1, y2):
        c, d = s.c1*a, s.c2*b
        # q+ c + q- d: each 0j is the other term's structural zero, which
        # also fixes the sign of zero parts
        out.append(_bq(c*_Q_UP.q0 + 0j, c*_Q_UP.q1 + 0j,
                       0j + d*_Q_DOWN.q2, 0j + d*_Q_DOWN.q3))
    return out


def spinor_as_biquaternion(s: SpinorFunction, theta,
                           phi) -> Biquaternion:
    """Biquaternion form of one spinor (see spinor_biquaternions)."""
    return spinor_biquaternions((s,), theta, phi)[0]


def measure_probability(state: str, s: SpinorFunction, theta, phi):
    """Probability density of measuring spin 'up' or 'down' at (theta, phi).

    Squared magnitude of the bra projection onto the spinor; up and down add
    up pointwise to the spinor's total density |C1 Y1|^2 + |C2 Y2|^2.
    theta and phi broadcast.
    """
    if state not in ("up", "down"):
        raise ValueError(f"state must be 'up' or 'down', got {state!r}")
    ket = _Q_UP if state == "up" else _Q_DOWN
    amp = inner(ket, spinor_as_biquaternion(s, theta, phi))
    return abs(amp)**2
