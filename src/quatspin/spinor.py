"""Total-angular-momentum spinor functions (spin spherical harmonics).

A spinor function couples orbital angular momentum l with spin 1/2 into total
j = l +- 1/2, projection m_j:

    y(theta, phi) = C1 Y_l^{m_j - 1/2} |up>  +  C2 Y_l^{m_j + 1/2} |down>

with real Clebsch-Gordan weights C1, C2 (C1^2 + C2^2 = 1, so the
sphere-integrated density is exactly 1).  The biquaternion form expands the
same object on the spin-state quaternions.  Signs follow the standard
two-component convention under the Condon-Shortley harmonic phase:
for j = l + 1/2 both weights are nonnegative, for j = l - 1/2 the first
carries the minus sign.  A SpinorFunction builds the orders m_j -+ 1/2
and their Legendre columns once, for every evaluation; its phi-free density
|y|^2 is the angular factor of the hydrogen density.
"""

from __future__ import annotations

import math

from ._record import Record
from .biquaternion import Biquaternion, _bq
from .levels import _is_half_odd
from .special import _angles, _columns, _harmonics, _legendre_column
from .spin import _Q_UP, _Q_DOWN, inner

__all__ = [
    "SpinorFunction", "clebsch_coefficients", "spinor_components",
    "spinor_as_vector", "spinor_as_biquaternion", "measure_probability",
]

# the nonzero coefficients of the spin-state quaternions q+ and q-
_UP0, _UP1, _DOWN2, _DOWN3 = _Q_UP.q0, _Q_UP.q1, _Q_DOWN.q2, _Q_DOWN.q3


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
    if abs(m_j) > j:
        raise ValueError(f"|m_j| must not exceed j, got m_j={m_j}, j={j}")
    if j == l + 0.5:
        c1 = math.sqrt((l + m_j + 0.5)/(2*l + 1))
        c2 = math.sqrt((l - m_j + 0.5)/(2*l + 1))
    elif j == l - 0.5 and j > 0:
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

    # not a field: (l,), m_j -+ 1/2, their (|m|, column) and (c1^2, c2^2)
    __slots__ = ("_tables",)

    def __init__(self, l: int, j: float, m_j: float):
        d = self.__dict__
        d["l"], d["j"], d["m_j"] = l, j, m_j
        d["c1"], d["c2"] = c1, c2 = clebsch_coefficients(l, j, m_j)
        ms = (int(round(m_j - 0.5)), int(round(m_j + 0.5)))
        object.__setattr__(self, "_tables", (
            (int(l),), ms,
            tuple((abs(m), _legendre_column(int(l), abs(m))) for m in ms),
            (c1*c1, c2*c2)))

    def __reduce__(self):
        # copies and pickles carry (l, j, m_j); __init__ derives the rest
        return type(self), (self.l, self.j, self.m_j)

    def _harmonic(self, i: int, theta, phi):
        """Y_l^{m_j -+ 1/2} (i = 0, 1) at angles from special._angles."""
        deg, ms, orders, _ = self._tables
        return _harmonics(deg, ms[i], orders[i][1], theta, phi)[0]

    def harmonic(self, which: str, theta, phi):
        """Y_l^{m_j -+ 1/2} for which in {'up','down'}; zero if |m| > l."""
        if which not in ("up", "down"):
            raise ValueError(f"which must be 'up' or 'down', got {which!r}")
        return self._harmonic(which == "down", *_angles(theta, phi))

    def density(self, theta):
        """|y|^2 = c1^2 (Pbar_l^|m1| sin^|m1|)^2 + c2^2 (Pbar_l^|m2| sin^|m2|)^2
        at theta from the real columns (special._columns): no phi, no complex
        value.  A Python float gives a Python float, an array an array."""
        deg, _, orders, (w1, w2) = self._tables
        p1, p2 = _columns(deg, orders, theta)
        return w1*(p1*p1) + w2*(p2*p2)


def spinor_components(s: SpinorFunction, theta, phi) -> tuple:
    """Two-component form (C1 Y_l^{m_j-1/2}, C2 Y_l^{m_j+1/2}) as a pair;
    Python complex values at Python-float angles."""
    theta, phi = _angles(theta, phi)
    return s.c1*s._harmonic(0, theta, phi), s.c2*s._harmonic(1, theta, phi)


def spinor_as_vector(s: SpinorFunction, theta, phi):
    """spinor_components stacked into one ndarray (leading axis of 2)."""
    import numpy as np
    return np.array(spinor_components(s, theta, phi))


def _spin_basis(c, d) -> tuple:
    """Coefficients of c q+ + d q- on the spin-state quaternions q+ and q-:
    the one assembly of a spinor's biquaternion form, for scalars and
    arrays alike.  Each 0j is the other term's structural zero, which also
    fixes the sign of zero parts."""
    return c*_UP0 + 0j, c*_UP1 + 0j, 0j + d*_DOWN2, 0j + d*_DOWN3


def spinor_as_biquaternion(s: SpinorFunction, theta,
                           phi) -> Biquaternion:
    """Biquaternion form C1 Y_l^{m_j-1/2} q+ + C2 Y_l^{m_j+1/2} q- of a
    spinor, on the spin-state quaternions q+ and q-.  theta and phi
    broadcast; array angles give array coefficients."""
    return _bq(*_spin_basis(*spinor_components(s, theta, phi)))


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
