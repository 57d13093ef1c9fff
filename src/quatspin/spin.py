"""Spin-1/2 in the biquaternion representation.

States are unit-norm biquaternions, operators act by left Hamilton
multiplication, and rotations conjugate.  The dictionary is

    sigma_x <-> q_x = -i e3      spin-up   q+ = (1/sqrt2)(e0 - i e1)
    sigma_y <-> q_y = -i e2      spin-down q- = (1/sqrt2)(-e2 - i e3)
    sigma_z <-> q_z = -i e1
    I       <-> e0

so S_a is the biquaternion (hbar/2) q_a.  Bras are conj_both of kets; the
inner product is read off the scalar and e1 coefficients of bra times ket;
outer products |a><b| are (1/2) a conj_both(b).  hbar = 1 (natural units).
States and rotations batch: amplitudes, axes and angles may be arrays, while
Python scalars stay on Python floats and load no numpy.
"""

from __future__ import annotations

import math

from ._record import Record
from .biquaternion import (
    Biquaternion, E0, mul, conj_both, norm_sq, _any, _peak,
)

__all__ = [
    "HBAR", "SpinState", "RotationOperator",
    "pauli_quaternion", "spin_operator", "spin_up", "spin_down",
    "superposition", "apply", "bra", "inner", "outer", "outer_reconstruct",
    "rotation", "dagger", "rotate_operator", "rotated_pauli", "ladder",
]

HBAR = 1.0

_PAULI_QUAT = {
    "x": Biquaternion(0, 0, 0, -1j),
    "y": Biquaternion(0, 0, -1j, 0),
    "z": Biquaternion(0, -1j, 0, 0),
    "identity": E0,
}

_Q_UP = Biquaternion(1, -1j, 0, 0)*math.sqrt(0.5)
_Q_DOWN = Biquaternion(0, 0, -1, -1j)*math.sqrt(0.5)


def _lib(*xs):
    """math when every argument is a Python scalar, numpy otherwise."""
    if all(isinstance(x, (int, float, complex)) for x in xs):
        return math
    import numpy as np
    return np


class SpinState(Record):
    """Unit-norm biquaternion (or batch of them) playing the role of a ket."""

    value: Biquaternion

    def __init__(self, value: Biquaternion):
        self.__dict__["value"] = value
        n = norm_sq(value)
        if not _peak(n - 1.0) <= 1e-9:
            raise ValueError(f"state not normalized: norm_sq = {n!r}")


class RotationOperator(Record):
    """Half-angle rotation quaternion about a unit axis.

    value = e0 cos(phi/2) - (nx e3 + ny e2 + nz e1) sin(phi/2); unit norm for
    every angle, and D(n, 2pi) = -e0 (spinor double cover).
    """

    axis: tuple
    angle: float
    value: Biquaternion

    def __init__(self, axis: tuple, angle: float):
        nx, ny, nz = axis
        lib = _lib(nx, ny, nz, angle)
        r = lib.sqrt(nx*nx + ny*ny + nz*nz)
        if not _peak(r - 1.0) <= 1e-12:
            raise ValueError(f"axis must be a unit vector, |n| = {r!r}")
        c = lib.cos(angle/2)
        s = lib.sin(angle/2)
        d = self.__dict__
        d["axis"], d["angle"] = axis, angle
        d["value"] = Biquaternion(c, -nz*s, -ny*s, -nx*s)


def pauli_quaternion(axis: str) -> Biquaternion:
    """Pauli quaternion for 'x', 'y', 'z', or 'identity'.

    Returns -i e3, -i e2, -i e1, or e0 respectively; the matrix image of each
    is the correspondingly named Pauli matrix.
    """
    try:
        return _PAULI_QUAT[axis]
    except KeyError:
        raise ValueError(f"unknown axis {axis!r}") from None


def spin_operator(axis: str) -> Biquaternion:
    """S_a = (hbar/2) q_a for 'x', 'y', 'z' (or 'identity')."""
    return pauli_quaternion(axis)*(HBAR/2)


def spin_up() -> SpinState:
    """q+ = (1/sqrt2)(e0 - i e1), the sigma_z eigenstate with eigenvalue +1."""
    return SpinState(_Q_UP)


def spin_down() -> SpinState:
    """q- = (1/sqrt2)(-e2 - i e3), the sigma_z eigenstate with eigenvalue -1."""
    return SpinState(_Q_DOWN)


def superposition(c_up, c_down) -> SpinState:
    """Normalized c_up |+> + c_down |-> (a batch for array amplitudes);
    ValueError for a zero pair or a NaN or infinite amplitude."""
    lib = _lib(c_up, c_down)
    # size, a quarter of 1 + |re| + |im| summed over both amplitudes, is
    # finite iff they are; dividing the pair by the power of two t <= size
    # < 2t first is exact, so the digits stay those of c/|c|, while every
    # |re| and |im| falls below 8 and hypot cannot overflow.  Where size
    # rounds to 1/4 every part is below 2^-53, and t = 2^-602 lifts them
    # all (subnormals too) into the normal range, so that |c| and 1/|c|
    # are normal floats
    size = sum([0.25] + [abs(x)/4 for c in (c_up, c_down)
                         for x in (c.real, c.imag)])
    if not _peak(size) < math.inf:
        raise ValueError("amplitudes must be finite")
    t = lib.ldexp(1.0, lib.frexp(size)[1] - 1)/2.0**(600*(size == 0.25))
    c_up, c_down = c_up/t, c_down/t
    n = lib.hypot(abs(c_up), abs(c_down))
    if _any(n == 0.0):
        raise ValueError("zero state")
    return SpinState(_Q_UP*(c_up/n) + _Q_DOWN*(c_down/n))


def _value(x) -> Biquaternion:
    return x.value if hasattr(x, "value") else x


def apply(op: Biquaternion, state) -> Biquaternion:
    """Operator action: left Hamilton multiplication.

    The result is not renormalized; eigen-actions carry their eigenvalue
    factors (e.g. S_z on down gives -(hbar/2) q-).
    """
    return mul(op, _value(state))


def bra(state) -> Biquaternion:
    """Bra of a ket: conj_both of its biquaternion."""
    return conj_both(_value(state))


def inner(a, b) -> complex:
    """Inner product <a|b>.

    Read off the product p = conj_both(a) b as (p0 + i p1)/2; equals the C^2
    dot product of the ket vectors under the matrix representation.
    """
    p = mul(conj_both(_value(a)), _value(b))
    return (p.q0 + 1j*p.q1)/2


def outer(a, b) -> Biquaternion:
    """Outer product |a><b| as a biquaternion: (1/2) a conj_both(b).

    The 1/2 makes the matrix image equal ket(a) ket(b)^dagger.
    """
    return mul(_value(a), conj_both(_value(b)))*0.5


def outer_reconstruct(form: str) -> Biquaternion:
    """Rebuild a Pauli quaternion from ket/bra outer products.

    'Sz' -> |+><+| - |-><-|, 'Sx' -> |+><-| + |-><+|,
    'Sy' -> i(|-><+| - |+><-|); each equals 2/hbar times the operator, i.e.
    the plain Pauli quaternion -i e1 / -i e3 / -i e2.
    """
    if form == "Sz":
        return outer(_Q_UP, _Q_UP) - outer(_Q_DOWN, _Q_DOWN)
    if form == "Sx":
        return outer(_Q_UP, _Q_DOWN) + outer(_Q_DOWN, _Q_UP)
    if form == "Sy":
        return (outer(_Q_DOWN, _Q_UP) - outer(_Q_UP, _Q_DOWN))*1j
    raise ValueError(f"unknown form {form!r}")


def rotation(axis, angle) -> RotationOperator:
    """Rotation about 'x'/'y'/'z' or a unit axis (nx, ny, nz); arrays batch."""
    if isinstance(axis, str):
        vec = {"x": (1.0, 0.0, 0.0),
               "y": (0.0, 1.0, 0.0),
               "z": (0.0, 0.0, 1.0)}.get(axis)
        if vec is None:
            raise ValueError(f"unknown axis {axis!r}")
        axis = vec
    if _lib(*axis, angle) is math:
        axis, angle = (float(c) for c in axis), float(angle)
    return RotationOperator(tuple(axis), angle)


def dagger(D: RotationOperator) -> RotationOperator:
    """Adjoint rotation: angle negation (= conj_vec on the real quaternion)."""
    return RotationOperator(D.axis, -D.angle)


def rotate_operator(D: RotationOperator, S: Biquaternion) -> Biquaternion:
    """Conjugate an operator: dagger(D) S D.

    For D about axis i and S along j with (i, j, k) right-handed cyclic the
    result is q_j cos phi - q_k sin phi times S's scale; see rotated_pauli.
    """
    return mul(mul(dagger(D).value, S), D.value)


def rotated_pauli(rot_axis: str, op_axis: str, angle) -> Biquaternion:
    """Closed form of dagger(D) q_j D for named axes.

    Same axis returns q_j unchanged; otherwise q_j cos(phi) - q_k sin(phi)
    with k completing (i, j, k) right-handed, picking up the epsilon sign
    when (i, j) are anti-cyclic.  An array angle gives a batch.
    """
    if rot_axis == op_axis:
        return pauli_quaternion(op_axis)
    order = "xyz"
    i, j = order.index(rot_axis), order.index(op_axis)
    k = 3 - i - j
    # epsilon_{ijk} = +1 for cyclic (i, j), -1 for anti-cyclic
    eps = 1.0 if (j - i) % 3 == 1 else -1.0
    qj = pauli_quaternion(op_axis)
    qk = pauli_quaternion(order[k])
    lib = _lib(angle)
    return qj*lib.cos(angle) - qk*(eps*lib.sin(angle))


def ladder(sign: str) -> Biquaternion:
    """Raising/lowering quaternion.

    '+' -> (1/2)(e2 - i e3) and '-' -> (1/2)(-e2 - i e3); these carry a 1/2
    prefactor relative to the textbook S+- = Sx +- i Sy convention (they are
    (1/2)(q_x +- i q_y)), are nilpotent, and map between q+ and q-:
    ladder('+') q- = q+, ladder('-') q+ = q-.  ladder('-') = conj_both of
    ladder('+').
    """
    if sign == "+":
        return Biquaternion(0, 0, 0.5, -0.5j)
    if sign == "-":
        return Biquaternion(0, 0, -0.5, -0.5j)
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")
