"""Spin-1/2 in the biquaternion representation.

States are unit-norm biquaternions, operators act by left Hamilton
multiplication, and rotations conjugate.  The dictionary is

    sigma_x <-> q_x = -i e3      spin-up   q+ = (1/sqrt2)(e0 - i e1)
    sigma_y <-> q_y = -i e2      spin-down q- = (1/sqrt2)(-e2 - i e3)
    sigma_z <-> q_z = -i e1
    I       <-> e0

so S_a = (hbar/2) q_a.  Bras are conj_both of kets; the inner product is read
off the scalar and e1 coefficients of bra times ket; outer products |a><b|
are (1/2) a conj_both(b).  hbar = 1 (natural units) throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .biquaternion import (
    Biquaternion, E0, E1, E2, E3, mul, conj_both, conj_vec, norm_sq,
)

__all__ = [
    "HBAR", "SpinState", "SpinOperator", "RotationOperator",
    "pauli_quaternion", "spin_operator", "spin_up", "spin_down",
    "superposition", "apply", "bra", "inner", "outer", "outer_reconstruct",
    "rotation", "dagger", "rotate_operator", "rotated_pauli", "ladder",
]

HBAR = 1.0

# unit assignment: spatial axes (x, y, z) ride on units (e3, e2, e1)
_AXIS_UNIT = {"x": E3, "y": E2, "z": E1}

_PAULI_QUAT = {
    "x": Biquaternion(0, 0, 0, -1j),
    "y": Biquaternion(0, 0, -1j, 0),
    "z": Biquaternion(0, -1j, 0, 0),
    "identity": E0,
}

_Q_UP = Biquaternion(1, -1j, 0, 0)*math.sqrt(0.5)
_Q_DOWN = Biquaternion(0, 0, -1, -1j)*math.sqrt(0.5)


@dataclass(frozen=True)
class SpinState:
    """Unit-norm biquaternion playing the role of a ket."""

    value: Biquaternion
    label: str = ""

    def __post_init__(self):
        n = norm_sq(self.value)
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"state not normalized: norm_sq = {n!r}")


@dataclass(frozen=True)
class SpinOperator:
    """Spin observable: a Pauli quaternion times a real scale (default hbar/2)."""

    value: Biquaternion
    scale: float = HBAR/2


@dataclass(frozen=True)
class RotationOperator:
    """Half-angle rotation quaternion about a unit axis.

    value = e0 cos(phi/2) - (nx e3 + ny e2 + nz e1) sin(phi/2); unit norm for
    every angle, and D(n, 2pi) = -e0 (spinor double cover).
    """

    axis: tuple[float, float, float]
    angle: float
    value: Biquaternion = field(init=False)

    def __post_init__(self):
        nx, ny, nz = self.axis
        r = math.sqrt(nx*nx + ny*ny + nz*nz)
        if abs(r - 1.0) > 1e-12:
            raise ValueError(f"axis must be a unit vector, |n| = {r!r}")
        c = math.cos(self.angle/2)
        s = math.sin(self.angle/2)
        object.__setattr__(self, "value",
                           Biquaternion(c, -nz*s, -ny*s, -nx*s))


def pauli_quaternion(axis: str) -> Biquaternion:
    """Pauli quaternion for 'x', 'y', 'z', or 'identity'.

    Returns -i e3, -i e2, -i e1, or e0 respectively; the matrix image of each
    is the correspondingly named Pauli matrix.
    """
    try:
        return _PAULI_QUAT[axis]
    except KeyError:
        raise ValueError(f"unknown axis {axis!r}") from None


def spin_operator(axis: str, scale: float = HBAR/2) -> SpinOperator:
    return SpinOperator(pauli_quaternion(axis), scale)


def spin_up() -> SpinState:
    """q+ = (1/sqrt2)(e0 - i e1), the sigma_z eigenstate with eigenvalue +1."""
    return SpinState(_Q_UP, "up")


def spin_down() -> SpinState:
    """q- = (1/sqrt2)(-e2 - i e3), the sigma_z eigenstate with eigenvalue -1."""
    return SpinState(_Q_DOWN, "down")


def superposition(c_up: complex, c_down: complex, label: str = "") -> SpinState:
    """Normalized c_up |+> + c_down |->."""
    n = math.sqrt(abs(c_up)**2 + abs(c_down)**2)
    if n == 0.0:
        raise ValueError("zero state")
    return SpinState(_Q_UP*(c_up/n) + _Q_DOWN*(c_down/n), label)


def _value(x) -> Biquaternion:
    return x.value if hasattr(x, "value") else x


def apply(op: SpinOperator, state) -> Biquaternion:
    """Operator action: scale times left Hamilton multiplication.

    The result is not renormalized; eigen-actions carry their eigenvalue
    factors (e.g. S_z on down gives -(hbar/2) q-).
    """
    return mul(op.value, _value(state))*op.scale


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
    up, dn = _Q_UP, _Q_DOWN
    if form == "Sz":
        return outer(up, up) - outer(dn, dn)
    if form == "Sx":
        return outer(up, dn) + outer(dn, up)
    if form == "Sy":
        return (outer(dn, up) - outer(up, dn))*1j
    raise ValueError(f"unknown form {form!r}")


def rotation(axis, angle: float) -> RotationOperator:
    """Rotation operator about a unit axis ('x'/'y'/'z' or a 3-vector)."""
    if isinstance(axis, str):
        vec = {"x": (1.0, 0.0, 0.0),
               "y": (0.0, 1.0, 0.0),
               "z": (0.0, 0.0, 1.0)}.get(axis)
        if vec is None:
            raise ValueError(f"unknown axis {axis!r}")
        axis = vec
    return RotationOperator(tuple(float(c) for c in axis), float(angle))


def dagger(D: RotationOperator) -> RotationOperator:
    """Adjoint rotation: angle negation (= conj_vec on the real quaternion)."""
    return RotationOperator(D.axis, -D.angle)


def rotate_operator(D: RotationOperator, S: SpinOperator) -> Biquaternion:
    """Conjugate an operator: scale * dagger(D) S D.

    For D about axis i and S along j with (i, j, k) right-handed cyclic the
    result is scale*(q_j cos phi - q_k sin phi); see rotated_pauli.
    """
    return mul(mul(dagger(D).value, S.value), D.value)*S.scale


def rotated_pauli(rot_axis: str, op_axis: str, angle: float) -> Biquaternion:
    """Closed form of dagger(D) q_j D for named axes.

    Same axis returns q_j unchanged; otherwise q_j cos(phi) - q_k sin(phi)
    with k completing (i, j, k) right-handed, picking up the epsilon sign
    when (i, j) are anti-cyclic.
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
    return qj*math.cos(angle) - qk*(eps*math.sin(angle))


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
