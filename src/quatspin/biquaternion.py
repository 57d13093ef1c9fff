"""Complex-coefficient quaternion (biquaternion) algebra.

A biquaternion is q = q0 e0 + q1 e1 + q2 e2 + q3 e3 with complex coefficients
and Hamilton units:

    e1 e2 = e3,  e2 e3 = e1,  e3 e1 = e2,  ek^2 = -e0,
    distinct vector units anticommute, e0 is the identity,

with the ordinary imaginary unit i commuting with every ek.  The cross-product
orientation is right-handed (e1 x e2 = e3).

Three conjugations act on the algebra:

    conj_vec      negates the vector part               (anti-automorphism)
    conj_complex  conjugates each complex coefficient   (automorphism)
    conj_both     does both                             (anti-automorphism)

Two distinct quadratic quantities matter.  norm_sq(q) = Sc(q conj_both(q)) is
the positive-definite Euclidean norm of the 8 real components and never
vanishes for q != 0.  quadratic_form(q) = Sc(q conj_vec(q)) = q0^2+q1^2+q2^2+q3^2
is complex-valued and governs invertibility: it vanishes exactly on the zero
divisors, where no inverse exists.

Coefficients may be broadcastable numpy arrays: one Biquaternion then holds a
batch, and products, conjugations and norms act elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Biquaternion", "E0", "E1", "E2", "E3",
    "mul", "decompose", "conj_vec", "conj_complex", "conj_both",
    "norm_sq", "quadratic_form", "inverse", "is_zero_divisor",
    "allclose", "is_real",
]

TOL = 1e-12


def _coef(x):
    """Scalars become Python complex; arrays become complex ndarrays."""
    if type(x) is complex:
        return x
    if isinstance(x, (complex, float, int)):
        return complex(x)
    a = np.asarray(x, dtype=complex)
    return complex(a) if a.ndim == 0 else a


@dataclass(frozen=True, eq=False)
class Biquaternion:
    """Immutable biquaternion with coefficients q0..q3 on e0..e3.

    Each coefficient is a complex scalar or a broadcastable complex array.
    ==, hash, inverse and is_zero_divisor are for scalar coefficients only.
    """

    q0: complex = 0j
    q1: complex = 0j
    q2: complex = 0j
    q3: complex = 0j

    # numpy defers to __rmul__: array * q scales q, not an object array
    __array_ufunc__ = None

    def __post_init__(self):
        object.__setattr__(self, "q0", _coef(self.q0))
        object.__setattr__(self, "q1", _coef(self.q1))
        object.__setattr__(self, "q2", _coef(self.q2))
        object.__setattr__(self, "q3", _coef(self.q3))

    def coefficients(self) -> tuple[complex, complex, complex, complex]:
        return (self.q0, self.q1, self.q2, self.q3)

    @property
    def scalar(self) -> complex:
        """Sc(q), the e0 coefficient."""
        return self.q0

    @property
    def vector(self) -> "Biquaternion":
        """Vec(q), the e1..e3 part."""
        return Biquaternion(0, self.q1, self.q2, self.q3)

    def __add__(self, other: "Biquaternion") -> "Biquaternion":
        return Biquaternion(self.q0 + other.q0, self.q1 + other.q1,
                            self.q2 + other.q2, self.q3 + other.q3)

    def __sub__(self, other: "Biquaternion") -> "Biquaternion":
        return Biquaternion(self.q0 - other.q0, self.q1 - other.q1,
                            self.q2 - other.q2, self.q3 - other.q3)

    def __neg__(self) -> "Biquaternion":
        return Biquaternion(-self.q0, -self.q1, -self.q2, -self.q3)

    def __mul__(self, other):
        if isinstance(other, Biquaternion):
            return mul(self, other)
        c = _coef(other)
        return Biquaternion(c*self.q0, c*self.q1, c*self.q2, c*self.q3)

    def __rmul__(self, other):
        # scalars commute with everything, so left scalar product is the same
        return self.__mul__(other)

    def __truediv__(self, other):
        c = _coef(other)
        return Biquaternion(self.q0/c, self.q1/c, self.q2/c, self.q3/c)

    def __eq__(self, other) -> bool:
        # exact coefficient equality; use allclose for tolerant comparison
        if not isinstance(other, Biquaternion):
            return NotImplemented
        return self.coefficients() == other.coefficients()

    def __hash__(self) -> int:
        return hash(self.coefficients())

    def __repr__(self) -> str:
        return (f"Biquaternion({self.q0!r}, {self.q1!r}, "
                f"{self.q2!r}, {self.q3!r})")


E0 = Biquaternion(1, 0, 0, 0)
E1 = Biquaternion(0, 1, 0, 0)
E2 = Biquaternion(0, 0, 1, 0)
E3 = Biquaternion(0, 0, 0, 1)


def mul(a: Biquaternion, b: Biquaternion) -> Biquaternion:
    """Hamilton product, bilinear over the complex scalars.

    The component expansion follows from the unit table e1e2=e3, e2e3=e1,
    e3e1=e2, ek^2=-e0 with right-handed orientation.
    """
    a0, a1, a2, a3 = a.q0, a.q1, a.q2, a.q3
    b0, b1, b2, b3 = b.q0, b.q1, b.q2, b.q3
    return Biquaternion(
        a0*b0 - a1*b1 - a2*b2 - a3*b3,
        a0*b1 + a1*b0 + a2*b3 - a3*b2,
        a0*b2 - a1*b3 + a2*b0 + a3*b1,
        a0*b3 + a1*b2 - a2*b1 + a3*b0,
    )


def decompose(a: Biquaternion, b: Biquaternion) -> tuple[complex, Biquaternion]:
    """Split the product ab into (Sc(ab), Vec(ab)).

    Sc(ab) = Sc(a)Sc(b) - <Vec a, Vec b> with the complex bilinear dot
    product; Vec(ab) carries the commutator (cross) and mixed scalar-vector
    terms.  Sc + Vec reassembles mul(a, b).
    """
    p = mul(a, b)
    return p.q0, p.vector


def conj_vec(q: Biquaternion) -> Biquaternion:
    """Quaternion conjugate: negate the vector part."""
    return Biquaternion(q.q0, -q.q1, -q.q2, -q.q3)


def conj_complex(q: Biquaternion) -> Biquaternion:
    """Complex conjugate each coefficient, leave the units alone."""
    return Biquaternion(q.q0.conjugate(), q.q1.conjugate(),
                        q.q2.conjugate(), q.q3.conjugate())


def conj_both(q: Biquaternion) -> Biquaternion:
    """Compose both conjugations; this is the bra-forming involution."""
    return Biquaternion(q.q0.conjugate(), -q.q1.conjugate(),
                        -q.q2.conjugate(), -q.q3.conjugate())


def norm_sq(q: Biquaternion) -> float:
    """Sc(q conj_both(q)) = sum of squared real and imaginary parts.

    Positive-definite: this is the squared Euclidean norm of q viewed as an
    8-real-component vector, zero iff q = 0.  Elementwise for array q.
    """
    return sum(c.real*c.real + c.imag*c.imag for c in q.coefficients())


def quadratic_form(q: Biquaternion) -> complex:
    """Sc(q conj_vec(q)) = q0^2 + q1^2 + q2^2 + q3^2 (complex valued).

    Governs invertibility: q is invertible iff this does not vanish.
    """
    return q.q0*q.q0 + q.q1*q.q1 + q.q2*q.q2 + q.q3*q.q3


def inverse(q: Biquaternion) -> Biquaternion:
    """Multiplicative inverse conj_vec(q)/quadratic_form(q).

    Exists for every nonzero real quaternion (the form is then |q|^2 > 0)
    and for any biquaternion whose quadratic form does not vanish.  Raises
    ValueError("no inverse") for zero and for zero divisors.
    """
    form = quadratic_form(q)
    if abs(form) <= TOL*max(norm_sq(q), 1e-300):
        raise ValueError("no inverse")
    return conj_vec(q)/form


def is_zero_divisor(q: Biquaternion, tol: float = TOL) -> bool:
    """True iff q != 0 and its complex quadratic form vanishes (tol 1e-12).

    Such elements annihilate their conjugates, q * conj_vec(q) = 0, and have
    no inverse even though their Euclidean norm_sq is positive.
    """
    n = norm_sq(q)
    if n == 0.0:
        return False
    return abs(quadratic_form(q)) <= tol*max(n, 1.0)


def allclose(a: Biquaternion, b: Biquaternion, tol: float = TOL) -> bool:
    """Componentwise tolerance comparison; no exact float equality anywhere."""
    return max_dev(a, b) <= tol


def max_dev(a: Biquaternion, b: Biquaternion) -> float:
    """Largest absolute componentwise deviation, over every array element."""
    return max(float(np.max(abs(x - y)))
               for x, y in zip(a.coefficients(), b.coefficients()))


def is_real(q: Biquaternion, tol: float = TOL) -> bool:
    """True iff every coefficient has (numerically) zero imaginary part."""
    return max(float(np.max(abs(c.imag))) for c in q.coefficients()) <= tol
