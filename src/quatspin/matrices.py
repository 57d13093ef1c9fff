"""Quaternion-to-matrix transformations and the ket/bra vector maps.

to_matrix_linear is the workhorse: the unique complex-linear extension of

    e0 -> I,  e1 -> i sigma_z,  e2 -> i sigma_y,  e3 -> i sigma_x,

a ring isomorphism from the biquaternions onto all 2x2 complex matrices.  It
is the independent oracle against which every quaternionic identity in this
package is checked.  to_matrix_paper is a historical variant that conjugates
coefficients (so it is not complex-linear); it coincides with the linear map
on the subspace where q1, q2, q3 are purely imaginary, which covers all four
Pauli unit quaternions.  to_matrix_ks is the classical [[z, w], [-w*, z*]]
form for real quaternions.
"""

from __future__ import annotations

import math

import numpy as np

from .biquaternion import Biquaternion

__all__ = [
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "IDENTITY2",
    "to_matrix_linear", "to_matrix_paper", "to_matrix_ks",
    "from_matrix", "ket_to_vector", "bra_to_vector",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)

def _block(a, b, c, d) -> np.ndarray:
    """[[a, b], [c, d]] with the 2x2 block as the last two axes."""
    m = np.empty(np.broadcast(a, b, c, d).shape + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = a, b, c, d
    return m


def to_matrix_linear(q: Biquaternion) -> np.ndarray:
    """Complex-linear matrix representation M(q).

    M(q) = q0 I + q1 (i sigma_z) + q2 (i sigma_y) + q3 (i sigma_x)
         = [[q0 + i q1,  q2 + i q3],
            [-q2 + i q3, q0 - i q1]].

    Ring isomorphism: M(ab) = M(a) M(b) and M is bijective.  Array
    coefficients give a stack of shape (..., 2, 2).
    """
    return _block(q.q0 + 1j*q.q1, q.q2 + 1j*q.q3,
                  -q.q2 + 1j*q.q3, q.q0 - 1j*q.q1)


def to_matrix_paper(q: Biquaternion) -> np.ndarray:
    """Coefficient-conjugating matrix map.

    Entries [[q0 + i q1, q2 + i q3], [q2* + (i q3)*, q0 - (i q1)*]].  Not
    complex-linear; agrees with to_matrix_linear exactly when q1, q2, q3 are
    purely imaginary (in particular on the Pauli unit quaternions).
    """
    return _block(q.q0 + 1j*q.q1, q.q2 + 1j*q.q3,
                  q.q2.conjugate() - 1j*q.q3.conjugate(),
                  q.q0 + 1j*q.q1.conjugate())


def to_matrix_ks(q: Biquaternion) -> np.ndarray:
    """Classical [[z, w], [-w*, z*]] form with z = q0 + i q1, w = q2 + i q3.

    Exact for real quaternions (where det = |q|^2); for complex coefficients
    the entry-level conjugation is formal, mixing the two imaginary units.
    """
    z = q.q0 + 1j*q.q1
    w = q.q2 + 1j*q.q3
    return _block(z, w, -w.conjugate(), z.conjugate())


def from_matrix(m: np.ndarray) -> Biquaternion:
    """Invert to_matrix_linear: recover q from a 2x2 complex matrix or a
    stack of them (shape (..., 2, 2))."""
    m = np.asarray(m, dtype=complex)
    return Biquaternion(
        (m[..., 0, 0] + m[..., 1, 1])/2,
        (m[..., 0, 0] - m[..., 1, 1])/2j,
        (m[..., 0, 1] - m[..., 1, 0])/2,
        (m[..., 0, 1] + m[..., 1, 0])/2j,
    )


def ket_to_vector(q: Biquaternion) -> np.ndarray:
    """Map a state biquaternion to its 2x1 ket vector.

    a(q) = (sqrt2/2) (q0 + i q1, -q2 + i q3), i.e. sqrt2/2 times the first
    column of M(q).  Complex-linear, and intertwines left multiplication:
    ket(S q) = M(S) ket(q) for every S.
    """
    return to_matrix_linear(q)[..., :, 0]*math.sqrt(0.5)


def bra_to_vector(q: Biquaternion) -> np.ndarray:
    """Map a bra biquaternion to its 1x2 row vector.

    (sqrt2/2) (q0 + i q1, q2 + i q3) = sqrt2/2 times the first row of M(q).
    Applied to conj_both of a ket it returns the conjugate-transposed ket
    vector, so bra-row times ket-column is the inner product.
    """
    return to_matrix_linear(q)[..., 0, :]*math.sqrt(0.5)
