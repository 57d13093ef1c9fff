"""Pauli-algebra embedding and quaternion-block Dirac gamma matrices.

The real 8-dimensional algebra spanned by {I, sz, sy, sx, sy sx, sx sz,
sz sy, sx sy sz} (s* the Pauli matrices) is isomorphic to the biquaternions:

    embed(q0..q7) = (q0 + i q7) e0 - (i q1 + q4) e1 - (i q2 + q5) e2
                    - (i q3 + q6) e3

so that to_matrix_linear(embed(e)) equals the direct matrix sum of e.  The
central Hodge element is -i e0, representing multiplication by -i I.

Gamma matrices are stored as 2x2 blocks of biquaternions; each block expands
to a 2x2 complex matrix under the linear representation, giving 4x4 matrices
that satisfy the Clifford relations {g_mu, g_nu} = 2 eta_mu_nu with
eta = diag(+,-,-,-).  Index order follows the source convention (diagonal,
then the sz, sx, sy blocks); in the conventional Dirac labeling gamma(2) is
gamma^1, gamma(3) is gamma^2, and gamma(1) is gamma^3.
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .biquaternion import Biquaternion, E0, mul
from .matrices import to_matrix_linear, SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY2

__all__ = [
    "PauliAlgebraElement", "DiracMatrix", "embed", "pauli_element_matrix",
    "hodge", "gamma", "verify_clifford",
]

_ZERO = Biquaternion()
_I_E1 = Biquaternion(0, 1j, 0, 0)
_I_E2 = Biquaternion(0, 0, 1j, 0)
_I_E3 = Biquaternion(0, 0, 0, 1j)

_BASIS_MATRICES = (
    IDENTITY2, SIGMA_Z, SIGMA_Y, SIGMA_X,
    SIGMA_Y @ SIGMA_X, SIGMA_X @ SIGMA_Z, SIGMA_Z @ SIGMA_Y,
    SIGMA_X @ SIGMA_Y @ SIGMA_Z,
)


class PauliAlgebraElement(Record):
    """Real coefficients q0..q7 on {I, sz, sy, sx, sysx, sxsz, szsy, sxsysz}."""

    q0: float
    q1: float
    q2: float
    q3: float
    q4: float
    q5: float
    q6: float
    q7: float

    def __init__(self, q0=0.0, q1=0.0, q2=0.0, q3=0.0, q4=0.0, q5=0.0,
                 q6=0.0, q7=0.0):
        d = self.__dict__
        d["q0"], d["q1"], d["q2"], d["q3"] = q0, q1, q2, q3
        d["q4"], d["q5"], d["q6"], d["q7"] = q4, q5, q6, q7

    def coefficients(self):
        return (self.q0, self.q1, self.q2, self.q3,
                self.q4, self.q5, self.q6, self.q7)


def pauli_element_matrix(e: PauliAlgebraElement) -> np.ndarray:
    """Direct 2x2 matrix sum of the basis expansion (the oracle route).

    Array coefficients give a stack of shape (..., 2, 2).
    """
    return sum(np.multiply.outer(c, m)
               for c, m in zip(e.coefficients(), _BASIS_MATRICES))


def embed(e: PauliAlgebraElement) -> Biquaternion:
    """Biquaternion image of an 8-coefficient Pauli-algebra element.

    The unique mapping whose matrix image reproduces pauli_element_matrix
    (an algebra isomorphism).  Array coefficients give an array image.
    """
    q = e.coefficients()
    return Biquaternion(q[0] + 1j*q[7], -(1j*q[1] + q[4]),
                        -(1j*q[2] + q[5]), -(1j*q[3] + q[6]))


def hodge() -> Biquaternion:
    """The central Hodge element -i e0: multiplication by -i I."""
    return Biquaternion(-1j, 0, 0, 0)


class DiracMatrix(Record):
    """2x2 block matrix of biquaternions (a 4x4 complex matrix in disguise)."""

    blocks: tuple[tuple[Biquaternion, Biquaternion],
                  tuple[Biquaternion, Biquaternion]]

    def __init__(self, blocks):
        self.__dict__["blocks"] = blocks

    def to_matrix4(self) -> np.ndarray:
        """Expand each block through the linear representation; blocks with
        array coefficients of one shape give a stack of shape (..., 4, 4)."""
        return np.block([[to_matrix_linear(b) for b in row]
                         for row in self.blocks])

    def __matmul__(self, other: "DiracMatrix") -> "DiracMatrix":
        """Block multiplication carried out in quaternion arithmetic."""
        a, b = self.blocks, other.blocks
        rows = []
        for i in range(2):
            row = []
            for j in range(2):
                acc = _ZERO
                for m in range(2):
                    acc = acc + mul(a[i][m], b[m][j])
                row.append(acc)
            rows.append(tuple(row))
        return DiracMatrix((rows[0], rows[1]))

    def __add__(self, other: "DiracMatrix") -> "DiracMatrix":
        a, b = self.blocks, other.blocks
        return DiracMatrix(tuple(
            tuple(a[i][j] + b[i][j] for j in range(2)) for i in range(2)))


_GAMMAS = (
    # time-like: diag(1, 1, -1, -1); the lower block must be -e0 for the 4x4
    # expansion to match (the source's block listing prints +e0 there, which
    # contradicts its own 4x4 display)
    DiracMatrix(((E0, _ZERO), (_ZERO, -E0))),
    DiracMatrix(((_ZERO, -_I_E1), (_I_E1, _ZERO))),   # off-diagonal sz
    DiracMatrix(((_ZERO, -_I_E3), (_I_E3, _ZERO))),   # off-diagonal sx
    DiracMatrix(((_ZERO, -_I_E2), (_I_E2, _ZERO))),   # off-diagonal sy
)

_ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def gamma(index: int) -> DiracMatrix:
    """Gamma matrix by source listing order (0 diagonal, then sz, sx, sy).

    Conventional Dirac labels: gamma(0) = gamma^0, gamma(2) = gamma^1,
    gamma(3) = gamma^2, gamma(1) = gamma^3.
    """
    if index not in (0, 1, 2, 3):
        raise ValueError(f"gamma index must be 0..3, got {index!r}")
    return _GAMMAS[index]


def verify_clifford() -> dict:
    """Anticommutator report {g_mu, g_nu} - 2 eta_mu_nu I4 for all pairs.

    Returns per-pair max deviations, the squares' deviations, and the overall
    maximum; all are exactly zero for the corrected representation.
    """
    mats = [gamma(i).to_matrix4() for i in range(4)]
    eye4 = np.eye(4)
    pairs = {}
    for mu in range(4):
        for nu in range(mu, 4):
            anti = mats[mu] @ mats[nu] + mats[nu] @ mats[mu]
            dev = float(np.max(np.abs(anti - 2*_ETA[mu, nu]*eye4)))
            pairs[f"{mu}{nu}"] = dev
    squares = {f"{mu}{mu}": float(np.max(np.abs(
        mats[mu] @ mats[mu] - _ETA[mu, mu]*eye4))) for mu in range(4)}
    # np.max keeps a NaN, where the builtin max keeps whichever comes first
    return {"pairs": pairs, "squares": squares,
            "max_deviation": float(np.max(list(pairs.values())))}
