"""Pauli-algebra embedding and block-quaternion Dirac matrices."""

import math

import numpy as np
import pytest

from quatspin import (
    Biquaternion, E0, E1, E2, E3, mul, allclose, from_matrix,
    to_matrix_linear, SIGMA_X, SIGMA_Y, SIGMA_Z,
    PauliAlgebraElement, DiracMatrix, embed, pauli_element_matrix, hodge,
    gamma, verify_clifford,
)

_I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)


def test_basis_element_images():
    # generators and their products land on signed (i-times) units
    assert embed(PauliAlgebraElement(q0=1)) == E0
    assert embed(PauliAlgebraElement(q1=1)) == E1*(-1j)   # sigma_z
    assert embed(PauliAlgebraElement(q2=1)) == E2*(-1j)   # sigma_y
    assert embed(PauliAlgebraElement(q3=1)) == E3*(-1j)   # sigma_x
    assert embed(PauliAlgebraElement(q4=1)) == -E1        # sigma_y sigma_x
    assert embed(PauliAlgebraElement(q5=1)) == -E2        # sigma_x sigma_z
    assert embed(PauliAlgebraElement(q6=1)) == -E3        # sigma_z sigma_y
    assert embed(PauliAlgebraElement(q7=1)) == E0*1j      # sx sy sz
    np.testing.assert_allclose(pauli_element_matrix(PauliAlgebraElement(q4=1)),
                               SIGMA_Y @ SIGMA_X, atol=1e-15)


def test_embedding_matches_matrix_sum():
    rng = np.random.default_rng(13)
    for _ in range(300):
        e = PauliAlgebraElement(*rng.standard_normal(8))
        got = to_matrix_linear(embed(e))
        want = pauli_element_matrix(e)
        np.testing.assert_allclose(got, want, atol=1e-14)


def test_embedding_is_an_algebra_map():
    rng = np.random.default_rng(37)
    for _ in range(100):
        a = PauliAlgebraElement(*rng.standard_normal(8))
        b = PauliAlgebraElement(*rng.standard_normal(8))
        lhs = mul(embed(a), embed(b))
        rhs = from_matrix(pauli_element_matrix(a) @ pauli_element_matrix(b))
        assert allclose(lhs, rhs, tol=1e-12)


def test_hodge_element():
    h = hodge()
    assert h == Biquaternion(-1j, 0, 0, 0)
    assert mul(h, h) == -E0
    np.testing.assert_allclose(to_matrix_linear(h), -1j*_I2, atol=1e-15)


def test_gamma_matrices_explicit():
    want = [
        np.block([[_I2, _Z2], [_Z2, -_I2]]),
        np.block([[_Z2, SIGMA_Z], [-SIGMA_Z, _Z2]]),
        np.block([[_Z2, SIGMA_X], [-SIGMA_X, _Z2]]),
        np.block([[_Z2, SIGMA_Y], [-SIGMA_Y, _Z2]]),
    ]
    for i in range(4):
        np.testing.assert_allclose(gamma(i).to_matrix4(), want[i], atol=1e-15)
    with pytest.raises(ValueError):
        gamma(4)
    with pytest.raises(ValueError):
        gamma(-1)


def test_gamma_squares():
    i4 = np.eye(4)
    np.testing.assert_allclose((gamma(0) @ gamma(0)).to_matrix4(), i4,
                               atol=1e-15)
    for i in (1, 2, 3):
        np.testing.assert_allclose((gamma(i) @ gamma(i)).to_matrix4(), -i4,
                                   atol=1e-15)


def test_clifford_relations():
    rep = verify_clifford()
    assert rep["max_deviation"] < 1e-14
    assert len(rep["pairs"]) == 10 and len(rep["squares"]) == 4
    for key, dev in rep["pairs"].items():
        assert dev < 1e-14, key
    for key, dev in rep["squares"].items():
        assert dev < 1e-14, key


def test_block_products_match_4x4():
    rng = np.random.default_rng(97)

    def rand_bq():
        c = rng.standard_normal(8)
        return Biquaternion(c[0] + 1j*c[1], c[2] + 1j*c[3],
                            c[4] + 1j*c[5], c[6] + 1j*c[7])

    for _ in range(20):
        a = DiracMatrix(((rand_bq(), rand_bq()), (rand_bq(), rand_bq())))
        b = DiracMatrix(((rand_bq(), rand_bq()), (rand_bq(), rand_bq())))
        np.testing.assert_allclose((a @ b).to_matrix4(),
                                   a.to_matrix4() @ b.to_matrix4(),
                                   atol=1e-12)
        np.testing.assert_allclose((a + b).to_matrix4(),
                                   a.to_matrix4() + b.to_matrix4(),
                                   atol=1e-14)


def test_clifford_report_keeps_a_nan(monkeypatch):
    # a NaN in the last gamma poisons the last pairs, after finite ones
    from quatspin import pauli_dirac as pd
    rows = gamma(3).blocks
    bad = DiracMatrix(((rows[0][0] + Biquaternion(0, 0, math.nan, 0),
                        rows[0][1]), rows[1]))
    monkeypatch.setattr(pd, "_GAMMAS", pd._GAMMAS[:3] + (bad,))
    rep = verify_clifford()
    assert math.isnan(rep["pairs"]["33"])
    assert math.isnan(rep["max_deviation"])
