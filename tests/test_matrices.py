"""2x2 matrix representations and the ket/bra vector maps."""

import numpy as np

from quatspin import (
    Biquaternion, E0, E1, E2, E3, mul, allclose,
    to_matrix_linear, to_matrix_paper, to_matrix_ks, from_matrix,
    ket_to_vector, bra_to_vector,
    SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY2,
    spin_up, spin_down, pauli_quaternion, bra,
)


def _rand(rng):
    c = rng.standard_normal(8)
    return Biquaternion(c[0] + 1j*c[1], c[2] + 1j*c[3],
                        c[4] + 1j*c[5], c[6] + 1j*c[7])


def test_unit_images():
    np.testing.assert_array_equal(to_matrix_linear(E0), IDENTITY2)
    np.testing.assert_array_equal(to_matrix_linear(E1), 1j*SIGMA_Z)
    np.testing.assert_array_equal(to_matrix_linear(E2), 1j*SIGMA_Y)
    np.testing.assert_array_equal(to_matrix_linear(E3), 1j*SIGMA_X)


def test_linear_map_is_homomorphism():
    rng = np.random.default_rng(123)
    for _ in range(500):
        a, b = _rand(rng), _rand(rng)
        lhs = to_matrix_linear(mul(a, b))
        rhs = to_matrix_linear(a) @ to_matrix_linear(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_from_matrix_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(200):
        q = _rand(rng)
        assert allclose(from_matrix(to_matrix_linear(q)), q, tol=1e-14)
        m = rng.standard_normal((2, 2)) + 1j*rng.standard_normal((2, 2))
        np.testing.assert_allclose(to_matrix_linear(from_matrix(m)), m,
                                   atol=1e-14)


def test_paper_map_agrees_on_its_subspace():
    # the two maps coincide when the vector coefficients are purely imaginary
    rng = np.random.default_rng(17)
    for _ in range(200):
        c = rng.standard_normal(5)
        q = Biquaternion(c[0] + 1j*c[1], 1j*c[2], 1j*c[3], 1j*c[4])
        np.testing.assert_allclose(to_matrix_paper(q), to_matrix_linear(q),
                                   atol=1e-14)
    for axis, want in (("x", SIGMA_X), ("y", SIGMA_Y), ("z", SIGMA_Z)):
        np.testing.assert_allclose(to_matrix_paper(pauli_quaternion(axis)),
                                   want, atol=1e-15)


def test_ks_matrix_form():
    np.testing.assert_array_equal(to_matrix_ks(E0), IDENTITY2)
    np.testing.assert_array_equal(to_matrix_ks(E2),
                                  np.array([[0, 1], [-1, 0]]))
    got = to_matrix_ks(Biquaternion(1, 2, 3, 4))
    want = np.array([[1 + 2j, 3 + 4j], [-3 + 4j, 1 - 2j]])
    np.testing.assert_array_equal(got, want)
    rng = np.random.default_rng(31)
    for _ in range(100):
        q = Biquaternion(*rng.standard_normal(4))
        det = np.linalg.det(to_matrix_ks(q))
        norm = sum(abs(c)**2 for c in q.coefficients())
        np.testing.assert_allclose(det, norm, rtol=1e-12)


def test_ket_vectors_of_basis_states():
    np.testing.assert_allclose(ket_to_vector(spin_up().value), [1, 0],
                               atol=1e-15)
    np.testing.assert_allclose(ket_to_vector(spin_down().value), [0, 1],
                               atol=1e-15)


def test_ket_map_is_first_matrix_column():
    rng = np.random.default_rng(41)
    root2 = np.sqrt(2.0)
    for _ in range(100):
        q = _rand(rng)
        m = to_matrix_linear(q)
        np.testing.assert_allclose(ket_to_vector(q), m[:, 0]/root2,
                                   atol=1e-14)
        np.testing.assert_allclose(bra_to_vector(q), m[0, :]/root2,
                                   atol=1e-14)


def test_ket_map_intertwines_products():
    rng = np.random.default_rng(43)
    for _ in range(100):
        S, q = _rand(rng), _rand(rng)
        lhs = ket_to_vector(mul(S, q))
        rhs = to_matrix_linear(S) @ ket_to_vector(q)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_bra_of_state_is_conjugate_row():
    for state in (spin_up(), spin_down()):
        row = bra_to_vector(bra(state))
        col = ket_to_vector(state.value)
        np.testing.assert_allclose(row, np.conj(col), atol=1e-15)

