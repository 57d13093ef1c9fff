"""Spin-1/2 states, operators, rotations, ladders."""

import math

import numpy as np
import pytest

from quatspin import (
    Biquaternion, E0, E1, E2, E3, mul, allclose, norm_sq, conj_both,
    to_matrix_linear, from_matrix, ket_to_vector,
    SIGMA_X, SIGMA_Y, SIGMA_Z,
    HBAR, SpinState, pauli_quaternion, spin_operator, spin_up, spin_down,
    superposition, apply, inner, outer, outer_reconstruct,
    rotation, dagger, rotate_operator, rotated_pauli, ladder,
)

_H2 = HBAR/2


def test_pauli_quaternions():
    assert pauli_quaternion("z") == Biquaternion(0, -1j, 0, 0)
    assert pauli_quaternion("y") == Biquaternion(0, 0, -1j, 0)
    assert pauli_quaternion("x") == Biquaternion(0, 0, 0, -1j)
    assert pauli_quaternion("identity") == E0
    with pytest.raises(ValueError):
        pauli_quaternion("w")
    for axis, sigma in (("x", SIGMA_X), ("y", SIGMA_Y), ("z", SIGMA_Z)):
        np.testing.assert_allclose(to_matrix_linear(pauli_quaternion(axis)),
                                   sigma, atol=1e-15)


def test_basis_states():
    r = math.sqrt(2.0)/2
    assert spin_up().value == Biquaternion(r, -1j*r, 0, 0)
    assert spin_down().value == Biquaternion(0, 0, -r, -1j*r)
    assert norm_sq(spin_up().value) == pytest.approx(1.0)
    assert norm_sq(spin_down().value) == pytest.approx(1.0)


def test_six_eigen_equations():
    up, dn = spin_up(), spin_down()
    cases = [
        ("x", up, dn.value*_H2),
        ("x", dn, up.value*_H2),
        ("y", up, dn.value*(1j*_H2)),
        ("y", dn, up.value*(-1j*_H2)),
        ("z", up, up.value*_H2),
        ("z", dn, dn.value*(-_H2)),
    ]
    for axis, state, want in cases:
        got = apply(spin_operator(axis), state)
        assert allclose(got, want, tol=1e-14), axis


def test_pauli_products_match_matrices():
    for a in "xyz":
        for b in "xyz":
            got = mul(pauli_quaternion(a), pauli_quaternion(b))
            mats = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
            want = from_matrix(mats[a] @ mats[b])
            assert allclose(got, want, tol=1e-15), (a, b)


def test_inner_product_orthonormality():
    up, dn = spin_up(), spin_down()
    assert inner(up, up) == pytest.approx(1.0)
    assert inner(dn, dn) == pytest.approx(1.0)
    assert abs(inner(up, dn)) < 1e-15
    assert abs(inner(dn, up)) < 1e-15


def test_inner_product_matches_vector_dot():
    rng = np.random.default_rng(71)
    for _ in range(100):
        ca = rng.standard_normal(2) + 1j*rng.standard_normal(2)
        cb = rng.standard_normal(2) + 1j*rng.standard_normal(2)
        a, b = superposition(*ca), superposition(*cb)
        want = np.vdot(ket_to_vector(a.value), ket_to_vector(b.value))
        np.testing.assert_allclose(inner(a, b), want, atol=1e-14)


def test_superposition_normalizes_and_rejects_zero():
    s = superposition(3, 4j)
    assert norm_sq(s.value) == pytest.approx(1.0)
    np.testing.assert_allclose(ket_to_vector(s.value), [0.6, 0.8j],
                               atol=1e-15)
    with pytest.raises(ValueError):
        superposition(0, 0)
    with pytest.raises(ValueError):
        SpinState(Biquaternion(1, 1, 0, 0))  # norm 2, not a state


def test_outer_product_reconstructions():
    # rebuilt operators equal the plain Pauli quaternions exactly
    assert allclose(outer_reconstruct("Sz"), Biquaternion(0, -1j, 0, 0),
                    tol=1e-14)
    assert allclose(outer_reconstruct("Sx"), Biquaternion(0, 0, 0, -1j),
                    tol=1e-14)
    assert allclose(outer_reconstruct("Sy"), Biquaternion(0, 0, -1j, 0),
                    tol=1e-14)
    with pytest.raises(ValueError):
        outer_reconstruct("Sw")


def test_outer_matches_matrix_outer():
    up, dn = spin_up(), spin_down()
    for a in (up, dn):
        for b in (up, dn):
            got = to_matrix_linear(outer(a, b))
            want = np.outer(ket_to_vector(a.value),
                            np.conj(ket_to_vector(b.value)))
            np.testing.assert_allclose(got, want, atol=1e-14)
    assert allclose(outer(up, up) + outer(dn, dn), E0, tol=1e-14)


def test_rotation_basics():
    D = rotation("z", math.pi/2)
    r = math.sqrt(2.0)/2
    assert allclose(D.value, Biquaternion(r, -r, 0, 0), tol=1e-15)
    assert allclose(dagger(D).value, Biquaternion(r, r, 0, 0), tol=1e-15)
    assert norm_sq(D.value) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rotation((1.0, 1.0, 0.0), 0.3)  # not a unit axis
    with pytest.raises(ValueError):
        rotation("q", 0.3)


def test_rotation_double_cover():
    rng = np.random.default_rng(83)
    for _ in range(20):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        D = rotation(tuple(v), 2*math.pi)
        assert allclose(D.value, -E0, tol=1e-13)
    # a full turn flips the sign of every state
    up = spin_up()
    D = rotation("y", 2*math.pi)
    assert allclose(mul(D.value, up.value), -up.value, tol=1e-13)


def test_rotation_composition():
    rng = np.random.default_rng(89)
    for _ in range(50):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        p1, p2 = rng.uniform(-6, 6, 2)
        lhs = mul(rotation(tuple(v), p1).value, rotation(tuple(v), p2).value)
        rhs = rotation(tuple(v), p1 + p2).value
        assert allclose(lhs, rhs, tol=1e-12)


def test_rotation_conjugation_against_matrices():
    angles = np.linspace(0.0, 2*math.pi, 32, endpoint=False)
    for rot_axis in "xyz":
        for op_axis in "xyz":
            S = spin_operator(op_axis)
            for phi in angles:
                D = rotation(rot_axis, float(phi))
                got = rotate_operator(D, S)
                md = to_matrix_linear(D.value)
                ms = to_matrix_linear(S)
                want = from_matrix(md.conj().T @ ms @ md)
                assert allclose(got, want, tol=1e-12)
                closed = rotated_pauli(rot_axis, op_axis, float(phi))*_H2
                assert allclose(got, closed, tol=1e-12)


def test_rotation_about_own_axis_is_identity():
    for axis in "xyz":
        S = spin_operator(axis)
        got = rotate_operator(rotation(axis, 1.234), S)
        assert allclose(got, S, tol=1e-14)


def test_quarter_turn_swaps_axes():
    # conjugating Sz by a quarter turn about y lands on -Sx (right-handed)
    got = rotate_operator(rotation("y", math.pi/2), spin_operator("z"))
    assert allclose(got, pauli_quaternion("x")*(-_H2), tol=1e-14)
    got = rotate_operator(rotation("z", math.pi/2), spin_operator("x"))
    assert allclose(got, pauli_quaternion("y")*(-_H2), tol=1e-14)


def test_ladder_operators():
    up, dn = spin_up().value, spin_down().value
    lp, lm = ladder("+"), ladder("-")
    assert lp == Biquaternion(0, 0, 0.5, -0.5j)
    assert lm == Biquaternion(0, 0, -0.5, -0.5j)
    assert allclose(lm, conj_both(lp), tol=1e-15)
    assert allclose(mul(lp, dn), up, tol=1e-14)       # raise down -> up
    assert allclose(mul(lm, up), dn, tol=1e-14)       # lower up -> down
    assert norm_sq(mul(lp, up)) < 1e-28               # annihilation
    assert norm_sq(mul(lm, dn)) < 1e-28
    assert norm_sq(mul(lp, lp)) < 1e-28               # nilpotent
    qx, qy = pauli_quaternion("x"), pauli_quaternion("y")
    assert allclose(lp, (qx + qy*1j)*0.5, tol=1e-15)
    assert allclose(lm, (qx - qy*1j)*0.5, tol=1e-15)
    np.testing.assert_allclose(to_matrix_linear(lp),
                               [[0, 1], [0, 0]], atol=1e-15)
    with pytest.raises(ValueError):
        ladder("0")


def test_spin_operator_is_a_biquaternion():
    assert spin_operator("z") == pauli_quaternion("z")*_H2
    assert repr(spin_operator("z").coefficients()) == "(0j, -0.5j, 0j, 0j)"
    assert repr(apply(spin_operator("y"), spin_up()).coefficients()) == (
        "(0j, 0j, -0.3535533905932738j, (0.3535533905932738+0j))")


def test_scalar_results_are_pinned():
    # the scalar spin path is bitwise what it was when S carried a scale
    pins = [
        (rotate_operator(rotation("y", 0.7), spin_operator("z")),
         "(0j, -0.3824210936422442j, 0j, 0.3221088436188455j)"),
        (rotate_operator(rotation((0.6, 0.0, 0.8), -2.5), spin_operator("x")),
         "(0j, -0.4322744677312641j, -0.2393888576415826j, "
         "0.0763659569750188j)"),
        (rotation((0.6, 0.0, 0.8), 1.1).value,
         "((0.8525245220595057+0j), (-0.4181497831445274+0j), (-0+0j), "
         "(-0.3136123373583955+0j))"),
        (rotated_pauli("x", "y", 0.9),
         "(0j, 0.7833269096274834j, -0.6216099682706644j, 0j)"),
        (rotated_pauli("z", "y", 7.0),
         "(0j, 0j, -0.7539022543433046j, -0.6569865987187891j)"),
    ]
    for got, want in pins:
        assert repr(got.coefficients()) == want


def test_constructors_reject_nan_and_infinity():
    with pytest.raises(ValueError, match="not normalized"):
        SpinState(Biquaternion(math.nan))
    with pytest.raises(ValueError, match="unit vector"):
        rotation((math.nan, 0.0, 0.0), 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        for axis in ("x", (0.0, 0.0, 1.0), (0, 0.6, 0.8)):
            with pytest.raises(ValueError, match="angle must be finite"):
                rotation(axis, bad)
        with pytest.raises(ValueError, match="angle must be finite"):
            rotation("y", np.array([0.3, bad, 1.0]))
    assert rotation("z", np.array([])).value.q0.shape == (0,)
    for bad in (math.nan, math.inf, complex(0.0, math.nan), -math.inf):
        with pytest.raises(ValueError, match="finite"):
            superposition(bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            superposition(0.5, bad)
        with pytest.raises(ValueError, match="finite"):
            superposition(np.array([1.0, bad]), np.array([0.0, 1.0]))
    up = spin_up().value
    with pytest.raises(ValueError, match="not normalized"):
        SpinState(Biquaternion(np.array([up.q0, math.nan]), up.q1))


def test_superposition_of_huge_amplitudes():
    s = superposition(1e200, 1e200)
    assert allclose(s.value, superposition(1, 1).value, tol=1e-16)
    s = superposition(np.array([1e200, 3.0]), np.array([1e200, 4j]))
    assert allclose(s.value, superposition(np.array([1.0, 0.6]),
                                           np.array([1.0, 0.8j])).value,
                    tol=1e-15)


def test_superposition_of_amplitudes_whose_modulus_overflows():
    big = complex(1.5e308, 1.5e308)     # finite, but |big| is not
    want = superposition(1 + 1j, 0).value
    assert allclose(superposition(big, 0).value, want, tol=1e-15)
    assert allclose(superposition(big, -big).value,
                    superposition(1 + 1j, -1 - 1j).value, tol=1e-15)
    batch = superposition(np.array([big, 3.0]), np.array([0j, 4j])).value
    assert allclose(batch, Biquaternion(*(
        np.array([a, b]) for a, b in zip(
            want.coefficients(),
            superposition(3.0, 4j).value.coefficients()))), tol=1e-15)
    for bad in (math.nan, math.inf, complex(1.5e308, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            superposition(big, bad)
        with pytest.raises(ValueError, match="finite"):
            superposition(np.array([big, big]), np.array([0.0, bad]))


def test_superposition_of_subnormal_amplitudes():
    # a subnormal modulus |c| is lifted to the normal range before c/|c|
    pairs = [(1e-310j, 0j), (5e-324, 0j), (1e-320, 3e-321j),
             (1e-20, 1e-320), (0j, -2e-315 + 1e-316j)]
    batch = superposition(np.array([a for a, _ in pairs]),
                          np.array([b for _, b in pairs])).value
    for i, (a, b) in enumerate(pairs):
        one = superposition(a, b).value
        assert allclose(Biquaternion(*(c[i] for c in batch.coefficients())),
                        one, tol=1e-15)
    assert allclose(superposition(1e-310j, 0).value,
                    superposition(1j, 0).value, tol=1e-16)
    assert allclose(superposition(1e-320, 3e-321j).value,
                    superposition(1e-320*2.0**1000, 3e-321j*2.0**1000).value,
                    tol=1e-15)
    with pytest.raises(ValueError, match="zero state"):
        superposition(np.array([1e-310j, 0j]), np.array([0j, 0j]))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            superposition(1e-310, bad)
        with pytest.raises(ValueError, match="finite"):
            superposition(np.array([1e-310, 1e-310]), np.array([0.0, bad]))


def _coefficient_dev(batch, i, scalar):
    return max(abs(np.broadcast_to(b, (200,))[i] - s) for b, s in
               zip(batch.coefficients(), scalar.coefficients()))


def test_batches_agree_with_scalar_calls():
    rng = np.random.default_rng(97)
    c = rng.standard_normal((200, 4))
    c_up, c_down = c[:, 0] + 1j*c[:, 1], c[:, 2] + 1j*c[:, 3]
    v = rng.standard_normal((200, 3))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    angles = rng.uniform(-7, 7, 200)
    states = superposition(c_up, c_down).value
    rots = rotation(v.T, angles).value
    closed = {(a, b): rotated_pauli(a, b, angles) for a in "xyz" for b in "xy"}
    dev = 0.0
    for i in range(200):
        one = superposition(complex(c_up[i]), complex(c_down[i]))
        dev = max(dev, _coefficient_dev(states, i, one.value))
        dev = max(dev, _coefficient_dev(
            rots, i, rotation(tuple(v[i]), float(angles[i])).value))
        for (a, b), batch in closed.items():
            dev = max(dev, _coefficient_dev(
                batch, i, rotated_pauli(a, b, float(angles[i]))))
    assert dev <= 1e-15


def test_one_bad_element_fails_the_batch():
    axes = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])   # second |n| = 1.41
    with pytest.raises(ValueError, match="unit vector"):
        rotation(axes, np.array([0.3, 0.4]))
    with pytest.raises(ValueError, match="zero state"):
        superposition(np.array([1.0, 0.0, 2.0]), np.array([1j, 0.0, 0.0]))
    up = spin_up().value
    with pytest.raises(ValueError, match="not normalized"):
        SpinState(up*np.array([1.0, 1.0, 1.1]))
    assert norm_sq(SpinState(up*np.array([1.0, -1.0, 1j])).value).shape == (3,)
