"""Core algebra: Hamilton product, conjugations, norms, inverses."""

import math

import numpy as np
import pytest

from quatspin import (
    Biquaternion, E0, E1, E2, E3, mul, decompose, conj_vec, conj_complex,
    conj_both, norm_sq, quadratic_form, inverse, is_zero_divisor, allclose,
)

# independent matrix images of the units: e0, e1, e2, e3
_I = np.eye(2, dtype=complex)
_ME = [
    _I,
    np.array([[1j, 0], [0, -1j]]),   # i sigma_z
    np.array([[0, 1], [-1, 0]]),     # i sigma_y
    np.array([[0, 1j], [1j, 0]]),    # i sigma_x
]


def _mat(q):
    return sum(c*m for c, m in zip(q.coefficients(), _ME))


def _rand(rng):
    c = rng.standard_normal(8)
    return Biquaternion(c[0] + 1j*c[1], c[2] + 1j*c[3],
                        c[4] + 1j*c[5], c[6] + 1j*c[7])


def test_hamilton_rules():
    assert mul(E1, E2) == E3
    assert mul(E2, E3) == E1
    assert mul(E3, E1) == E2
    assert mul(E2, E1) == -E3
    for e in (E1, E2, E3):
        assert mul(e, e) == -E0
    assert mul(E0, E1) == E1


def test_unit_table_matches_matrices():
    units = (E0, E1, E2, E3)
    for a in units:
        for b in units:
            got = _mat(mul(a, b))
            want = _mat(a) @ _mat(b)
            np.testing.assert_allclose(got, want, atol=1e-15)


def test_product_formula_against_matrices():
    rng = np.random.default_rng(42)
    for _ in range(300):
        a, b = _rand(rng), _rand(rng)
        np.testing.assert_allclose(_mat(mul(a, b)), _mat(a) @ _mat(b),
                                   atol=1e-12)


def test_associativity_and_distributivity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b, c = _rand(rng), _rand(rng), _rand(rng)
        assert allclose(mul(mul(a, b), c), mul(a, mul(b, c)), tol=1e-12)
        assert allclose(mul(a, b + c), mul(a, b) + mul(a, c), tol=1e-12)


def test_noncommutative():
    a = Biquaternion(0, 1, 2, 0)
    b = Biquaternion(0, 0, 1, 3)
    assert not allclose(mul(a, b), mul(b, a), tol=1e-3)


def test_scalar_operations():
    q = Biquaternion(1, 2, 3, 4)
    assert q*2 == Biquaternion(2, 4, 6, 8)
    assert 2*q == q*2
    assert q*1j == Biquaternion(1j, 2j, 3j, 4j)
    assert q/2 == Biquaternion(0.5, 1, 1.5, 2)
    assert -q == Biquaternion(-1, -2, -3, -4)
    assert q - q == Biquaternion()


def test_decompose_scalar_vector():
    a = Biquaternion(2, 1, 0, 0)
    b = Biquaternion(3, 5, 0, 0)
    sc, vec = decompose(a, b)
    # Sc = a0 b0 - a.b, Vec carries the rest
    assert sc == 2*3 - 1*5
    assert allclose(Biquaternion(sc) + vec, mul(a, b), tol=1e-14)
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = _rand(rng), _rand(rng)
        sc, vec = decompose(a, b)
        assert vec.q0 == 0
        dot = a.q1*b.q1 + a.q2*b.q2 + a.q3*b.q3
        np.testing.assert_allclose(complex(sc), complex(a.q0*b.q0 - dot),
                                   atol=1e-12)


def test_conjugations():
    rng = np.random.default_rng(11)
    q = _rand(rng)
    assert allclose(conj_vec(conj_vec(q)), q, tol=1e-15)
    assert allclose(conj_complex(conj_complex(q)), q, tol=1e-15)
    assert allclose(conj_both(q), conj_vec(conj_complex(q)), tol=1e-15)
    assert conj_vec(Biquaternion(1, 2, 3, 4)) == Biquaternion(1, -2, -3, -4)
    assert conj_complex(Biquaternion(1j, 2, 3 - 1j, 4)) == \
        Biquaternion(-1j, 2, 3 + 1j, 4)
    for _ in range(100):
        a, b = _rand(rng), _rand(rng)
        # vector conjugation reverses products; complex conjugation does not
        assert allclose(conj_vec(mul(a, b)),
                        mul(conj_vec(b), conj_vec(a)), tol=1e-12)
        assert allclose(conj_complex(mul(a, b)),
                        mul(conj_complex(a), conj_complex(b)), tol=1e-12)
        assert allclose(conj_both(mul(a, b)),
                        mul(conj_both(b), conj_both(a)), tol=1e-12)


def test_norm_sq_is_eight_vector_norm():
    rng = np.random.default_rng(19)
    for _ in range(100):
        q = _rand(rng)
        eight = sum(abs(c)**2 for c in q.coefficients())
        np.testing.assert_allclose(norm_sq(q), eight, rtol=1e-14)
        assert norm_sq(q) > 0
    assert norm_sq(Biquaternion()) == 0
    assert norm_sq(Biquaternion(1 + 1j, 0, 2, 0)) == pytest.approx(6.0)


def test_polarization_identity_of_the_norm():
    # norm_sq(f a + i h b) = f^2 norm_sq(a) + h^2 norm_sq(b)
    # + 2 f h Im Sc(a conj_both(b)) for real f and h; scalars and a batch
    rng = np.random.default_rng(23)
    for _ in range(100):
        a, b = _rand(rng), _rand(rng)
        f, h = rng.standard_normal(2)
        want = norm_sq(a*f + b*(1j*h))
        cross = mul(a, conj_both(b)).scalar.imag
        got = f*f*norm_sq(a) + h*h*norm_sq(b) + 2*f*h*cross
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)
    c = rng.standard_normal((2, 4, 5)) + 1j*rng.standard_normal((2, 4, 5))
    a, b = Biquaternion(*c[0]), Biquaternion(*c[1])
    np.testing.assert_allclose(
        norm_sq(a + b*1j),
        [norm_sq(Biquaternion(*c[0, :, j]) + Biquaternion(*c[1, :, j])*1j)
         for j in range(5)], rtol=1e-14, atol=1e-14)


def test_quadratic_form_multiplicative():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a, b = _rand(rng), _rand(rng)
        lhs = quadratic_form(mul(a, b))
        rhs = quadratic_form(a)*quadratic_form(b)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def test_inverse_example_and_roundtrip():
    q = Biquaternion(3, 0, 4, 0)
    assert allclose(inverse(q), Biquaternion(3/25, 0, -4/25, 0), tol=1e-15)
    rng = np.random.default_rng(29)
    for _ in range(100):
        q = Biquaternion(*rng.standard_normal(4))
        assert allclose(mul(q, inverse(q)), E0, tol=1e-12)
        assert allclose(mul(inverse(q), q), E0, tol=1e-12)


def test_inverse_rejects_zero_and_divisors():
    with pytest.raises(ValueError, match="no inverse"):
        inverse(Biquaternion())
    with pytest.raises(ValueError, match="no inverse"):
        inverse(Biquaternion(0.5, 0.5j, 0, 0))


def test_zero_divisor_detection():
    idem = Biquaternion(0.5, 0.5j, 0, 0)
    assert is_zero_divisor(idem)
    assert quadratic_form(idem) == 0
    # the product with the vector conjugate vanishes identically
    assert norm_sq(mul(idem, conj_vec(idem))) < 1e-30
    assert not is_zero_divisor(E0)
    assert not is_zero_divisor(Biquaternion(1, 2, 3, 4))
    assert not is_zero_divisor(Biquaternion())  # zero itself is not flagged


def test_coefficient_coercion():
    q = Biquaternion(1, 2.5, 0, -3)
    assert all(isinstance(c, complex) for c in q.coefficients())
    assert q.scalar == 1 + 0j
    assert q.vector == Biquaternion(0, 2.5, 0, -3)


def test_scaling_keeps_structural_zeros():
    # exact scalar zeros stay 0j, even under an infinite or NaN factor;
    # nonzero coefficients follow complex arithmetic
    q = Biquaternion(1, 0, 0, 0)*math.inf
    assert q.q1 == q.q2 == q.q3 == 0j
    assert all(type(c) is complex for c in q.coefficients()[1:])
    assert q.q0.real == math.inf
    assert (E2*math.nan).q0 == 0j
    arr = E1*np.array([1.0, 2.0])
    assert arr.q0 == 0j and arr.q2 == 0j and arr.q3 == 0j
    np.testing.assert_array_equal(arr.q1, [1.0, 2.0])
    assert allclose(arr + E0, Biquaternion(1, np.array([1.0, 2.0]), 0, 0))


def test_scalar_inverse_and_zero_divisor_are_pinned():
    assert repr(inverse(Biquaternion(1 + 2j, 3, -0.5j, 4)).coefficients()) == (
        "((0.060830670926517574+0.0807667731629393j), "
        "(-0.1334185303514377+0.02453674121405751j), "
        "(0.004089456869009585+0.022236421725239618j), "
        "(-0.17789137380191694+0.03271565495207668j))")
    assert repr(inverse(Biquaternion(1e-150)).coefficients()) == (
        "((1e+150+0j), (-0+0j), (-0+0j), (-0+0j))")
    with pytest.raises(ValueError, match="no inverse"):
        inverse(Biquaternion(1e-157))     # form below TOL*1e-300
    flags = [is_zero_divisor(q) for q in (
        Biquaternion(0.5, 0.5j), Biquaternion(1, 1j*(1 + 1e-13)),
        Biquaternion(1e-7, 1e-7j*(1 + 1e-5)), Biquaternion(3, 0, 4j, 0),
        Biquaternion(1e-200, 1e-200j))]
    assert flags == [True, True, False, False, False]
    assert all(type(f) is bool for f in flags)


def test_zero_divisor_test_is_scale_invariant():
    # |form| <= 1e-12 norm_sq on both sides: small elements are neither
    # flagged nor refused by that alone, and scaling keeps every verdict
    assert not is_zero_divisor(Biquaternion(1e-7))
    assert allclose(inverse(Biquaternion(1e-7)), Biquaternion(1e7), tol=1e-8)
    c = np.logspace(-150, 150, 61)
    for q in (Biquaternion(0.5, 0.5j), Biquaternion(1, 1j*(1 + 1e-13)),
              Biquaternion(1, 1j*(1 + 1e-5)), Biquaternion(3, 0, 4j, 0),
              Biquaternion(1 + 2j, 3, -0.5j, 4), E2):
        flag = is_zero_divisor(q)
        for scale in (c, c*(0.6 - 0.8j)):
            assert (is_zero_divisor(q*scale) == flag).all()
            for s in scale[::12]:
                if flag:
                    with pytest.raises(ValueError, match="no inverse"):
                        inverse(q*complex(s))
                else:       # (1, 1.00001i) has |form| ~ 1e-5 |q|^2
                    assert allclose(mul(q*complex(s), inverse(q*complex(s))),
                                    E0, tol=1e-10)


def _element(q, i):
    return Biquaternion(*(np.broadcast_to(c, (200,))[i]
                          for c in q.coefficients()))


def test_batches_agree_with_scalar_calls():
    rng = np.random.default_rng(101)
    x = rng.standard_normal((200, 8))
    q = Biquaternion(x[:, 0] + 1j*x[:, 1], x[:, 2] + 1j*x[:, 3],
                     x[:, 4] + 1j*x[:, 5], x[:, 6] + 1j*x[:, 7])
    # every fourth element a zero divisor: (1/2)(e0 + i e1) times q
    zd = mul(Biquaternion(0.5, 0.5j), q)
    mixed = Biquaternion(*(np.where(np.arange(200) % 4 == 0, z, c) for z, c in
                           zip(zd.coefficients(), q.coefficients())))
    flags = is_zero_divisor(mixed)
    assert flags.dtype == bool and flags.sum() == 50
    assert flags.tolist() == [is_zero_divisor(_element(mixed, i))
                              for i in range(200)]
    # numpy and Python complex division may round apart by an ulp, so the
    # bound is 1e-15 of the magnitude (the inverses reach |c| ~ 10)
    inv = inverse(q)
    for i in range(200):
        for a, b in zip(_element(inv, i).coefficients(),
                        inverse(_element(q, i)).coefficients()):
            assert abs(a - b) <= 1e-15*max(1.0, abs(b))
    with pytest.raises(ValueError, match="no inverse"):
        inverse(mixed)
    assert not is_zero_divisor(Biquaternion(np.zeros(3))).any()


@pytest.mark.parametrize("i", range(4))
def test_a_nan_coefficient_is_never_close(i):
    # the builtin max over the four coefficient peaks keeps a NaN only when
    # it comes first
    from quatspin.biquaternion import max_dev
    coef = [0.0]*4
    coef[i] = math.nan
    for q in (Biquaternion(*coef),
              Biquaternion(*(np.array([0.0, x]) for x in coef))):
        assert math.isnan(max_dev(q, Biquaternion()))
        assert not allclose(q, Biquaternion())
