"""Spin spherical harmonics: coupling coefficients and spinor functions."""

import copy
import math
import pickle

import numpy as np
import pytest

from quatspin import (
    Biquaternion, QuantumNumbers, SpinorFunction, assemble_wavefunction,
    clebsch_coefficients, spinor_as_vector,
    spinor_as_biquaternion, measure_probability, mul,
    ket_to_vector, norm_sq, spherical_harmonic, quadrature_sphere,
)
from quatspin.special import spherical_harmonics
from quatspin.spinor import spinor_components
from quatspin.verify import clebsch_oracle


def test_clebsch_worked_example():
    # l=2 coupled to j=5/2 at m_j=3/2
    c1, c2 = clebsch_coefficients(2, 2.5, 1.5)
    assert c1 == pytest.approx(2/math.sqrt(5))
    assert c2 == pytest.approx(1/math.sqrt(5))


def test_clebsch_small_table():
    # l=1 by hand: j=3/2 and j=1/2 at m_j=1/2
    c1, c2 = clebsch_coefficients(1, 1.5, 0.5)
    assert c1 == pytest.approx(math.sqrt(2/3))
    assert c2 == pytest.approx(math.sqrt(1/3))
    c1, c2 = clebsch_coefficients(1, 0.5, 0.5)
    assert c1 == pytest.approx(-math.sqrt(1/3))
    assert c2 == pytest.approx(math.sqrt(2/3))
    # stretched state has a single component
    c1, c2 = clebsch_coefficients(2, 2.5, 2.5)
    assert (c1, c2) == (1.0, 0.0)


def test_clebsch_against_eigenvector_oracle():
    for l in range(5):
        js = (0.5,) if l == 0 else (l - 0.5, l + 0.5)
        for j in js:
            mj = -j
            while mj <= j:
                got = clebsch_coefficients(l, j, mj)
                want = clebsch_oracle(l, j, mj)
                np.testing.assert_allclose(got, want, atol=1e-12)
                assert got[0]**2 + got[1]**2 == pytest.approx(1.0)
                mj += 1.0


def test_clebsch_branches_are_orthogonal():
    for l in (1, 2, 3):
        for mj in (0.5, -0.5):
            hi = np.array(clebsch_coefficients(l, l + 0.5, mj))
            lo = np.array(clebsch_coefficients(l, l - 0.5, mj))
            assert abs(hi @ lo) < 1e-14


def test_clebsch_rejects_bad_labels():
    with pytest.raises(ValueError):
        clebsch_coefficients(2, 1.0, 0.5)   # j not half-odd
    with pytest.raises(ValueError):
        clebsch_coefficients(2, 4.5, 0.5)   # j not l +- 1/2
    with pytest.raises(ValueError):
        clebsch_coefficients(2, 2.5, 3.5)   # |m_j| > j
    with pytest.raises(ValueError):
        clebsch_coefficients(2, 2.5, 1.0)   # m_j not half-odd


@pytest.mark.parametrize("j, mj", [(0.5, 0.5000000001), (0.5, 0.4999999999),
                                   (0.5000000001, 0.5), (2.5, 2.5 + 1e-12),
                                   (2.5, -2.5 - 1e-12), (2.5, 1.5 + 2**-50)])
def test_clebsch_half_odd_test_is_exact(j, mj):
    # near a half-odd integer is not one: no weight is taken from a
    # negative square root, and nothing off the lattice is accepted
    with pytest.raises(ValueError, match="must be half-odd-integers"):
        clebsch_coefficients(int(round(j - 0.5)), j, mj)
    with pytest.raises(ValueError, match="must be half-odd-integers"):
        SpinorFunction(int(round(j - 0.5)), j, mj)


def test_worked_example_down_probability():
    # the (l=2, j=5/2, m_j=3/2) state: P_down = |Y_2^2|^2 / 5
    s = SpinorFunction(2, 2.5, 1.5)
    rng = np.random.default_rng(55)
    for _ in range(100):
        th = math.acos(rng.uniform(-1, 1))
        ph = rng.uniform(0, 2*math.pi)
        want = abs(spherical_harmonic(2, 2, th, ph))**2/5
        got = measure_probability("down", s, th, ph)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def p_down(th, ph):
        y = sph_like(th, ph)
        return np.abs(y)**2/5

    def sph_like(th, ph):
        return spherical_harmonic(2, 2, th, ph)

    integral = quadrature_sphere(p_down)
    np.testing.assert_allclose(integral, 0.2, atol=1e-8)


def test_spinor_vector_and_biquaternion_agree():
    rng = np.random.default_rng(66)
    labels = [(1, 1.5, 0.5), (2, 2.5, 1.5), (2, 1.5, -0.5), (3, 3.5, -2.5)]
    for l, j, mj in labels:
        s = SpinorFunction(l, j, mj)
        for _ in range(50):
            th = math.acos(rng.uniform(-1, 1))
            ph = rng.uniform(0, 2*math.pi)
            vec = spinor_as_vector(s, th, ph)
            q = spinor_as_biquaternion(s, th, ph)
            np.testing.assert_allclose(ket_to_vector(q), vec, atol=1e-13)
            total = abs(vec[0])**2 + abs(vec[1])**2
            np.testing.assert_allclose(norm_sq(q), total, rtol=1e-12)
            p_up = measure_probability("up", s, th, ph)
            p_dn = measure_probability("down", s, th, ph)
            np.testing.assert_allclose(p_up + p_dn, total, atol=1e-13)


def test_spinor_sphere_normalization():
    for l, j, mj in ((0, 0.5, 0.5), (1, 0.5, -0.5), (2, 2.5, 0.5),
                     (3, 2.5, 1.5)):
        s = SpinorFunction(l, j, mj)

        def dens(th, ph):
            v = spinor_as_vector(s, th, ph)
            return np.abs(v[0])**2 + np.abs(v[1])**2

        np.testing.assert_allclose(quadrature_sphere(dens), 1.0, atol=1e-8)


def test_stretched_state_has_one_component():
    # m_j = l + 1/2 leaves no valid down orbital: that component is zero
    s = SpinorFunction(1, 1.5, 1.5)
    vec = spinor_as_vector(s, 0.7, 0.2)
    assert vec[1] == 0
    assert abs(vec[0]) > 0
    assert measure_probability("down", s, 0.7, 0.2) == 0


def test_measure_probability_rejects_bad_label():
    s = SpinorFunction(1, 1.5, 0.5)
    with pytest.raises(ValueError):
        measure_probability("sideways", s, 0.5, 0.5)


def test_harmonic_rejects_bad_label():
    s = SpinorFunction(1, 1.5, 0.5)
    assert s.harmonic("up", 0.5, 0.5) == spherical_harmonic(1, 0, 0.5, 0.5)
    assert s.harmonic("down", 0.5, 0.5) == spherical_harmonic(1, 1, 0.5, 0.5)
    with pytest.raises(ValueError, match="'sideways'"):
        s.harmonic("sideways", 0.5, 0.5)


def test_upper_spinor_form_is_spinor_as_biquaternion():
    # psi's one spinor is spinor_as_biquaternion bit for bit, on arrays and
    # at a point: psi = f u - h (N u) with u = spinor_as_biquaternion(y_up);
    # and the spinor's held orders and Legendre columns give the bits of
    # special.spherical_harmonics at the orders m_j -+ 1/2
    w = assemble_wavefunction(QuantumNumbers(6, -4, -1.5, 20))
    s = w.spinor_upper
    assert s.l == 3
    f, h = w._radial(1.3)
    for th, ph in ((np.array([0.4, 1.9]), np.array([2.2, 0.1])),
                   (0.4, 2.2)):
        m = math if type(th) is float else np     # as psi takes them
        u = spinor_as_biquaternion(s, th, ph)
        st = abs(m.sin(th))
        v = mul(Biquaternion(0.0, m.cos(th), st*m.sin(ph), st*m.cos(ph)), u)
        got = w.psi(1.3, th, ph).coefficients()
        for c, a, b in zip(got, u.coefficients(), v.coefficients()):
            assert np.asarray(c).tobytes() == np.asarray(f*a - h*b).tobytes()
        y1, y2 = spinor_components(s, th, ph)
        assert np.asarray(y1).tobytes() == np.asarray(
            s.c1*spherical_harmonics((3,), -2, th, ph)[0]).tobytes()
        assert np.asarray(y2).tobytes() == np.asarray(
            s.c2*spherical_harmonics((3,), -1, th, ph)[0]).tobytes()


def test_copies_and_pickles_rebuild_the_spinor_tables():
    # the orders and Legendre columns are not fields: ==, hash and repr
    # ignore them, and a copy, a deep copy and a pickle rebuild them and
    # give the harmonics' bits at a point and on arrays
    s = SpinorFunction(4, 3.5, -2.5)
    assert "_tables" not in vars(s)
    assert repr(s) == ("SpinorFunction(l=4, j=3.5, m_j=-2.5, "
                       f"c1={s.c1!r}, c2={s.c2!r})")
    th, ph = np.array([0.2, 1.9, 3.0]), np.array([0.7, 4.0, 0.0])
    for twin in (copy.copy(s), copy.deepcopy(s),
                 pickle.loads(pickle.dumps(s))):
        assert twin == s and hash(twin) == hash(s) and repr(twin) == repr(s)
        assert twin._tables is not s._tables and twin._tables == s._tables
        for which in ("up", "down"):
            for pt in ((1.1, 0.4), (th, ph)):
                assert (np.asarray(twin.harmonic(which, *pt)).tobytes()
                        == np.asarray(s.harmonic(which, *pt)).tobytes())


@pytest.mark.parametrize("l, j, mj", [(0, 0.5, 0.5), (1, 0.5, -0.5),
                                      (3, 3.5, 3.5), (5, 4.5, -1.5)])
def test_spinor_density_is_the_phi_free_spin_sum(l, j, mj):
    # |y|^2 from the real columns is measure_probability up + down within a
    # few eps at every phi, and a Python float gives a Python float, within
    # a few eps of the array route
    s = SpinorFunction(l, j, mj)
    th = np.linspace(0.0, math.pi, 9)
    for ph in (0.0, 1.3, -4.0):
        want = (measure_probability("up", s, th, ph)
                + measure_probability("down", s, th, ph))
        assert np.allclose(s.density(th), want, rtol=1e-14, atol=1e-16)
    got = s.density(0.7)
    assert type(got) is float
    assert abs(got - s.density(np.array([0.7]))[0]) <= 4e-16*got


def test_lower_spinor_product_matches_clebsch_route(monkeypatch):
    # with f = 0 and h = 1, psi is i y_low as psi forms it, -(N y_up) with
    # N = i sigma . r_hat; the Clebsch route to y_low (its own weights and
    # degree l(-k)) agrees within 1e-13 of |y_up|, over the seeded domain
    # states (n <= 60, Z up to 92, m_j = -j, drawn, +j), 40 directions each
    from quatspin import hydrogen as hy, verify
    monkeypatch.setattr(hy.WaveFunction, "_radial",
                        lambda self, r, r_ends=(): (0.0, 1.0))
    rng = np.random.default_rng(22)
    for qn in verify._domain_states(rng):
        w = assemble_wavefunction(qn)
        th, ph = verify._sphere_points(rng.random((40, 2)))
        got = w.psi(1.0, th, ph)
        lower = SpinorFunction(qn.l_lower, qn.j, qn.m_j)
        want = 1j*spinor_as_biquaternion(lower, th, ph)
        scale = np.sqrt(norm_sq(spinor_as_biquaternion(w.spinor_upper, th,
                                                       ph)))
        for a, b in zip(got.coefficients(), want.coefficients()):
            assert np.all(np.abs(a - b) <= 1e-13*scale), qn
