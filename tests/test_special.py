"""Laguerre polynomials, spherical harmonics, quadratures vs scipy."""

import math

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, sph_harm_y

from quatspin import laguerre, spherical_harmonic, quadrature_sphere
from quatspin.special import gauss_legendre_nodes


def test_laguerre_against_scipy():
    rng = np.random.default_rng(101)
    x = np.concatenate([[0.0], rng.uniform(0, 30, 40)])
    for n in range(7):
        for alpha in (-0.5, 0.3, 1.0, 2.7, 2*0.99997 - 1):
            got = laguerre(n, alpha, x)
            want = eval_genlaguerre(n, alpha, x)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_laguerre_low_orders():
    x = np.linspace(0, 5, 11)
    np.testing.assert_allclose(laguerre(0, 0.7, x), np.ones_like(x))
    np.testing.assert_allclose(laguerre(1, 0.7, x), 1.7 - x, rtol=1e-14)
    assert laguerre(2, 0.0, 0.0) == pytest.approx(1.0)
    # scalar in, scalar out
    assert np.isscalar(laguerre(3, 1.5, 2.0))


def test_laguerre_rejects_bad_arguments():
    with pytest.raises(ValueError):
        laguerre(-1, 0.5, 1.0)
    with pytest.raises(ValueError):
        laguerre(2, -1.0, 1.0)


def test_spherical_harmonics_against_scipy():
    rng = np.random.default_rng(211)
    for l in range(6):
        for m in range(-l, l + 1):
            for _ in range(5):
                th = math.acos(rng.uniform(-1, 1))
                ph = rng.uniform(0, 2*math.pi)
                got = spherical_harmonic(l, m, th, ph)
                want = complex(sph_harm_y(l, m, th, ph))
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_spherical_harmonics_poles_and_phase():
    # Condon-Shortley phase: Y_1^1(pi/2, 0) = -sqrt(3/(8 pi))
    got = spherical_harmonic(1, 1, math.pi/2, 0.0)
    assert got.real == pytest.approx(-math.sqrt(3/(8*math.pi)))
    assert abs(got.imag) < 1e-15
    # only m = 0 survives at the poles
    assert abs(spherical_harmonic(2, 1, 0.0, 0.3)) < 1e-15
    got = spherical_harmonic(2, 0, 0.0, 0.0)
    assert got.real == pytest.approx(math.sqrt(5/(4*math.pi)))


def test_spherical_harmonics_reject_bad_m():
    with pytest.raises(ValueError):
        spherical_harmonic(1, 2, 0.5, 0.5)
    with pytest.raises(ValueError):
        spherical_harmonic(-1, 0, 0.5, 0.5)


def test_sphere_quadrature_orthonormality():
    def dens(l, m):
        return lambda th, ph: np.abs(_y_grid(l, m, th, ph))**2

    def _y_grid(l, m, th, ph):
        return sph_harm_y(l, m, th, ph)

    for l, m in ((0, 0), (1, 1), (2, -1), (4, 3)):
        val = quadrature_sphere(dens(l, m))
        np.testing.assert_allclose(val, 1.0, atol=1e-10)
    cross = quadrature_sphere(
        lambda th, ph: np.conj(sph_harm_y(2, 1, th, ph))
        * sph_harm_y(3, 1, th, ph))
    assert abs(cross) < 1e-10


def test_sphere_quadrature_constant():
    val = quadrature_sphere(lambda th, ph: np.ones_like(th))
    np.testing.assert_allclose(val, 4*math.pi, rtol=1e-12)


def test_gauss_legendre_nodes():
    # exact for polynomials up to degree 2n-1
    x, w = gauss_legendre_nodes(6, 0.0, 2.0)
    assert len(x) == 6
    np.testing.assert_allclose(np.sum(w*x**7), 2.0**8/8, rtol=1e-13)
    assert np.all(x > 0) and np.all(x < 2)
