"""Laguerre polynomials, spherical harmonics, quadratures vs scipy."""

import ast
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, sph_harm_y

import quatspin
from quatspin import laguerre, spherical_harmonic, quadrature_sphere
from quatspin.hydrogen import _brackets, _steps
from quatspin.levels import QuantumNumbers, _level
from quatspin.special import (
    _laguerre_run, gauss_legendre_nodes, leggauss, spherical_harmonics,
)
from quatspin.verify import gauss_laguerre_nodes


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


def _bits(x, shape=()):
    return np.broadcast_to(np.asarray(x, dtype=float), shape).tobytes()


def _pair_cases(n):
    """The level whose radial brackets run the Laguerre pair
    L_{n-1}^(2s+1), L_n^(2s-1), and the arguments x: arrays and floats."""
    lv = _level(QuantumNumbers(n + 2, -2, 0.5, 50))
    xs = np.array([0.0, 1e-3, 0.7, 3.5, 41.0, 250.0])
    return lv, [xs, xs.reshape(2, 3)] + xs.tolist()


def _weighted_dev(lv, x, got, want):
    """max |P - P'|, |Q - Q'| over x, each weighted by x^s e^{-x/2} (the
    prefactor of F and G at rho = x/2), relative to the weighted maximum
    of |P|, |Q|."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        w = np.exp(lv.s*np.log(x) - x/2)
    err = max(np.max(w*np.abs(np.asarray(g, dtype=float) - v))
              for g, v in zip(got, want))
    return err/max(np.max(w*np.abs(v)) for v in want)


def _exact_brackets(exact, lv, x):
    return [np.array([float(v) for v in vs])
            for vs in zip(*(exact.brackets(lv, xi) for xi in np.ravel(x)))]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 30])
def test_laguerre_pair_is_two_laguerre_calls(n, exact):
    # one run of the recurrence of L_n^(2s-1) gives it with the bits of
    # laguerre, and L_{n-1}^(2s+1) from its running sums; the brackets are
    # their one combination, and floats stay floats
    lv, xs = _pair_cases(n)
    za, sk, W, s = lv.za, lv.sk, lv.W, lv.s
    for x in xs:
        L2, L1 = _laguerre_run(_steps(lv), 2*s - 1, x) if n else (1.0, 0.0)
        assert _bits(L2, np.shape(x)) == _bits(laguerre(n, 2*s - 1, x),
                                               np.shape(x))
        want = za*x*L1 + sk*W*L2, sk*x*L1 + za*W*L2
        got = _brackets(lv, x, _steps(lv))
        for g, w in zip(got, want):
            assert type(g) is type(w)
            assert _bits(g, np.shape(x)) == _bits(w, np.shape(x))
    # the L_{n-1}^(2s+1) term: the two-run route of the same recurrence
    # meets this bound too
    x = xs[0]
    assert _weighted_dev(lv, x, _brackets(lv, x, _steps(lv)),
                         _exact_brackets(exact, lv, x)) < 1e-13


@pytest.mark.parametrize("Z", [1, 92])
def test_radial_brackets_against_mpmath(Z, exact):
    # the running sums stay within a bound the two-run route also meets
    # (worst 4.4e-14 at n = 200, k = 1 against 1.4e-14)
    for n in (40, 200):
        for k in sorted({-1, 1, -(n//3), n//2}):
            lv = _level(QuantumNumbers(n, k, 0.5, Z))
            x = np.linspace(0.0, 4*(n - abs(k)) + 4*lv.s + 40, 33)
            got = _brackets(lv, x, _steps(lv))
            assert _weighted_dev(lv, x, got,
                                 _exact_brackets(exact, lv, x)) < 1e-13, (n, k)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 30])
def test_laguerre_pair_from_held_tables(n):
    # steps held as tuples, as a WaveFunction holds them, give the bits of
    # the generated steps
    lv, xs = _pair_cases(n)
    held = tuple(map(tuple, _steps(lv)))
    for x in xs:
        got = _brackets(lv, x, held)
        want = _brackets(lv, x, _steps(lv))
        for g, w in zip(got, want):
            assert _bits(g, np.shape(x)) == _bits(w, np.shape(x))


def test_laguerre_accepts_a_0d_superscript():
    alpha = np.array(0.7)
    for x in (2.5, np.array([0.0, 1.0, 4.0])):
        np.testing.assert_array_equal(laguerre(5, alpha, x),
                                      laguerre(5, 0.7, x))


_LAGUERRE_PROBE = """
import ast, sys
from quatspin.special import laguerre
xs, cases = ast.literal_eval(sys.argv[1])
print(repr(([[laguerre(n, a, x).hex() for x in xs] for n, a in cases],
            "numpy" in sys.modules)))
"""


def test_laguerre_on_a_python_number_loads_no_numpy():
    # in a fresh interpreter: a float or int x gives a Python float, 1.0 at
    # n = 0, with the bits of the matching element of the array call
    xs = (0.0, 0.5, 2, 7.25, 31.0)
    cases = ((0, 0.5), (1, -0.5), (3, 0.5), (12, 2.7), (40, 1.0))
    src = os.path.dirname(os.path.dirname(quatspin.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _LAGUERRE_PROBE,
                           repr((xs, cases))],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows, numpy_loaded = ast.literal_eval(proc.stdout)
    assert not numpy_loaded
    x = np.array(xs, dtype=float)
    assert rows == [[v.hex() for v in laguerre(n, a, x).tolist()]
                    for n, a in cases]


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


@pytest.mark.parametrize("l", [100, 160, 200])
def test_spherical_harmonics_high_degree(l):
    rng = np.random.default_rng(l)
    th = np.concatenate([[0.0, 1e-3, 0.05, 1.0, math.pi/2, 3.0, math.pi],
                         np.arccos(rng.uniform(-1, 1, 20))])
    ph = rng.uniform(0, 2*math.pi, th.size)
    for m in (0, 1, l//2, l - 10, l - 1, l, -l, -(l//2)):
        got = spherical_harmonic(l, m, th, ph)
        assert np.all(np.isfinite(got)), (l, m)
        np.testing.assert_allclose(got, sph_harm_y(l, m, th, ph),
                                   rtol=1e-10, atol=1e-11)
    # these two were NaN when the norm went through factorials
    assert np.isfinite(spherical_harmonic(160, 160, 1.0, 0.0))
    assert np.isfinite(spherical_harmonic(100, 90, 1.0, 0.0))


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
    x, w = map(np.array, gauss_legendre_nodes(6, 0.0, 2.0))
    assert len(x) == 6
    np.testing.assert_allclose(np.sum(w*x**7), 2.0**8/8, rtol=1e-13)
    assert np.all(x > 0) and np.all(x < 2)


def _mp_legendre_rule(n: int):
    """The n-point Gauss-Legendre rule to 40 digits, the nodes x >= 0 only,
    largest first: Newton's method on the three-term recurrence from
    x = cos(pi (i - 1/4)/(n + 1/2)), with w = 2/((1 - x^2) P_n'(x)^2)."""
    import mpmath
    with mpmath.workdps(40):
        rule = []
        for i in range(1, (n + 1)//2 + 1):
            x = mpmath.cos(mpmath.pi*(i - mpmath.mpf(1)/4)/(n + 0.5))
            for _ in range(50):
                p0, p1 = mpmath.mpf(1), x
                for k in range(1, n):
                    p0, p1 = p1, ((2*k + 1)*x*p1 - k*p0)/(k + 1)
                dp = n*(p0 - x*p1)/(1 - x*x)
                x -= p1/dp
                if abs(p1/dp) < mpmath.mpf(10)**-36:
                    break
            rule.append((x, 2/((1 - x*x)*dp*dp)))
    return rule


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 33, 100, 125, 240])
def test_legendre_rule_against_mpmath(n):
    # every node within half an ulp of 1 of the 40-digit root, and every
    # weight, the edge ones included, within 1e-14 relative
    x, w = leggauss(n)
    assert len(x) == len(w) == n
    assert all(a < b for a, b in zip(x, x[1:]))
    assert x == tuple(0.0 - t for t in reversed(x))
    assert w == w[::-1]
    if n % 2:
        assert x[n//2] == 0.0 and math.copysign(1.0, x[n//2]) == 1.0
    for (xm, wm), xi, wi in zip(_mp_legendre_rule(n), x[::-1], w[::-1]):
        assert abs(float(xi - xm)) <= 2.0**-53
        assert abs(float((wi - wm)/wm)) <= 1e-14


def test_legendre_rule_refuses_a_bad_count():
    for n in (0, -3, 2.5):
        with pytest.raises(ValueError, match="positive integer"):
            leggauss(n)


@pytest.mark.parametrize("n, alpha", [(1, 0.0), (3, 0.5), (12, 1.99),
                                      (40, 1.14), (60, 5.0)])
def test_gauss_laguerre_nodes(n, alpha):
    # exact moments: integral of x^(alpha + j) e^-x = Gamma(alpha + j + 1)
    x, log_w = gauss_laguerre_nodes(n, alpha)
    assert len(x) == n and np.all(np.diff(x) > 0) and x[0] > 0
    for j in (0, 1, n, 2*n - 1):
        got = np.sum(np.exp(log_w + j*np.log(x)))
        assert got == pytest.approx(math.exp(math.lgamma(alpha + j + 1)),
                                    rel=1e-12)
    with pytest.raises(ValueError):
        gauss_laguerre_nodes(0, alpha)
    with pytest.raises(ValueError):
        gauss_laguerre_nodes(n, -1.0)


def test_spherical_harmonic_scalar_and_array_paths_agree():
    # 0-d angles run the recurrence on Python floats, arrays on numpy
    rng = np.random.default_rng(11)
    th = np.concatenate([np.arccos(rng.uniform(-1, 1, 12)), [0.0, math.pi]])
    ph = np.concatenate([rng.uniform(0, 2*math.pi, 12), [0.5, 2.0]])
    for l in range(41):
        for m in range(-l, l + 1):
            arr = spherical_harmonic(l, m, th, ph)
            pts = [spherical_harmonic(l, m, float(t), float(p))
                   for t, p in zip(th, ph)]
            assert all(type(y) is complex for y in pts)
            np.testing.assert_allclose(pts, arr, rtol=1e-14, atol=1e-15)


def test_shared_column_pass_matches_single_harmonics():
    th = np.array([0.2, 1.3, 2.9])
    ph = np.array([0.7, 3.0, 5.5])
    for m in (-4, 0, 3):
        ys = spherical_harmonics((0, 2, 4, 5, 9), m, th, ph)
        for l, y in zip((0, 2, 4, 5, 9), ys):
            if l < abs(m):
                assert np.array_equal(y, np.zeros(3))
            else:
                assert np.array_equal(y, spherical_harmonic(l, m, th, ph))


def test_harmonics_in_any_degree_order_match_single_harmonics():
    # a run resumes upward, answers the degree just below from the value
    # it holds, and starts over for a lower one: bits of one run each
    th = np.array([0.0, 0.2, 1.3, 2.9])
    ph = np.array([0.7, 3.0, 5.5, 1.0])
    for m in (-3, 0, 2):
        degrees = (9, 8, 3, 12, 12, 4, 2, 0, 5)
        for l, y in zip(degrees, spherical_harmonics(degrees, m, th, ph)):
            if l < abs(m):
                assert np.array_equal(y, np.zeros(4))
            else:
                assert y.tobytes() == spherical_harmonic(l, m, th,
                                                         ph).tobytes()
        for l, y in zip(degrees, spherical_harmonics(degrees, m, 0.4, 2.0)):
            want = 0j if l < abs(m) else spherical_harmonic(l, m, 0.4, 2.0)
            assert (y.real.hex(), y.imag.hex()) == (want.real.hex(),
                                                    want.imag.hex())
