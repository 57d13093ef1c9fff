"""Relativistic Coulomb bound states: energies, radial forms, densities."""

import copy
import json
import math
import os
import pickle
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammainc

from quatspin import (
    Biquaternion, conj_both, mul, norm_sq,
    assemble_wavefunction, probability_in_region, allclose, verify,
)
from quatspin.hydrogen import WaveFunction, _log_norm_sq, _split_ok
from quatspin.levels import (
    ALPHA_FS, MC2_EV, QuantumNumbers, _level, sommerfeld_energy, energy,
    binding_energy_ev, radial_parameters,
)
from quatspin.special import gauss_legendre_nodes
from quatspin.spinor import spinor_as_biquaternion
from quatspin.verify import (
    _radial_FG, ode_residual, shoot_eigenvalue, system_residual,
)

# frozen reference values, computed once from the closed formula and checked
# against the independent shooting solver
_GROUND_BINDING_EV = -13.605874258219037
_SPLITTING_2P_EV = 4.5284159742e-05
_P_INSIDE_1_BOHR = 0.3233359303758578


def test_ground_state_energy():
    qn = QuantumNumbers(1, -1)
    assert energy(qn) == pytest.approx(math.sqrt(1 - ALPHA_FS**2), rel=1e-15)
    assert binding_energy_ev(qn) == pytest.approx(_GROUND_BINDING_EV,
                                                  abs=1e-6)


def test_fine_structure_splitting():
    e_2p12 = sommerfeld_energy(2, 1, 1)
    e_2p32 = sommerfeld_energy(2, -2, 1)
    split_ev = (e_2p32 - e_2p12)*MC2_EV
    assert split_ev == pytest.approx(_SPLITTING_2P_EV, rel=1e-6)
    # 2s and 2p1/2 are exactly degenerate (same n, |k|)
    assert sommerfeld_energy(2, -1, 1) == sommerfeld_energy(2, 1, 1)


def test_degeneracy_in_k_sign():
    for Z in (1, 20, 50):
        for n, k in ((2, 1), (3, 1), (3, 2)):
            assert sommerfeld_energy(n, k, Z) == \
                pytest.approx(sommerfeld_energy(n, -k, Z), rel=1e-15)


def test_energy_ordering_and_limits():
    es = [sommerfeld_energy(n, -1, 1) for n in (1, 2, 3, 4)]
    assert all(a < b < 1.0 for a, b in zip(es, es[1:]))
    assert sommerfeld_energy(1, -1, 0.0) == 1.0
    # heavier nuclei bind more deeply
    assert sommerfeld_energy(1, -1, 50) < sommerfeld_energy(1, -1, 1)


def test_quantum_number_validation():
    QuantumNumbers(1, -1, 0.5, 1)
    QuantumNumbers(3, 2, 1.5, 50)
    with pytest.raises(ValueError):
        QuantumNumbers(1, 0)                 # k must be nonzero
    with pytest.raises(ValueError):
        QuantumNumbers(1, 1)                 # n = k > 0 has no solution
    with pytest.raises(ValueError):
        QuantumNumbers(2, 3)                 # |k| > n
    with pytest.raises(ValueError):
        QuantumNumbers(0, -1)                # n >= 1
    with pytest.raises(ValueError):
        QuantumNumbers(1, -1, 1.5)           # |m_j| > j
    with pytest.raises(ValueError):
        QuantumNumbers(1, -1, 0.0)           # m_j must be half-odd
    with pytest.raises(ValueError, match="s imaginary"):
        QuantumNumbers(1, -1, 0.5, 200)      # Z alpha >= |k|
    with pytest.raises(ValueError):
        QuantumNumbers(1, -1, 0.5, 0)        # Z >= 1
    with pytest.raises(ValueError, match="n must be"):
        QuantumNumbers(True, -1)             # bool is not an integer here
    with pytest.raises(ValueError, match="m_j"):
        QuantumNumbers(1, -1, math.nan)
    for mj in (0.5000000001, 0.4999999999, -0.5 - 1e-12, 1.5 + 2**-51):
        with pytest.raises(ValueError, match="m_j must be half-odd-integer"):
            QuantumNumbers(2, -2, mj)        # near half-odd is not half-odd
    with pytest.raises(ValueError, match="must not exceed n"):
        sommerfeld_energy(1, -2, 1)          # n < |k|


def test_valid_state_count_low_shells():
    valid = []
    for n in (1, 2, 3):
        for k in (-2, -1, 1, 2):
            try:
                valid.append(QuantumNumbers(n, k, 0.5, 1))
            except ValueError:
                pass
    assert len(valid) == 8


def test_orbital_labels():
    # k encodes j and the two orbital quantum numbers
    qn = QuantumNumbers(2, -2)
    assert qn.j == 1.5
    assert qn.l_upper == 1 and qn.l_lower == 2
    qn = QuantumNumbers(2, 1)
    assert qn.j == 0.5
    assert qn.l_upper == 1 and qn.l_lower == 0
    qn = QuantumNumbers(1, -1)
    assert qn.l_upper == 0 and qn.l_lower == 1
    assert qn.n_r == 0


def test_radial_parameters_identities():
    for n, k, Z in ((1, -1, 1), (2, 1, 20), (3, -2, 50)):
        qn = QuantumNumbers(n, k, 0.5, Z)
        s, C, scale = radial_parameters(qn)
        za = Z*ALPHA_FS
        assert s*s + za*za == pytest.approx(k*k, rel=1e-14)
        E = energy(qn)
        assert C*C + E*E == pytest.approx(1.0, rel=1e-14)
        assert scale == pytest.approx(C/ALPHA_FS)


def test_ground_state_component_ratio():
    # the two components are proportional: G/F = -(1-s)/(Z alpha)
    qn = QuantumNumbers(1, -1)
    s, _, _ = radial_parameters(qn)
    want = -(1 - s)/ALPHA_FS
    for rho in (0.1, 1.0, 5.0):
        F, G = _radial_FG(_level(qn), rho)
        ratio = G/F
        assert ratio == pytest.approx(want, rel=1e-12)


def test_radial_functions_vanish_at_origin():
    qn = QuantumNumbers(2, -1)
    assert _radial_FG(_level(qn), 0.0) == (0.0, 0.0)
    rho = np.array([0.0, 1e-6, 1.0])
    assert _radial_FG(_level(qn), rho)[0].shape == (3,)


def test_radial_node_counts():
    # the large component has n - l_upper - 1 interior nodes
    expected = {(1, -1): 0, (2, -1): 1, (2, 1): 0,
                (2, -2): 0, (3, -1): 2, (3, -2): 1}
    for (n, k), want in expected.items():
        qn = QuantumNumbers(n, k, 0.5, 1)
        rho = np.linspace(1e-3, 35.0, 20000)
        F, _ = _radial_FG(_level(qn), rho)
        F = F[np.abs(F) > 1e-12*np.abs(F).max()]
        sgn = np.sign(F)
        nodes = int(np.sum(sgn[1:] != sgn[:-1]))
        assert nodes == want, (n, k)
        assert nodes == n - qn.l_upper - 1


def test_ode_residual_small_at_eigenvalue():
    grid = np.linspace(0.05, 30.0, 200)
    for n, k in ((1, -1), (2, -1), (2, 1), (2, -2), (3, -1), (3, -2)):
        qn = QuantumNumbers(n, k, 0.5, 1)
        r1, r2 = ode_residual(qn, energy(qn), grid)
        assert r1.max() < 1e-6 and r2.max() < 1e-6, (n, k)


def test_ode_residual_blows_up_off_eigenvalue():
    qn = QuantumNumbers(1, -1, 0.5, 20)
    grid = np.linspace(0.05, 30.0, 200)
    E = energy(qn)
    right = max(r.max() for r in ode_residual(qn, E, grid))
    wrong = max(r.max() for r in ode_residual(qn, E + 1e-3, grid))
    assert wrong > 1e4*right
    assert wrong > 1e-4


def test_residual_input_validation():
    qn = QuantumNumbers(1, -1)
    grid = np.linspace(0.05, 30.0, 50)
    with pytest.raises(ValueError):
        ode_residual(qn, 1.5, grid)          # not a bound energy
    with pytest.raises(ValueError):
        ode_residual(qn, energy(qn), np.array([0.0, 1.0]))  # r = 0
    with pytest.raises(ValueError):
        ode_residual(qn, energy(qn), np.array([2.0, 1.0]))  # not ascending


def test_system_residual_zero_function_reports_zero():
    qn = QuantumNumbers(1, -1)
    grid = np.linspace(0.1, 10.0, 20)
    zero = lambda r: (np.zeros_like(r), np.zeros_like(r))
    r1, r2 = system_residual(qn, energy(qn), zero, grid)
    assert r1.max() == 0.0 and r2.max() == 0.0


def test_shooting_matches_formula():
    for n, k, Z in ((1, -1, 1), (2, -1, 20)):
        qn = QuantumNumbers(n, k, 0.5, Z)
        E = energy(qn)
        got = shoot_eigenvalue(qn)
        assert abs(got - E)/(1 - E) < 1e-8


def test_shooting_raises_without_a_sign_change():
    with pytest.raises(RuntimeError, match="no sign change"):
        shoot_eigenvalue(QuantumNumbers(5, -1))


@pytest.mark.parametrize("Z", [1, 92])
def test_shooting_never_returns_a_neighbouring_level(Z):
    # the +-35 % bracket around n = 8 holds the n = 7 root, whose F has
    # 6 nodes where n = 8, k = -1 has 7
    with pytest.raises(RuntimeError, match="has 6 radial nodes; n=8, k=-1 "
                                           "has 7"):
        shoot_eigenvalue(QuantumNumbers(8, -1, 0.5, Z))


def test_wavefunction_normalization_and_shells():
    w = assemble_wavefunction(QuantumNumbers(1, -1))
    assert probability_in_region(w, 0.0, math.inf) == pytest.approx(1.0,
                                                                    abs=1e-9)
    p1 = probability_in_region(w, 0.0, 1.0)
    assert p1 == pytest.approx(_P_INSIDE_1_BOHR, abs=1e-9)
    # the ground density is rho^{2s} e^{-2 rho}: closed-form shell integral
    s, _, scale = radial_parameters(w.qn)
    assert p1 == pytest.approx(float(gammainc(2*s + 1, 2*scale)), abs=1e-9)
    # additivity
    p_in = probability_in_region(w, 0.0, 1.5)
    p_out = probability_in_region(w, 1.5, math.inf)
    assert p_in + p_out == pytest.approx(1.0, abs=1e-9)
    val, err = probability_in_region(w, 0.5, 2.0, return_error=True)
    assert 0 < val < 1 and err < 1e-9
    with pytest.raises(ValueError):
        probability_in_region(w, 2.0, 1.0)


@pytest.mark.parametrize("Z", [1, 92])
@pytest.mark.parametrize("n", [33, 40, 50])
def test_full_range_probability_at_high_n(n, Z):
    # the normalization is exact and the probability cut-off grows with n
    w = assemble_wavefunction(QuantumNumbers(n, -1, 0.5, Z))
    assert abs(probability_in_region(w, 0.0, math.inf) - 1.0) < 1e-10


def test_tail_probability_regression():
    # reference from adaptive quadrature split at the density's bulk; an
    # absolute tolerance of 1e-13 alone would pass values 2e-9 off
    w = assemble_wavefunction(QuantumNumbers(40, 7, 0.5, 50))
    assert probability_in_region(w, 100.0, math.inf) == pytest.approx(
        2.277759886266109e-20, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("Z", [1, 92])
@pytest.mark.parametrize("n,k", [(60, -1), (60, 30), (80, -1), (80, 40),
                                 (120, -1), (120, 60)])
def test_full_range_probability_beyond_n_60(n, k, Z):
    w = assemble_wavefunction(QuantumNumbers(n, k, 0.5, Z))
    assert abs(probability_in_region(w, 0.0, math.inf) - 1.0) < 1e-12


def test_shell_probabilities_nonnegative():
    rng = np.random.default_rng(4)
    for n, k, Z in ((1, -1, 1), (5, 2, 92), (20, -7, 20), (40, 7, 50)):
        w = assemble_wavefunction(QuantumNumbers(n, k, 0.5, Z))
        # edges out to twice the cap, so far shells underflow or vanish
        edges = rng.random((20, 2))*2*max(100, 4*n + 60)/w.C*ALPHA_FS
        for lo, hi in np.sort(edges, axis=1):
            val, err = probability_in_region(w, lo, hi, return_error=True)
            assert val >= 0.0 and err >= 0.0


def test_density_at_large_k_peak():
    # F = rho^s e^{-rho} P peaks at rho = s; unnormalized it overflows
    w = assemble_wavefunction(QuantumNumbers(150, -150))
    d = w.density(w.s/w.C*ALPHA_FS, 1.0, 0.3)
    assert math.isfinite(d) and d > 0


def test_normalization_out_of_float_range_raises():
    with pytest.raises(ValueError, match="float range"):
        assemble_wavefunction(QuantumNumbers(200, -200))


def test_normalization_from_n_359_assembles(exact):
    # the closed-form A is finite where the Gauss-Laguerre sum of the norm
    # turned NaN (from n = 359 at k = -1, Z = 1), and no step warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for Z in (1, 92):
            for n in (359, 1000, 2000):
                w = assemble_wavefunction(QuantumNumbers(n, -1, 0.5, Z))
                want = math.exp(-0.5*float(exact.log_norm_sq(w.level)))
                assert w.A == pytest.approx(want, rel=1e-12), (n, Z)


def test_closed_form_normalization_against_both_routes(exact):
    # every level with n <= 60 against the exact Gauss-Laguerre sum, and
    # levels up to n = 2000 against the closed form at 50 digits; the
    # deviation is that of the normalization-closed-form check
    def dev(got, want):
        return abs(got - want)/max(1.0, abs(want))

    worst = 0.0
    for Z in (1, 20, 50, 92):
        for n in range(1, 61):
            for k in range(-n, n):
                if k:
                    lv = _level(QuantumNumbers(n, k, 0.5, Z))
                    worst = max(worst, dev(_log_norm_sq(lv),
                                           verify._log_radial_norm_sq(lv)))
    assert worst <= 1e-13
    for n, k, Z in ((359, -1, 1), (500, 250, 20), (1000, -1000, 92),
                    (2000, 1, 50), (2000, -1999, 1), (2000, 1000, 92)):
        lv = _level(QuantumNumbers(n, k, 0.5, Z))
        assert dev(_log_norm_sq(lv),
                   float(exact.log_norm_sq(lv))) <= 1e-13, (n, k, Z)


def test_shell_probability_past_the_float_range_raises():
    # from n = 235 (k = -1, Z = 1) the Laguerre brackets overflow at the
    # rule's cap; n = 234 is still in range, and neither call warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = assemble_wavefunction(QuantumNumbers(234, -1))
        p, err = probability_in_region(w, 0.0, math.inf, return_error=True)
        assert abs(p - 1.0) < 1e-12 and 0.0 <= err < 1e-12
        w = assemble_wavefunction(QuantumNumbers(250, -1))
        with pytest.raises(ValueError, match="float range"):
            probability_in_region(w, 0.0, math.inf)
        with pytest.raises(ValueError, match="float range"):
            probability_in_region(w, 1000.0, math.inf, return_error=True)
        # a shell that stays clear of the overflow keeps its value
        p, err = probability_in_region(w, 0.0, 1.0, return_error=True)
        assert 0.0 < p < 1e-7 and 0.0 <= err < 1e-20


def test_density_assembly_structure():
    rng = np.random.default_rng(77)
    w = assemble_wavefunction(QuantumNumbers(2, -2, 1.5))
    r = rng.uniform(0.2, 8.0, 25)
    th = np.arccos(rng.uniform(-1, 1, 25))
    ph = rng.uniform(0, 2*math.pi, 25)
    psi = w.psi(r, th, ph)
    prod = mul(conj_both(psi), psi)
    # scalar real and nonnegative; e2, e3 cancel; e1 = -i * scalar
    assert np.all(np.abs(prod.q0.imag) < 1e-12)
    assert np.all(prod.q0.real >= 0)
    assert np.all(np.abs(prod.q2) < 1e-12) and np.all(np.abs(prod.q3) < 1e-12)
    assert np.all(np.abs(prod.q1 + 1j*prod.q0.real) < 1e-12)
    dens = w.density(r, th, ph)
    np.testing.assert_allclose(dens, prod.q0.real/ALPHA_FS**3, rtol=1e-12)
    assert w.density(r[0], th[0], ph[0]) == pytest.approx(dens[0], rel=1e-14)
    # the verify oracles: spin-basis assembly and the hand-expanded density
    assert allclose(w.psi(r, th, ph), verify.psi_oracle(w, r, th, ph),
                    tol=1e-14)
    a, b = verify.amplitude_oracle(w, r, th, ph)
    np.testing.assert_allclose(np.abs(a)**2 + np.abs(b)**2, prod.q0.real,
                               rtol=1e-12)
    np.testing.assert_allclose(dens, verify.density_oracle(w, r, th),
                               rtol=1e-12)


def test_density_rejects_nonpositive_radius():
    w = assemble_wavefunction(QuantumNumbers(1, -1))
    for r in (0.0, -1.0, np.array([0.5, 0.0]), np.array([[1.0], [-2.0]])):
        with pytest.raises(ValueError, match="r must be > 0"):
            w.density(r, 0.3, 0.0)
    with pytest.raises(ValueError, match="r must be > 0"):
        w.density_grid(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    for r in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(ValueError, match="r must be > 0"):
            w.density(r, 0.3, 0.0)


@pytest.mark.parametrize("qn", [QuantumNumbers(20, -7, 2.5, 50),
                                QuantumNumbers(150, -150, -3.5, 92)])
def test_point_density_for_every_scalar_type(qn):
    # Python floats take the float path; ints, numpy scalars and 0-d arrays
    # are converted to it and give the same values (r = 1000 Bohr takes the
    # one-exponential prefactor)
    w = assemble_wavefunction(qn)
    for r, th, ph in ((1.0, 0.5, 2.0), (3.0, 0.0, 0.0), (1000.0, 3.0, 5.0)):
        psi = w.psi(r, th, ph)
        dens = w.density(r, th, ph)
        assert all(type(c) is complex for c in psi.coefficients())
        assert type(dens) is float and dens >= 0
        for cast in (int, np.float64, np.array):
            args = [cast(x) if cast is not int or x == int(x) else x
                    for x in (r, th, ph)]
            assert w.psi(*args) == psi
            assert w.density(*args) == dens
    for r in (0.0, -1.0, math.nan, 0, np.float64(-2.0), np.array(math.nan)):
        with pytest.raises(ValueError, match="r must be > 0"):
            w.density(r, 0.3, 0.0)
    for r in (math.inf, np.float64(math.inf), np.array(math.inf)):
        assert w.density(r, 0.3, 0.0) == 0.0


@pytest.mark.parametrize("n, k, mj, Z", [(1, -1, 0.5, 1), (3, 2, -1.5, 20),
                                         (20, -7, 2.5, 50),
                                         (32, 31, 30.5, 92),
                                         (150, -150, -3.5, 92)])
def test_point_density_is_norm_sq_of_psi_bit_for_bit(n, k, mj, Z):
    # at one point psi's four coefficients are f u - h (N u), signed zeros
    # included, with f, h from _radial_FG, u = y_up from
    # spinor_as_biquaternion and N = i sigma . r_hat = n_z e1 + n_y e2 +
    # n_x e3 through mul; the density is the real kernel, the bits of the
    # float table's entry at the same node and within 4 eps of
    # norm_sq(psi)/alpha^3; at
    # n = |k| = 150, r = 1000 Bohr takes the one-exponential prefactor,
    # and r = inf gives the limit 0
    w = assemble_wavefunction(QuantumNumbers(n, k, mj, Z))
    rng = np.random.default_rng(n)
    pts = [(1000.0, 3.0, 5.0), (1e-3, 0.0, 0.0), (2.0, math.pi, 1.0),
           (math.inf, 1.0, 0.0)]
    pts += [(float(rng.uniform(0.02, 3.0))*n*n/Z,
             float(np.arccos(rng.uniform(-1.0, 1.0))),
             float(rng.uniform(0.0, 2*math.pi))) for _ in range(50)]
    eps = sys.float_info.epsilon
    for r, th, ph in pts:
        F, G = _radial_FG(w.level, w.C*r/ALPHA_FS, w.A)
        u = spinor_as_biquaternion(w.spinor_upper, th, ph)
        s = math.sin(th)
        v = mul(Biquaternion(0, math.cos(th), s*math.sin(ph), s*math.cos(ph)),
                u)
        f, h = ALPHA_FS/r*F, ALPHA_FS/r*G
        psi = w.psi(r, th, ph)
        for got, a, b in zip(psi.coefficients(), u.coefficients(),
                             v.coefficients()):
            want = f*a - h*b
            assert (got.real.hex(), got.imag.hex()) == (
                want.real.hex(), want.imag.hex()), (r, th, ph)
        dens = w.density(r, th, ph)
        assert dens.hex() == w._density_table([r], [th])[0].hex(), (r, th)
        want = norm_sq(psi)/ALPHA_FS**3
        assert abs(dens - want) <= 4*eps*want, (r, th, ph, dens, want)
    assert w.density(math.inf, 1.0, 0.0) == 0.0
    if n == 150:
        rho = w.C*1000.0/ALPHA_FS
        assert not _split_ok(math.log(w.A), w.s*math.log(rho), rho)


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(1, 60), k_pick=st.integers(0, 119),
       mj_pick=st.integers(0, 119), Z=st.sampled_from([1, 20, 50, 92]),
       u=st.floats(0.02, 3.0), theta=st.floats(0.0, math.pi),
       phi1=st.floats(-1e6, 1e6), phi2=st.floats(-1e6, 1e6))
def test_density_does_not_depend_on_phi(n, k_pick, mj_pick, Z, u, theta,
                                        phi1, phi2):
    # the paired harmonics share their order m: no phi reaches the density,
    # at a point or on arrays
    w = assemble_wavefunction(_valid_state(n, k_pick, mj_pick, Z))
    r = u*n*n/Z
    assert (w.density(r, theta, phi1).hex()
            == w.density(r, theta, phi2).hex())
    rs, ths = np.array([[r], [2*r]]), np.array([theta, math.pi - theta])
    assert (w.density(rs, ths, phi1).tobytes()
            == w.density(rs, ths, np.full(2, phi2)).tobytes())


def test_density_runs_without_the_complex_assembly(monkeypatch):
    # density, density_grid and _density_table never call the spin-basis
    # assembly or the complex harmonics; psi does
    from quatspin import special, spinor

    def refuse(*args):
        raise AssertionError("complex assembly called")

    for module, name in ((spinor, "_spin_basis"), (spinor, "_harmonics"),
                         (special, "_harmonics")):
        monkeypatch.setattr(module, name, refuse)
    w = assemble_wavefunction(QuantumNumbers(5, 2, -1.5, 20))
    assert w.density(1.0, 0.4, 2.0) > 0
    assert np.all(w.density(np.array([1.0, 2.0]), 0.4, 2.0) > 0)
    assert np.all(w.density_grid(np.array([[0.5], [1.0]]),
                                 np.array([0.3, 1.2, 2.8])) > 0)
    assert len(w._density_table([0.5, 1.0], [0.3, 1.2])) == 4
    with pytest.raises(AssertionError, match="complex assembly"):
        w.psi(1.0, 0.4, 2.0)


_NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", _NON_FINITE)
@pytest.mark.parametrize("method", ["psi", "density"])
def test_non_finite_angles_raise_at_a_point(method, bad):
    w = assemble_wavefunction(QuantumNumbers(3, 2, -1.5, 20))
    call = getattr(w, method)
    for args in ((1.0, bad, 0.3), (1.0, 0.3, bad), (1.0, bad, bad),
                 (1.0, np.float64(bad), 0.3), (2, 0.3, np.array(bad))):
        with pytest.raises(ValueError, match="theta and phi must be finite"):
            call(*args)


@pytest.mark.parametrize("bad", _NON_FINITE)
@pytest.mark.parametrize("method", ["psi", "density"])
def test_non_finite_angles_raise_on_arrays(method, bad):
    w = assemble_wavefunction(QuantumNumbers(3, 2, -1.5, 20))
    call = getattr(w, method)
    r, good = np.array([[0.5], [1.0]]), np.array([0.3, 1.2])
    for args in ((r, np.array([0.3, bad]), 0.3), (r, good, bad),
                 (r, good, np.array([bad, 1.0])), (1.0, good, bad)):
        with pytest.raises(ValueError, match="theta and phi must be finite"):
            call(*args)
    if method == "density":
        with pytest.raises(ValueError, match="theta and phi must be finite"):
            w.density_grid(r, np.array([0.3, bad]))


@pytest.mark.parametrize("n, k, mj, Z", [(1, -1, 0.5, 1), (7, 3, -1.5, 50),
                                         (40, -12, 2.5, 92)])
def test_density_at_infinite_radius_is_the_limit_zero(n, k, mj, Z):
    w = assemble_wavefunction(QuantumNumbers(n, k, mj, Z))
    with np.errstate(invalid="raise"):  # no NaN made and hidden on the way
        assert w.density(math.inf, 1.0, 0.0) == 0.0
        r = np.array([0.5, 2.0, math.inf])
        th = np.array([0.3, 2.8])
        R, TH = np.meshgrid(r, th, indexing="ij")
        grid = w.density_grid(R, TH)
    assert grid.shape == (3, 2)
    assert np.all(grid[2] == 0.0)
    np.testing.assert_array_equal(grid[:2], w.density_grid(R[:2], TH[:2]))


def test_density_grid_matches_pointwise():
    w = assemble_wavefunction(QuantumNumbers(2, 1, -0.5))
    r = np.array([0.5, 1.0, 4.0])
    th = np.array([0.3, 1.2, 2.8])
    R, TH = np.meshgrid(r, th, indexing="ij")
    grid = w.density_grid(R, TH)
    assert np.all(grid >= 0)
    for i in range(3):
        for j in range(3):
            want = w.density(r[i], th[j], 0.9)   # phi-independent
            assert grid[i, j] == pytest.approx(want, rel=1e-10)


def test_density_integrates_to_one_3d():
    w = assemble_wavefunction(QuantumNumbers(1, -1))
    r_max = 40.0/w.C*ALPHA_FS
    r, wr = gauss_legendre_nodes(96, 0.0, r_max)
    x, wx = np.polynomial.legendre.leggauss(64)
    R, TH = np.meshgrid(r, np.arccos(x), indexing="ij")
    total = 2*math.pi*float(np.sum(w.density_grid(R, TH)*R*R
                                   * np.outer(wr, wx)))
    assert total == pytest.approx(1.0, abs=1e-6)


def test_wavefunction_record_fields():
    qn = QuantumNumbers(3, -2, -1.5, 20)
    w = assemble_wavefunction(qn)
    assert w.qn == qn
    assert 0 < w.energy < 1
    assert w.A > 0
    assert w.spinor_upper.l == qn.l_upper
    assert w._fields == ("qn", "level", "A", "spinor_upper")
    F, G = _radial_FG(w.level, w.C/ALPHA_FS)
    assert np.isfinite(F) and np.isfinite(G)


def test_density_separable_inputs_match_points():
    # the same nodes as a meshgrid, as broadcast axes and point by point;
    # psi cuts constant axes, which must not change a value or the shape
    w = assemble_wavefunction(QuantumNumbers(7, 3, -1.5, 20))
    r = np.linspace(0.05, 6.0, 9)
    th = np.linspace(0.0, math.pi, 5)
    R, TH = np.meshgrid(r, th, indexing="ij")
    mesh = w.density(R, TH, 0.4)
    axes = w.density(r[:, None], th[None, :], 0.4)
    points = np.array([[w.density(a, b, 0.4) for b in th] for a in r])
    assert mesh.shape == axes.shape == (9, 5)
    np.testing.assert_allclose(mesh, points, rtol=1e-14, atol=0)
    np.testing.assert_allclose(axes, points, rtol=1e-14, atol=0)
    # phi varying along a third axis, and inputs constant along every axis
    PH = np.broadcast_to(np.array([0.4, 2.0])[None, None, :], (9, 5, 2))
    np.testing.assert_allclose(w.density(R[..., None], TH[..., None], PH),
                               np.repeat(points[..., None], 2, axis=2),
                               rtol=1e-14, atol=0)
    same = w.density(np.full((4, 3), 2.5), np.full((4, 3), 1.1), 0.4)
    assert same.shape == (4, 3)
    np.testing.assert_allclose(same, w.density(2.5, 1.1, 0.4), rtol=1e-14)
    assert same.flags.writeable and mesh.flags.writeable
    same[0, 0] = -1.0                  # a fresh array, not a broadcast view
    assert same[1, 1] > 0
    psi = w.psi(np.full((4, 3), 2.5), 1.1, 0.4)
    assert all(c.shape == (4, 3) and c.flags.writeable
               for c in psi.coefficients())


def test_laguerre_sees_each_radius_once(monkeypatch):
    # on an Nr x Ntheta meshgrid one run of the radial recurrence gives
    # both polynomials of the pair on the Nr radii
    import quatspin.hydrogen as hy
    plain, seen = hy._laguerre_run, []

    def counting(steps, a, x):
        seen.append(np.size(x))
        return plain(steps, a, x)

    w = assemble_wavefunction(QuantumNumbers(12, -3, 0.5, 20))
    monkeypatch.setattr(hy, "_laguerre_run", counting)
    R, TH = np.meshgrid(np.linspace(0.1, 20.0, 40),
                        np.linspace(0.0, math.pi, 30), indexing="ij")
    w.density_grid(R, TH)
    assert seen == [40]


def _bits(x, shape=()):
    return np.broadcast_to(np.asarray(x, dtype=float), shape).tobytes()


def test_copies_and_pickles_rebuild_the_tables():
    # the per-state tables are not fields: a copy, a deep copy and a pickle
    # rebuild them and give the bits of the original
    w = assemble_wavefunction(QuantumNumbers(20, 7, -2.5, 50))
    r, th, ph = np.array([0.5, 3.0, 40.0]), np.array([0.2, 1.9]), 0.7
    R, TH = np.meshgrid(r, th, indexing="ij")
    for twin in (copy.copy(w), copy.deepcopy(w),
                 pickle.loads(pickle.dumps(w))):
        assert twin == w and twin._tables is not w._tables
        for pt in ((3.0, 1.1, 0.4), (40.0, 0.0, 2.0)):
            assert twin.psi(*pt) == w.psi(*pt)
            assert twin.density(*pt).hex() == w.density(*pt).hex()
        assert _bits(twin.density(R, TH, ph), R.shape) == _bits(
            w.density(R, TH, ph), R.shape)
        for a, b in zip(twin.psi(R, TH, ph).coefficients(),
                        w.psi(R, TH, ph).coefficients()):
            assert a.tobytes() == b.tobytes()


def test_hand_built_wavefunction_with_a_bad_normalization_raises():
    # A underflows to 0 at n = |k| = 200
    with pytest.raises(ValueError, match="n=200, k=-200 is out of the float"):
        WaveFunction(QuantumNumbers(200, -200))


def test_empty_arrays_give_empty_results():
    # r > 0 holds vacuously on no radius; the result has the broadcast shape
    w = assemble_wavefunction(QuantumNumbers(2, 1, -0.5))
    assert w.density(np.array([]), 0.3, 0.0).shape == (0,)
    assert w.density(np.array([]), np.array([0.3]), 0.0).shape == (0,)
    assert w.density_grid(np.empty((0, 4)), np.linspace(0.1, 3.0, 4)
                          ).shape == (0, 4)
    assert w.density(1.0, np.empty((3, 0)), 0.0).shape == (3, 0)
    assert all(c.shape == (0,) and c.dtype == complex
               for c in w.psi(np.array([]), 0.3, 0.0).coefficients())
    with pytest.raises(ValueError, match="r must be > 0"):
        w.density(np.array([[1.0], [math.nan]]), np.empty((2, 0)), 0.0)


@pytest.mark.parametrize("Z", [1, 92])
def test_density_matches_oracles_at_large_k(Z):
    # the unnormalized F overflows near rho = s; A F does not
    w = assemble_wavefunction(QuantumNumbers(150, -150, 0.5, Z))
    r = w.s/w.C*ALPHA_FS*np.array([0.5, 1.0, 1.5])
    th = np.array([0.3, 1.2, 2.5])
    ph = np.array([0.1, 1.0, 4.0])
    dens = w.density(r, th, ph)
    assert np.all(np.isfinite(dens)) and np.all(dens > 0)
    np.testing.assert_allclose(verify.density_oracle(w, r, th), dens,
                               rtol=1e-12)
    a, b = verify.amplitude_oracle(w, r, th, ph)
    np.testing.assert_allclose((np.abs(a)**2 + np.abs(b)**2)/ALPHA_FS**3,
                               dens, rtol=1e-12)


def _valid_state(n, k_pick, mj_pick, Z):
    ks = [k for k in range(-n, n) if k != 0]
    k = ks[k_pick % len(ks)]
    two_j = 2*abs(k) - 1
    return QuantumNumbers(n, k, (mj_pick % (two_j + 1))*1.0 - two_j/2, Z)


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.integers(1, 60), k_pick=st.integers(0, 119),
       mj_pick=st.integers(0, 119), Z=st.integers(1, 92),
       u=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
       form=st.sampled_from(["vectors", "meshgrid", "axes"]))
def test_density_routes_agree_property(n, k_pick, mj_pick, Z, u, form):
    # same-length vectors, a meshgrid and broadcast axes: the separable
    # array route against the point route, psi and the oracle
    qn = _valid_state(n, k_pick, mj_pick, Z)
    w = assemble_wavefunction(qn)
    r = (0.02 + 2.0*u[0])*n*n/Z*np.array([0.5, 1.0, 1.7])
    th = math.pi*np.array([u[1], 0.5, 1.0 - u[1]/3])
    ph = 2*math.pi*u[2]
    if form == "meshgrid":
        r, th = np.meshgrid(r, th, indexing="ij")
    elif form == "axes":
        r, th = r[:, None], th[None, :]
    grid = w.density(r, th, ph)
    R, TH = np.broadcast_arrays(r, th)
    assert grid.shape == R.shape
    points = np.array([w.density(a, b, ph)
                       for a, b in zip(R.ravel().tolist(), TH.ravel().tolist())
                       ]).reshape(R.shape)
    # below the normal range (theta = 0 or pi, where sin^|m| underflows) no
    # route keeps relative digits
    tiny = np.finfo(float).tiny
    assert np.all(np.abs(grid - points) <= 1e-14*points + tiny)
    psi = norm_sq(w.psi(r, th, ph))/ALPHA_FS**3
    assert np.all(np.abs(grid - psi) <= 1e-13*psi + tiny)
    oracle = verify.density_oracle(w, r, th)
    scale = max(float(np.max(oracle)), 1e-300)
    assert np.max(np.abs(grid - oracle)) <= 1e-12*scale


def _route_states(seed, per_stratum):
    """Seeded valid states with n <= 60: per_stratum of each k stratum
    (k = -n, other k < 0, k > 0) at each Z in {1, 20, 50, 92}."""
    rng = np.random.default_rng(seed)
    states = []
    for Z in (1, 20, 50, 92):
        for stratum in ("-n", "k<0", "k>0"):
            for _ in range(per_stratum):
                n = int(rng.integers(1 if stratum == "-n" else 2, 61))
                k = (-n if stratum == "-n" else
                     int(rng.integers(1, n))*(-1 if stratum == "k<0" else 1))
                two_j = 2*abs(k) - 1
                mj = int(rng.integers(0, two_j + 1)) - two_j/2
                states.append(QuantumNumbers(n, k, mj, Z))
    return states


def test_shell_probability_routes_agree():
    # the values of both routes; their refusals are the test below
    from quatspin import hydrogen as hy
    rng = np.random.default_rng(19)
    for qn in _route_states(19, 3):
        w = assemble_wavefunction(qn)
        a, b = np.sort(rng.random(2))*(2.0*qn.n + 30.0)/w.C*ALPHA_FS
        for lo, hi in ((0.0, a), (a, b), (a, math.inf), (0.0, math.inf),
                       (a, a*(1 + 1e-9)), (b, b + 1e-12)):   # tiny shells
            (pf, ef), (pa, ea) = [hy._shell_probability(w, lo, hi, True,
                                                        floats)
                                  for floats in (True, False)]
            assert type(pf) is type(pa) is float
            assert abs(pf - pa) <= 1e-13*abs(pa), (qn, lo, hi, pf, pa)
            assert abs(ef - ea) <= 1e-13*abs(pa), (qn, lo, hi, ef, ea)


def test_shell_arrays_leave_the_rule_memo_alone():
    # the array route holds its rules as arrays alone; the float route
    # memoizes them in special.leggauss
    from quatspin import hydrogen as hy
    from quatspin.special import leggauss
    w = assemble_wavefunction(QuantumNumbers(7, 3, 0.5, 20))
    hy._shell_arrays.cache_clear()
    leggauss.cache_clear()
    p = hy._shell_probability(w, 0.0, math.inf, False, False)
    assert leggauss.cache_info().currsize == 0
    assert abs(hy._shell_probability(w, 0.0, math.inf, False, True)
               - p) <= 1e-13
    assert leggauss.cache_info().currsize == 2


def test_quadrature_error_has_a_rounding_floor():
    # converged rules agree to rounding; the estimate is then the a-priori
    # bound (N + N/4) eps P on the sum of N + N/4 nonnegative terms
    from quatspin import hydrogen as hy
    w = assemble_wavefunction(QuantumNumbers(1, -1))
    for floats in (True, False):
        p, err = hy._shell_probability(w, 0.0, 1.0, True, floats)
        assert err == 125*sys.float_info.epsilon*p > 0


@pytest.mark.parametrize("n, k", [(250, -1), (300, -1), (400, -100)])
def test_shell_probability_routes_refuse_alike(n, k):
    # the same ValueError on both routes, and no warning
    from quatspin import hydrogen as hy
    w = assemble_wavefunction(QuantumNumbers(n, k))

    def refused(floats):
        with pytest.raises(ValueError) as exc:
            hy._shell_probability(w, 0.0, math.inf, False, floats)
        return str(exc.value)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        floats, arrays = refused(True), refused(False)
    assert floats == arrays == (f"shell probability of n={n}, k={k} is out "
                                f"of the float range")


def test_shell_value_does_not_depend_on_the_error_request():
    # the error request adds the N-node rule alone: the value is the same
    # N + N/4-node sum, bit for bit, on both routes
    from quatspin import hydrogen as hy
    rng = np.random.default_rng(2811)
    for qn in _route_states(2811, 2):
        w = assemble_wavefunction(qn)
        a, b = np.sort(rng.random(2))*(2.0*qn.n + 30.0)/w.C*ALPHA_FS
        for lo, hi in ((0.0, a), (a, b), (a, math.inf), (0.0, math.inf),
                       (a, a*(1 + 1e-9)), (b, b + 1e-12)):   # tiny shells
            for floats in (True, False):
                p = hy._shell_probability(w, lo, hi, False, floats)
                pe, _ = hy._shell_probability(w, lo, hi, True, floats)
                assert type(p) is float and p.hex() == pe.hex(), (qn, lo, hi)


_IMPORT_ORDER_PROBE = """
import json, sys
from quatspin import (QuantumNumbers, assemble_wavefunction,
                      probability_in_region)

def shells():
    out = []
    for n, k, mj, Z, lo, hi in json.loads(sys.argv[1]):
        w = assemble_wavefunction(QuantumNumbers(n, k, mj, Z))
        p, err = probability_in_region(w, lo, hi, return_error=True)
        out.append([probability_in_region(w, lo, hi).hex(), p.hex(),
                    err.hex()])
    return out

first = "numpy" in sys.modules, shells()
import numpy
print(json.dumps([first, shells()]))
"""


def test_shell_probability_does_not_depend_on_the_import_order():
    # a fresh interpreter that has not imported numpy gets the bits it
    # gets after `import numpy`, and this process's
    import quatspin
    rng = np.random.default_rng(36)
    cases, want = [], []
    for qn in _route_states(36, 1):
        w = assemble_wavefunction(qn)
        a, b = np.sort(rng.random(2))*(2.0*qn.n + 30.0)/w.C*ALPHA_FS
        for lo, hi in ((0.0, float(a)), (float(a), float(b)),
                       (float(a), math.inf)):
            cases.append([qn.n, qn.k, qn.m_j, qn.Z, lo, hi])
            p, err = probability_in_region(w, lo, hi, return_error=True)
            want.append([probability_in_region(w, lo, hi).hex(), p.hex(),
                         err.hex()])
    src = os.path.dirname(os.path.dirname(quatspin.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        d for d in (src, os.environ.get("PYTHONPATH")) if d))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_ORDER_PROBE,
                           json.dumps(cases)], capture_output=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    (loaded, before), after = json.loads(proc.stdout)
    assert not loaded
    assert before == after == want


@pytest.mark.parametrize("n, k, Z", [(234, -1, 1), (235, -1, 1),
                                     (250, -1, 92), (300, -1, 1),
                                     (400, -100, 1)])
def test_shell_refusal_does_not_depend_on_the_error_request(n, k, Z):
    # (234, -1) is the last k = -1, Z = 1 state in range; the others raise
    # the same message with and without the error, and nothing warns
    from quatspin import hydrogen as hy
    w = assemble_wavefunction(QuantumNumbers(n, k, 0.5, Z))

    def outcome(error, floats):
        try:
            p = hy._shell_probability(w, 0.0, math.inf, error, floats)
        except ValueError as exc:
            return str(exc)
        return (p[0] if error else p).hex()

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for floats in (True, False):
            plain, with_error = outcome(False, floats), outcome(True, floats)
            assert plain == with_error
            assert (plain == f"shell probability of n={n}, k={k} is out of "
                             f"the float range") == (n != 234)


@pytest.mark.parametrize("n, k, Z", [(1, -1, 1), (14, -6, 20), (32, -1, 1),
                                     (60, 30, 92)])
def test_shell_error_alone_runs_the_n_node_rule(monkeypatch, n, k, Z):
    # N + N/4 nodes without the error, 2N + N/4 with it: on floats one
    # _shell_terms call per node, on arrays one _radial_kernel call
    from quatspin import hydrogen as hy
    w = assemble_wavefunction(QuantumNumbers(n, k, 0.5, Z))
    nodes = max(100, 4*n + 60)
    calls, sizes = [], []
    terms, kernel = hy._shell_terms, hy._radial_kernel
    monkeypatch.setattr(hy, "_shell_terms",
                        lambda *args: calls.append(1) or terms(*args))
    monkeypatch.setattr(hy, "_radial_kernel", lambda *args: sizes.append(
        np.size(args[3])) or kernel(*args))
    for floats in (True, False):
        for error, want in ((False, nodes + nodes//4),
                            (True, 2*nodes + nodes//4)):
            calls.clear()
            sizes.clear()
            hy._shell_probability(w, 0.0, math.inf, error, floats)
            assert (len(calls), sizes) == ((want, [1]*want) if floats
                                           else (1, [want]))


def test_shell_bounds_are_the_ends_of_the_fine_rule():
    # a call without the error runs the N + N/4-node rule alone with the
    # ends of both rules: the largest zero of P_n grows with n
    from quatspin import hydrogen as hy
    for nodes in (*range(100, 401), 4*500 + 60, 4*1000 + 60):
        t, _, w_f, t_ends = hy._shell_arrays.__wrapped__(nodes)
        fine = t[nodes:]
        assert fine.size == w_f.size == nodes + nodes//4
        assert ([x.hex() for x in t_ends]
                == [float(fine.min()).hex(), float(fine.max()).hex()]), nodes


def _cli_grid(w, n_r, n_theta):
    """The (r, theta) lists of quatspin density's grid of n_r x n_theta
    nodes on its default r_max."""
    from quatspin.special import leggauss
    r, _ = gauss_legendre_nodes(n_r, 0.0, (2*w.qn.n + 40.0)/w.C*ALPHA_FS)
    return r, [math.acos(t) for t in reversed(leggauss(n_theta)[0])]


@pytest.mark.parametrize("big", [False, True])
def test_density_table_routes_agree(big):
    # the float table against density_grid's arrays, on the default grid of
    # quatspin density and on a 1100 x 700 grid
    states = _route_states(23, 1)[::6] if big else _route_states(23, 3)
    for qn in states:
        w = assemble_wavefunction(qn)
        r, theta = _cli_grid(w, *((1100, 700) if big else
                                  (max(128, 48 + 6*qn.n), max(32, qn.n + 2))))
        floats = w._density_table(r, theta)
        arrays = w.density_grid(np.array(r)[:, None],
                                np.array(theta)).ravel().tolist()
        assert len(floats) == len(arrays) == len(r)*len(theta)
        assert all(type(d) is float for d in floats)
        # below the normal range (far tails) no route keeps relative digits
        tiny = sys.float_info.min
        assert all(abs(f - a) <= 1e-14*a + tiny
                   for f, a in zip(floats, arrays)), qn


def test_density_is_the_two_spinor_formula():
    # (f^2 + h^2) |y_up|^2 against f^2 |y_up|^2 + h^2 |y_low|^2 with both
    # spinors from spinor_components, at points, on arrays, on a grid and
    # in the float table.  Each side rounds in up to about seven
    # operations: f^2 |y_up|^2 + h^2 |y_low|^2 itself, on the real
    # columns, differs from this complex reference by up to 5.6 eps on
    # these states, so the bound is 8 eps
    from quatspin.spinor import SpinorFunction, spinor_components
    eps = sys.float_info.epsilon
    rng = np.random.default_rng(21)
    for qn in verify._domain_states(rng):
        w = assemble_wavefunction(qn)
        r = (0.02 + 2.98*rng.random(6))*qn.n*qn.n/qn.Z
        th = np.arccos(rng.uniform(-1.0, 1.0, 5))
        ph = rng.uniform(0.0, 2*math.pi, 5)
        f, h = w._radial(r[:, None])
        up, low = (sum(abs(y)**2 for y in spinor_components(s, th, ph))
                   for s in (w.spinor_upper,
                             SpinorFunction(qn.l_lower, qn.j, qn.m_j)))
        want = (f*f*up + h*h*low)/ALPHA_FS**3
        table = w._density_table(r.tolist(), th.tolist())
        points = [[w.density(a, b, c) for b, c in zip(th.tolist(),
                                                      ph.tolist())]
                  for a in r.tolist()]
        for got in (w.density_grid(r[:, None], th), np.reshape(table, (6, 5)),
                    np.array(points), w.density(r[:5], th, ph)):
            ref = want if got.shape == want.shape else want[range(5),
                                                           range(5)]
            assert np.all(np.abs(got - ref) <= 8*eps*ref), qn


def test_trim_keeps_an_axis_whose_ends_agree():
    # the end-slice test only rejects: equal ends still take the full
    # compare, and a middle that differs keeps the axis
    from quatspin.hydrogen import _trim
    assert _trim(np.array([1.0, 2.0, 1.0])).shape == (3,)
    a = np.array([[1.0, 5.0, 1.0], [1.0, 5.0, 1.0]])
    assert _trim(a).tobytes() == a[:1].tobytes()
    b = np.array([[0.0, 0.0], [3.0, 3.0], [-0.0, -0.0]])   # -0.0 is not 0.0
    assert _trim(b).shape == (3, 1)
    assert _trim(np.full((4, 3), 2.5)).shape == (1, 1)


@pytest.mark.parametrize("n, k, Z", [(7, 3, 20), (40, -40, 92),
                                     (150, -150, 1), (200, -1, 1)])
def test_shell_bounds_are_the_extremes_of_rho(monkeypatch, n, k, Z):
    # the memoized end nodes give rho.min() and rho.max() bit for bit, so
    # the array route takes the split prefactor where the reductions would:
    # at (200, -1) _split_ok fails at the far end alone, at (40, -40) at
    # the near end alone, at (150, -150) at both
    from quatspin import hydrogen as hy
    w = assemble_wavefunction(QuantumNumbers(n, k, 0.5, Z))
    plain, seen = hy._radial_kernel, []

    def spy(lv, A, log_a, rho, steps, bounds=()):
        out = plain(lv, A, log_a, rho, steps, bounds)
        ref = plain(lv, A, log_a, rho, steps)
        seen.append((tuple(bounds), (float(rho.min()), float(rho.max()))))
        for a, b in zip(out, ref):
            assert a.tobytes() == b.tobytes()
        return out

    monkeypatch.setattr(hy, "_radial_kernel", spy)
    split = math.sqrt(n*n/Z)
    for lo, hi in ((0.0, split), (split, math.inf), (0.0, math.inf)):
        probability_in_region(w, lo, hi)
    assert len(seen) == 3
    for got, want in seen:
        assert [x.hex() for x in got] == [x.hex() for x in want]
    log_a = math.log(w.A)
    ends = [_split_ok(log_a, w.s*math.log(rho), rho) for rho in seen[2][0]]
    assert ends == {7: [True, True], 40: [False, True], 150: [False, False],
                    200: [True, False]}[n]


def _trim_bitwise(a):
    # the rule _trim keeps, written out: an axis is cut to its first slice
    # when every element equals that slice's as a 64-bit pattern
    bits = a.view(np.int64)
    for axis in range(a.ndim):
        if a.shape[axis] > 1:
            first = (slice(None),)*axis + (slice(0, 1),)
            if (bits == bits[first]).all():
                a, bits = a[first], bits[first]
    return a


def _layouts(a):
    # a in C order, Fortran order, transposed, strided and broadcast views
    yield a
    yield np.asfortranarray(a)
    yield a.T
    yield np.repeat(a, 2, axis=0)[::2]
    if a.ndim:
        yield np.broadcast_to(a[:1], a.shape)           # stride 0
        yield np.broadcast_to(a[..., :1], a.shape)


@pytest.mark.parametrize("block", [1, 5, None])
def test_trim_equals_the_bitwise_rule(monkeypatch, block):
    # block: elements per compared copy (None: the module's own), so that
    # the small inputs below also run the compare in several blocks
    from quatspin import hydrogen as hy
    from quatspin.hydrogen import _trim
    if block:
        monkeypatch.setattr(hy, "_TRIM_BLOCK", block)
    nan_payload, nan_neg = np.array([0x7FF8000000000001, -0x0008000000000000],
                                    dtype=np.int64).view(float)
    pool = np.array([0.0, -0.0, 1.0, math.nan, nan_payload, nan_neg, 2.5])
    rng = np.random.default_rng(2401)
    seen = set()
    for _ in range(400):
        shape = tuple(rng.integers(0, 4, rng.integers(1, 4)))
        # few distinct values, so that constant axes are common
        values = pool[rng.choice(len(pool), rng.integers(1, 3))]
        a = values[rng.integers(0, len(values), shape)]
        for axis in range(a.ndim):      # make some axes constant
            if rng.random() < 0.4 and a.shape[axis]:
                a = np.repeat(a.take([0], axis=axis), a.shape[axis], axis=axis)
        for b in _layouts(a):
            got, want = _trim(b), _trim_bitwise(b)
            assert got.shape == want.shape, (b, got.shape, want.shape)
            assert got.tobytes() == want.tobytes()
            seen.add((b.ndim, got.shape != b.shape))
    assert seen >= {(d, cut) for d in (1, 2, 3) for cut in (False, True)}
    # the cases by name: signed zeros and NaN payloads are distinct values
    for a, cut in (([0.0, -0.0], False), ([math.nan, nan_payload], False),
                   ([math.nan, nan_neg], False), ([nan_payload]*3, True),
                   ([-0.0]*2, True)):
        a = np.array(a)
        assert (_trim(a).shape == (1,)) is cut
        assert _trim(a).tobytes() == _trim_bitwise(a).tobytes()
    for shape in ((0,), (3, 0), (0, 2, 1), (1, 1, 1)):
        a = np.ones(shape)
        assert _trim(a).shape == _trim_bitwise(a).shape
    # one element off in the last block of a grid of several blocks
    R, TH = np.meshgrid(np.linspace(0.1, 5.0, 300), np.linspace(0.1, 3.0, 90),
                        indexing="ij")
    for a, axis in ((R, 1), (TH, 0)):
        assert _trim(a).shape[axis] == 1
        b = a.copy()
        b[-2, -2] = np.nextafter(b[-2, -2], 9.0)
        assert _trim(b).shape == _trim_bitwise(b).shape == a.shape


_BAD_R = (math.nan, 0.0, -0.0, -1.0)


@pytest.mark.parametrize("form", ["float", "0-d", "array"])
@pytest.mark.parametrize("method", ["psi", "density", "density_grid"])
def test_arguments_refuse_bad_values_in_every_form(method, form):
    w = assemble_wavefunction(QuantumNumbers(3, -2, 0.5, 20))
    call = getattr(w, method)
    wrap = {"float": float, "0-d": np.array,
            "array": lambda x: np.array([[0.7], [1.3], [x]])}[form]
    good = {"float": 0.4, "0-d": np.array(0.4),
            "array": np.array([0.4, 2.0])}[form]

    def args(r, theta, phi):
        return (r, theta) if method == "density_grid" else (r, theta, phi)

    for r in _BAD_R:
        with pytest.raises(ValueError, match="r must be > 0"):
            call(*args(wrap(r), good, good))
    for bad in _NON_FINITE:
        with pytest.raises(ValueError, match="theta and phi must be finite"):
            call(*args(1.0, wrap(bad), good))
        if method != "density_grid":
            with pytest.raises(ValueError,
                               match="theta and phi must be finite"):
                call(*args(1.0, good, wrap(bad)))
    out = call(*args(np.empty((0, 1)), good, good))
    shapes = ([c.shape for c in out.coefficients()] if method == "psi"
              else [out.shape])
    assert all(0 in s for s in shapes)


@pytest.mark.parametrize("n, Z", [(235, 1), (250, 92)])
def test_shell_past_the_bound_runs_guarded(n, Z):
    # past the float range the array route refuses the call, and numpy
    # warns nothing
    w = assemble_wavefunction(QuantumNumbers(n, -1, 0.5, Z))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"n={n}, k=-1 is out of the "
                                             f"float range"):
            probability_in_region(w, 0.0, math.inf)
