"""Relativistic Coulomb bound states: energies, radial forms, densities."""

import math

import numpy as np
import pytest
from scipy.special import gammainc

from quatspin import (
    ALPHA_FS, MC2_EV, QuantumNumbers, sommerfeld_energy, energy, energy_ev,
    binding_energy_ev, radial_parameters, radial_F, radial_G, ode_residual,
    system_residual, shoot_eigenvalue, assemble_wavefunction,
    probability_in_region, allclose, verify,
)
from quatspin.hydrogen import clear_shooting_cache
from quatspin.special import gauss_legendre_nodes

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
    assert energy_ev(qn) == pytest.approx((1 + _GROUND_BINDING_EV/MC2_EV)
                                          * MC2_EV)


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
        ratio = radial_G(qn, rho)/radial_F(qn, rho)
        assert ratio == pytest.approx(want, rel=1e-12)


def test_radial_functions_vanish_at_origin():
    qn = QuantumNumbers(2, -1)
    assert radial_F(qn, 0.0) == 0.0
    assert radial_G(qn, 0.0) == 0.0
    rho = np.array([0.0, 1e-6, 1.0])
    assert radial_F(qn, rho).shape == (3,)


def test_radial_node_counts():
    # the large component has n - l_upper - 1 interior nodes
    expected = {(1, -1): 0, (2, -1): 1, (2, 1): 0,
                (2, -2): 0, (3, -1): 2, (3, -2): 1}
    for (n, k), want in expected.items():
        qn = QuantumNumbers(n, k, 0.5, 1)
        rho = np.linspace(1e-3, 35.0, 20000)
        F = radial_F(qn, rho)
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
    zero = lambda r: np.zeros_like(r)
    r1, r2 = system_residual(qn, energy(qn), zero, zero, grid)
    assert r1.max() == 0.0 and r2.max() == 0.0


def test_shooting_matches_formula():
    clear_shooting_cache()
    for n, k, Z in ((1, -1, 1), (2, -1, 20)):
        qn = QuantumNumbers(n, k, 0.5, Z)
        E = energy(qn)
        got = shoot_eigenvalue(qn)
        assert abs(got - E)/(1 - E) < 1e-8


def test_shooting_with_explicit_bracket():
    qn = QuantumNumbers(1, -1, 0.5, 50)
    E = energy(qn)
    b = 1 - E
    got = shoot_eigenvalue(qn, bracket=(E - 0.2*b, E + 0.2*b))
    assert abs(got - E)/b < 1e-8
    with pytest.raises(RuntimeError, match="sign change"):
        shoot_eigenvalue(qn, bracket=(E + 0.05*b, E + 0.1*b))


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


def test_density_assembly_structure():
    rng = np.random.default_rng(77)
    w = assemble_wavefunction(QuantumNumbers(2, -2, 1.5))
    r = rng.uniform(0.2, 8.0, 25)
    th = np.arccos(rng.uniform(-1, 1, 25))
    ph = rng.uniform(0, 2*math.pi, 25)
    prod = w.density_product(r, th, ph)
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
    assert w.spinor_lower.l == qn.l_lower
    F, G = w.radial(1.0)
    assert np.isfinite(F) and np.isfinite(G)
