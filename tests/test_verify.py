"""The identity-check registry: determinism, coverage, failure plumbing."""

import math

import pytest

from quatspin import verify
from quatspin.biquaternion import Biquaternion


def test_registry_covers_all_suites():
    names = verify.check_names()
    assert len(names) >= 40
    suites = verify.suite_names()
    assert suites == ["algebra", "spin", "rotation", "spinor", "hydrogen",
                      "dirac", "all"]
    for wanted in ("homomorphism", "pauli-products", "eigen-z",
                   "rotation-conjugation", "clebsch-oracle",
                   "eigenvalue-agreement", "ode-residual", "clifford-relations"):
        assert wanted in names


def test_unknown_names_raise():
    with pytest.raises(KeyError):
        verify.run_check("definitely-not-a-check")
    with pytest.raises(KeyError):
        verify.run_suite("definitely-not-a-suite")


def test_fast_suites_pass():
    for suite in ("algebra", "spin", "rotation", "spinor", "dirac"):
        for res in verify.run_suite(suite):
            assert res.passed, (res.name, res.max_dev, res.tol)
            assert res.suite == suite
            assert res.max_dev <= res.tol


def test_check_results_are_deterministic():
    a = verify.run_check("homomorphism", seed=321)
    b = verify.run_check("homomorphism", seed=321)
    assert a == b
    c = verify.run_check("product-associativity", seed=1)
    d = verify.run_check("product-associativity", seed=1)
    assert c == d


def test_a_finite_deviation_above_tol_fails(monkeypatch):
    # a product route off by 1e-6: the worst deviation is finite and fails
    plain = verify.mul
    monkeypatch.setattr(verify, "mul", lambda a, b: plain(a, b)
                        + Biquaternion(1e-6))
    res = verify.run_check("homomorphism")
    assert not res.passed
    assert math.isfinite(res.max_dev) and res.max_dev > res.tol


def test_legendre_rule_check_sees_one_moved_node(monkeypatch):
    assert verify.run_check("legendre-rule").passed
    plain = verify.leggauss

    def moved(n):
        x, w = plain(n)
        if n == 100:            # one interior node, 1e-12 off
            x = x[:40] + (x[40] + 1e-12,) + x[41:]
        return x, w

    monkeypatch.setattr(verify, "leggauss", moved)
    res = verify.run_check("legendre-rule")
    assert not res.passed and "worst at n = 100" in res.detail
    assert res.max_dev >= 1e-12/4e-16/2


def test_selected_hydrogen_checks():
    for name in ("energy-degeneracy", "energy-reference-values",
                 "radial-shape", "probability-shells"):
        res = verify.run_check(name)
        assert res.passed, (name, res.max_dev)


def test_wrong_energy_residual_at_the_eigenvalue():
    # e^{-rho} split off the radial prefactor: rounding at rho = 600 no
    # longer doubles the residual at the eigenvalue
    assert verify.run_check("ode-wrong-energy").max_dev <= 7e-6


def test_ode_residual_evaluates_the_closed_form_five_times(monkeypatch):
    # the four stencil points and the centre, each giving F and G together
    import numpy as np
    from quatspin.levels import QuantumNumbers, energy
    plain, calls = verify._radial_FG, []

    def counting(*args, **kwargs):
        calls.append(1)
        return plain(*args, **kwargs)

    monkeypatch.setattr(verify, "_radial_FG", counting)
    qn = QuantumNumbers(3, -2, 0.5, 20)
    for E in (energy(qn), energy(qn) + 1e-3):
        calls.clear()
        verify.ode_residual(qn, E, np.linspace(0.05, 30.0, 50))
        assert len(calls) == 5


_BATCHED = ("inverse-roundtrip", "zero-divisor-detection", "orthonormality",
            "rotation-conjugation", "rotation-double-cover",
            "rotation-composition", "rotation-own-axis",
            "spinor-completeness", "spinor-vector-consistency")


@pytest.mark.parametrize("seed", range(1, 41))
def test_batched_checks_pass_across_seeds(seed):
    for name in _BATCHED:
        res = verify.run_check(name, seed=seed)
        assert res.passed, (name, seed, res.max_dev, res.tol)


def test_collector_keeps_the_worst_comparison_and_a_nan():
    from quatspin import E0, E1
    c = verify._Collector()
    c(1.0, at="a")
    c([0.5, -2.0], at="b")
    c(E1, E0, scale=4.0, at="c")
    c(3.0, 1.0, at="d")                    # ties with "b": the later wins
    assert (c.dev, c.count, c.at) == (2.0, 4, "d")
    c(math.nan, at="e")
    c(5.0, at="f")                          # larger, but the NaN stays
    assert math.isnan(c.dev) and (c.count, c.at) == (6, "e")


def _poison_first_comparison(monkeypatch):
    plain = verify._Collector.__call__

    def poisoned(self, got, want=0.0, scale=1.0, at=None):
        if self.count == 0:
            got, want, scale = math.nan, 0.0, 1.0
        plain(self, got, want, scale, at)

    monkeypatch.setattr(verify._Collector, "__call__", poisoned)


# eigenvalue-agreement is left out for time: it shoots 18 states, 5 s
@pytest.mark.parametrize("name", [n for n in verify.check_names()
                                  if n != "eigenvalue-agreement"])
def test_a_nan_comparison_fails_every_check(monkeypatch, name):
    _poison_first_comparison(monkeypatch)
    res = verify.run_check(name)
    assert not res.passed and not math.isfinite(res.max_dev), res


def _nan_product(monkeypatch):
    # NaN in one coefficient, which max_dev must not skip either
    from quatspin import Biquaternion
    plain = verify.mul
    monkeypatch.setattr(verify, "mul", lambda a, b: plain(a, b)
                        + Biquaternion(0, 0, math.nan, 0))


def _nan_shells(monkeypatch):
    from quatspin import hydrogen as hy
    monkeypatch.setattr(hy, "probability_in_region",
                        lambda w, lo, hi: math.nan)


def _nan_float_shells(monkeypatch):
    # the float route alone, which `quatspin probability` prints
    from quatspin import hydrogen as hy
    plain = hy._shell_probability
    monkeypatch.setattr(hy, "_shell_probability",
                        lambda w, lo, hi, return_error, floats: math.nan
                        if floats else plain(w, lo, hi, return_error, floats))


def _nan_density_grid(monkeypatch):
    import numpy as np
    from quatspin import hydrogen as hy
    monkeypatch.setattr(hy.WaveFunction, "density_grid",
                        lambda self, r, theta: np.full(np.shape(r), math.nan))


@pytest.mark.parametrize("name, poison", [
    ("hamilton-table", _nan_product),
    ("shell-oracle", _nan_shells),
    ("shell-oracle", _nan_float_shells),
    ("normalization-3d", _nan_density_grid),
])
def test_a_nan_production_route_fails_its_check(monkeypatch, name, poison):
    poison(monkeypatch)
    res = verify.run_check(name)
    assert not res.passed and math.isnan(res.max_dev), res


def test_residual_probe_keeps_a_nan():
    # a NaN in one component at one radius is not hidden by the decay floor
    import numpy as np
    from quatspin.levels import QuantumNumbers, energy
    qn = QuantumNumbers(2, -1, 0.5, 1)
    grid = np.linspace(0.05, 30.0, 50)

    def fg(r):
        F, G = np.exp(-r), np.exp(-r)
        G[r == r[-1]] = np.nan
        return F, G

    for res in verify.system_residual(qn, energy(qn), fg, grid):
        assert np.isnan(res).all()


@pytest.mark.parametrize("branch", ["j = l - 1/2", "j = l + 1/2"])
def test_parity_map_fails_on_a_flipped_spinor_sign(monkeypatch, branch):
    # negating both Clebsch weights of one branch flips the lower spinor
    # of every k < 0 (j = l - 1/2) or k > 0 (j = l + 1/2) state; the
    # density cannot see that sign.  psi forms y_low from y_up, and the
    # oracles of density-assembly take the Clebsch route to y_low, so that
    # check sees the flip too
    from quatspin import spinor
    plain = spinor.clebsch_coefficients
    flip = -0.5 if branch == "j = l - 1/2" else 0.5

    def flipped(l, j, m_j):
        c1, c2 = plain(l, j, m_j)
        return (-c1, -c2) if j == l + flip else (c1, c2)

    for name in ("spinor-parity-map", "density-assembly"):
        assert verify.run_check(name).passed
    monkeypatch.setattr(spinor, "clebsch_coefficients", flipped)
    res = verify.run_check("spinor-parity-map")
    assert not res.passed and res.max_dev > 0.1, res
    res = verify.run_check("density-assembly")
    assert not res.passed, res
