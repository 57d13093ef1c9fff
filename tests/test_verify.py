"""The identity-check registry: determinism, coverage, failure plumbing."""

import pytest

from quatspin import verify


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


def test_tol_scale_can_force_failure():
    res = verify.run_check("homomorphism", tol_scale=1e-30)
    assert not res.passed
    assert res.max_dev > res.tol


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
    from quatspin import hydrogen as hy
    from quatspin.levels import QuantumNumbers, energy
    plain, calls = hy._radial_FG, []

    def counting(*args, **kwargs):
        calls.append(1)
        return plain(*args, **kwargs)

    monkeypatch.setattr(hy, "_radial_FG", counting)
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
