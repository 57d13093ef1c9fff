"""Acceptance gate: one test per release criterion.

Each test prints a single CRITERION nn PASS/FAIL line (visible with -s or
-rP) and asserts the stated tolerance; timed criteria also assert their
runtime budgets.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import quatspin
from quatspin import (
    ALPHA_FS, MC2_EV, Biquaternion, allclose, conj_both, mul,
    spin_operator, spin_up, spin_down, apply, outer_reconstruct,
    pauli_quaternion, rotation, rotate_operator, rotated_pauli, HBAR,
    to_matrix_linear, from_matrix,
    SpinorFunction, measure_probability, spinor_as_vector,
    spherical_harmonic, quadrature_sphere,
    QuantumNumbers, energy, binding_energy_ev, sommerfeld_energy,
    assemble_wavefunction, probability_in_region,
    PauliAlgebraElement, embed, pauli_element_matrix, verify_clifford,
)
from quatspin.special import gauss_legendre_nodes
from quatspin.verify import ode_residual, shoot_eigenvalue

_E0 = Biquaternion(1, 0, 0, 0)
_STATES = ((1, -1), (2, -1), (2, 1), (2, -2), (3, -1), (3, -2))


def _report(num: int, ok: bool, detail: str):
    line = f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def test_criterion_01_spin_eigen_equations():
    t0 = time.monotonic()
    up, dn = spin_up(), spin_down()
    h2 = HBAR/2
    cases = [
        ("x", up, dn.value*h2), ("x", dn, up.value*h2),
        ("y", up, dn.value*(1j*h2)), ("y", dn, up.value*(-1j*h2)),
        ("z", up, up.value*h2), ("z", dn, dn.value*(-h2)),
    ]
    dev = 0.0
    for axis, state, want in cases:
        got = apply(spin_operator(axis), state)
        dev = max(dev, max(abs(g - w) for g, w in
                           zip(got.coefficients(), want.coefficients())))
    elapsed = time.monotonic() - t0
    _report(1, dev < 1e-14 and elapsed < 1.0,
            f"six eigen-equations dev={dev:.3e} (tol 1e-14), "
            f"{elapsed:.3f}s (budget 1s)")


def test_criterion_02_representation_oracle():
    rng = np.random.default_rng(20240901)
    dev = 0.0
    for _ in range(1000):
        c = rng.standard_normal((2, 8))
        a = Biquaternion(*(c[0, 0::2] + 1j*c[0, 1::2]))
        b = Biquaternion(*(c[1, 0::2] + 1j*c[1, 1::2]))
        lhs = to_matrix_linear(mul(a, b))
        rhs = to_matrix_linear(a) @ to_matrix_linear(b)
        dev = max(dev, float(np.max(np.abs(lhs - rhs))))
    _report(2, dev < 1e-12,
            f"1000 random pairs, matrix homomorphism dev={dev:.3e} "
            f"(tol 1e-12)")


def test_criterion_03_outer_product_reconstruction():
    targets = {"Sz": Biquaternion(0, -1j, 0, 0),
               "Sx": Biquaternion(0, 0, 0, -1j),
               "Sy": Biquaternion(0, 0, -1j, 0)}
    dev = 0.0
    for form, want in targets.items():
        got = outer_reconstruct(form)
        dev = max(dev, max(abs(g - w) for g, w in
                           zip(got.coefficients(), want.coefficients())))
    _report(3, dev < 1e-14,
            f"rebuilt Sz, Sx, Sy on -i e1, -i e3, -i e2, dev={dev:.3e} "
            f"(tol 1e-14)")


def test_criterion_04_rotation_identities():
    angles = np.linspace(0.0, 2*math.pi, 32, endpoint=False)
    dev = 0.0
    for rot_axis in "xyz":
        for op_axis in "xyz":
            S = spin_operator(op_axis)
            for phi in angles:
                D = rotation(rot_axis, float(phi))
                got = rotate_operator(D, S)
                md = to_matrix_linear(D.value)
                ms = to_matrix_linear(S)
                oracle = from_matrix(md.conj().T @ ms @ md)
                closed = rotated_pauli(rot_axis, op_axis, float(phi))*(HBAR/2)
                for other in (oracle, closed):
                    dev = max(dev, max(abs(g - w) for g, w in
                                       zip(got.coefficients(),
                                           other.coefficients())))
    rng = np.random.default_rng(4)
    for _ in range(20):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        full = rotation(tuple(v), 2*math.pi).value
        dev_dc = max(abs(g - w) for g, w in
                     zip(full.coefficients(), (-_E0).coefficients()))
        dev = max(dev, dev_dc)
        p1, p2 = rng.uniform(-6, 6, 2)
        comp = mul(rotation(tuple(v), p1).value, rotation(tuple(v), p2).value)
        target = rotation(tuple(v), p1 + p2).value
        dev = max(dev, max(abs(g - w) for g, w in
                           zip(comp.coefficients(), target.coefficients())))
    _report(4, dev < 1e-12,
            f"9 pairs x 32 angles + double cover + composition, "
            f"dev={dev:.3e} (tol 1e-12)")


def test_criterion_05_spinor_worked_example():
    s = SpinorFunction(2, 2.5, 1.5)
    rng = np.random.default_rng(5)
    dev = 0.0
    for _ in range(100):
        th = math.acos(rng.uniform(-1, 1))
        ph = rng.uniform(0, 2*math.pi)
        want = abs(spherical_harmonic(2, 2, th, ph))**2/5
        got = measure_probability("down", s, th, ph)
        dev = max(dev, abs(got - want))

    def p_down(th, ph):
        return np.abs(spherical_harmonic(2, 2, th, ph))**2/5

    integral = quadrature_sphere(p_down)
    int_dev = abs(integral - 0.2)
    _report(5, dev < 1e-12 and int_dev < 1e-8,
            f"P_down = |Y_2^2|^2/5: pointwise dev={dev:.3e} (tol 1e-12), "
            f"sphere integral dev={int_dev:.3e} (tol 1e-8)")


def test_criterion_06_energies_vs_shooting():
    t0 = time.monotonic()
    worst = 0.0
    for Z in (1, 20, 50):
        for n, k in _STATES:
            qn = QuantumNumbers(n, k, 0.5, Z)
            e_formula = energy(qn)
            e_shoot = shoot_eigenvalue(qn)
            worst = max(worst, abs(e_shoot - e_formula)/(1.0 - e_formula))
    binding = binding_energy_ev(QuantumNumbers(1, -1))
    bind_dev = abs(binding - (-13.6059))
    split = (sommerfeld_energy(2, -2, 1) - sommerfeld_energy(2, 1, 1))*MC2_EV
    split_rel = abs(split/4.53e-5 - 1.0)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8 and bind_dev < 0.001 and split_rel < 0.02 \
        and elapsed < 30.0
    _report(6, ok,
            f"18 states shooting rel dev={worst:.3e} (tol 1e-8), binding "
            f"dev={bind_dev:.2e} eV (tol 1e-3), splitting rel={split_rel:.2e} "
            f"(tol 0.02), {elapsed:.1f}s (budget 30s)")


def test_criterion_07_radial_residuals():
    grid = np.linspace(0.05, 30.0, 400)
    worst = 0.0
    for Z in (1, 20, 50):
        for n, k in _STATES:
            qn = QuantumNumbers(n, k, 0.5, Z)
            r1, r2 = ode_residual(qn, energy(qn), grid)
            worst = max(worst, float(r1.max()), float(r2.max()))
    _report(7, worst < 1e-6,
            f"closed forms on r in [0.05, 30] a.u., normalized residual "
            f"max={worst:.3e} (tol 1e-6)")


def test_criterion_08_wavefunction_normalization():
    x, wx = np.polynomial.legendre.leggauss(64)
    norm_dev = 0.0
    assembly_dev = 0.0
    min_density = math.inf
    rng = np.random.default_rng(8)
    for n, k in _STATES:
        qn = QuantumNumbers(n, k, 0.5, 1)
        w = assemble_wavefunction(qn)
        norm_dev = max(norm_dev,
                       abs(probability_in_region(w, 0.0, math.inf) - 1.0))
        r_max = 40.0/w.C*ALPHA_FS
        r, wr = gauss_legendre_nodes(96, 0.0, r_max)
        R, TH = np.meshgrid(r, np.arccos(x), indexing="ij")
        dens = w.density_grid(R, TH)
        min_density = min(min_density, float(dens.min()))
        total = 2*math.pi*float(np.sum(dens*R*R*np.outer(wr, wx)))
        norm_dev = max(norm_dev, abs(total - 1.0))
        for _ in range(20):
            pt = (rng.uniform(0.1, 8.0), math.acos(rng.uniform(-1, 1)),
                  rng.uniform(0, 2*math.pi))
            psi = w.psi(*pt)
            prod = mul(conj_both(psi), psi)
            assembly_dev = max(assembly_dev, abs(prod.q0.imag),
                               abs(prod.q2), abs(prod.q3))
    ok = norm_dev < 1e-6 and min_density >= 0 and assembly_dev < 1e-12
    _report(8, ok,
            f"six states: norm dev={norm_dev:.3e} (tol 1e-6), min density="
            f"{min_density:.1e} (>= 0), vector residue={assembly_dev:.3e} "
            f"(tol 1e-12)")


def test_criterion_09_pauli_embedding_isomorphism():
    rng = np.random.default_rng(9)
    dev = 0.0
    for _ in range(1000):
        e = PauliAlgebraElement(*rng.standard_normal(8))
        lhs = to_matrix_linear(embed(e))
        rhs = pauli_element_matrix(e)
        dev = max(dev, float(np.max(np.abs(lhs - rhs))))
    rep = verify_clifford()
    ok = dev < 1e-14 and rep["max_deviation"] < 1e-14
    _report(9, ok,
            f"1000 elements dev={dev:.3e} (tol 1e-14), Clifford "
            f"dev={rep['max_deviation']:.3e}")


def test_criterion_10_cli_determinism():
    cmd = [sys.executable, "-m", "quatspin", "verify", "--seed", "12345"]
    # the child finds the package where this process found it
    src = os.path.dirname(os.path.dirname(quatspin.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    runs = []
    slowest = 0.0
    for _ in range(2):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, env=env, timeout=300)
        slowest = max(slowest, time.monotonic() - t0)
        assert proc.returncode == 0, proc.stderr.decode()
        runs.append(proc.stdout)
    identical = runs[0] == runs[1]
    rec = json.loads(runs[0])
    all_pass = rec["summary"]["failed"] == 0
    ok = identical and all_pass and slowest < 60.0
    _report(10, ok,
            f"verify all: exit 0, {rec['summary']['passed']}/"
            f"{rec['summary']['total']} checks, byte-identical={identical}, "
            f"slowest run {slowest:.1f}s (budget 60s)")
