"""Registry of cross-representation identity checks.

Every algebraic statement the package relies on is registered here as a named
check that computes the quaternion side and the 2x2 (or 4x4) matrix side
independently and reports the maximum deviation.  Checks are grouped into
suites (algebra, spin, rotation, spinor, hydrogen, dirac); 'all' runs
everything in registration order.  Randomized checks draw from a fresh
seeded generator per check, so a fixed seed gives byte-identical reports
regardless of which subset runs.

Checks report (max_dev, tol); multi-assertion checks with mixed natural
tolerances report the maximum of dev_i/tol_i against tol 1.0 and say so in
their detail string.  Sampled checks evaluate one batch of draws in one
vectorized call.  Second routes that no production path uses live here as
the *_oracle functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

from .biquaternion import (
    Biquaternion, E0, E1, E2, E3, mul, decompose, conj_vec, conj_complex,
    conj_both, norm_sq, quadratic_form, inverse, is_zero_divisor, max_dev,
)
from .matrices import (
    to_matrix_linear, to_matrix_paper, to_matrix_ks, from_matrix,
    ket_to_vector, bra_to_vector, SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY2,
)
from . import spin as sp
from .special import (
    quadrature_sphere, gauss_legendre_nodes, spherical_harmonic,
)
from .spinor import (
    SpinorFunction, clebsch_coefficients, spinor_as_vector,
    spinor_as_biquaternion, measure_probability,
)
from . import hydrogen as hy
from . import pauli_dirac as pd

__all__ = ["CheckResult", "run_check", "run_suite", "suite_names",
           "check_names", "clebsch_oracle", "amplitude_oracle", "psi_oracle",
           "density_oracle"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    suite: str
    max_dev: float
    tol: float
    passed: bool
    detail: str = ""


_REGISTRY: dict[str, tuple[str, float, object]] = {}


def _register(name: str, suite: str, tol: float):
    def deco(fn):
        _REGISTRY[name] = (suite, tol, fn)
        return fn
    return deco


def suite_names() -> list[str]:
    seen = []
    for suite, _, _ in _REGISTRY.values():
        if suite not in seen:
            seen.append(suite)
    return seen + ["all"]


def check_names() -> list[str]:
    return list(_REGISTRY)


def run_check(name: str, samples: int | None = None,
              seed: int = 12345, tol_scale: float = 1.0) -> CheckResult:
    """Run one registered check with a fresh seeded generator."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown check {name!r}; known: {', '.join(_REGISTRY)}")
    suite, tol, fn = _REGISTRY[name]
    rng = np.random.default_rng(seed)
    out = fn(rng, samples)
    dev, detail = out if isinstance(out, tuple) else (out, "")
    tol = tol*tol_scale
    return CheckResult(name, suite, float(dev), tol, bool(dev <= tol), detail)


def run_suite(suite: str = "all", seed: int = 12345,
              tol_scale: float = 1.0) -> list[CheckResult]:
    """Run every check in a suite (or all of them) in registration order."""
    known = suite_names()
    if suite not in known:
        raise KeyError(f"unknown suite {suite!r}; known: {', '.join(known)}")
    return [run_check(name, seed=seed, tol_scale=tol_scale)
            for name, (s, _, _) in _REGISTRY.items()
            if suite == "all" or s == suite]


# ---------------------------------------------------------------- helpers

def _bq(c) -> Biquaternion:
    """Biquaternion from 8 reals on the last axis (re, im of q0..q3)."""
    return Biquaternion(c[..., 0] + 1j*c[..., 1], c[..., 2] + 1j*c[..., 3],
                        c[..., 4] + 1j*c[..., 5], c[..., 6] + 1j*c[..., 7])


def _real_quat(c) -> Biquaternion:
    """Real quaternion from 4 reals on the last axis."""
    return Biquaternion(c[..., 0], c[..., 1], c[..., 2], c[..., 3])


def _mdev(m1, m2) -> float:
    return float(np.max(np.abs(np.asarray(m1) - np.asarray(m2))))


def _amax(*values) -> float:
    return max(float(np.max(v)) for v in values)


def _sphere_points(u):
    """(theta, phi) uniform on the sphere from two columns of draws in
    [0, 1)."""
    return np.arccos(2*u[..., 0] - 1), 2*math.pi*u[..., 1]


_UNITS = (E0, E1, E2, E3)
_PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def clebsch_oracle(l: int, j: float, m_j: float) -> tuple[float, float]:
    """Independent Clebsch-Gordan route: eigendecompose J^2 in the coupled
    2x2 block spanned by |m_j-1/2, up>, |m_j+1/2, down>.

    Diagonal entries l(l+1) + 3/4 +- (m_j -+ 1/2); off-diagonal
    sqrt((l+m_j+1/2)(l-m_j+1/2)).  The eigenvector of eigenvalue j(j+1),
    sign-fixed per branch, reproduces the closed-form coefficients.
    """
    m1 = m_j - 0.5   # orbital m of the up component
    m2 = m_j + 0.5
    up_ok = abs(m1) <= l
    dn_ok = abs(m2) <= l
    if up_ok and dn_ok:
        d1 = l*(l + 1) + 0.75 + m1
        d2 = l*(l + 1) + 0.75 - m2
        off = math.sqrt((l + m2)*(l - m2 + 1))
        w, v = np.linalg.eigh(np.array([[d1, off], [off, d2]]))
        target = j*(j + 1)
        idx = int(np.argmin(np.abs(w - target)))
        vec = v[:, idx]
        if abs(j - (l + 0.5)) < 1e-9:
            if vec[0] < 0:
                vec = -vec
        else:
            if vec[1] < 0:
                vec = -vec
        return float(vec[0]), float(vec[1])
    if up_ok:
        return 1.0, 0.0
    return 0.0, 1.0


# ---------------------------------------------------------------- algebra

@_register("hamilton-table", "algebra", 1e-15)
def _chk_hamilton(rng, samples):
    """All 16 unit products against the matrix representation."""
    dev = 0.0
    for a in _UNITS:
        for b in _UNITS:
            lhs = mul(a, b)
            rhs = from_matrix(to_matrix_linear(a) @ to_matrix_linear(b))
            dev = max(dev, max_dev(lhs, rhs))
    dev = max(dev, max_dev(mul(E1, E2), E3))
    dev = max(dev, max_dev(mul(E2, E3), E1))
    dev = max(dev, max_dev(mul(E3, E1), E2))
    return dev, "16 unit products + cyclic rules vs matrix oracle"


@_register("product-associativity", "algebra", 1e-12)
def _chk_assoc(rng, samples):
    n = samples or 1000
    x = rng.standard_normal((n, 3, 8))
    a, b, c = _bq(x[:, 0]), _bq(x[:, 1]), _bq(x[:, 2])
    return max_dev(mul(mul(a, b), c), mul(a, mul(b, c))), f"{n} random triples"


@_register("noncommutativity", "algebra", 1e-15)
def _chk_noncomm(rng, samples):
    return max_dev(mul(E1, E2), -mul(E2, E1)), "e1 e2 = -e2 e1"


@_register("decompose-recombine", "algebra", 1e-13)
def _chk_decompose(rng, samples):
    n = samples or 300
    c = rng.standard_normal((n, 2, 8))
    a, b = _bq(c[:, 0]), _bq(c[:, 1])
    sc, vec = decompose(a, b)
    dot = a.q1*b.q1 + a.q2*b.q2 + a.q3*b.q3
    dev = max(max_dev(Biquaternion(sc) + vec, mul(a, b)),
              _amax(abs(sc - (a.q0*b.q0 - dot))))
    s0, v0 = decompose(E1, E1)
    dev = max(dev, abs(s0 + 1.0), norm_sq(v0))
    s1, v1 = decompose(E1, E2)
    dev = max(dev, abs(s1), max_dev(v1, E3))
    return dev, "Sc+Vec reassembly and scalar dot-product rule"


@_register("conjugation-involutions", "algebra", 1e-15)
def _chk_conj_inv(rng, samples):
    n = samples or 200
    q = _bq(rng.standard_normal((n, 8)))
    dev = max(max_dev(conj_vec(conj_vec(q)), q),
              max_dev(conj_complex(conj_complex(q)), q),
              max_dev(conj_both(q), conj_vec(conj_complex(q))))
    dev = max(dev, max_dev(conj_vec(E0 + E1), E0 - E1))
    return dev, "involutions and composition"


@_register("conjugation-anti-automorphism", "algebra", 1e-12)
def _chk_conj_anti(rng, samples):
    n = samples or 300
    c = rng.standard_normal((n, 2, 8))
    a, b = _bq(c[:, 0]), _bq(c[:, 1])
    dev = max(max_dev(conj_vec(mul(a, b)), mul(conj_vec(b), conj_vec(a))),
              max_dev(conj_both(mul(a, b)), mul(conj_both(b), conj_both(a))))
    return dev, "conj(ab) = conj(b) conj(a), both involutions"


@_register("norm-eight-vector", "algebra", 1e-14)
def _chk_norm8(rng, samples):
    n = samples or 300
    c = rng.standard_normal((n, 8))
    q = _bq(c)
    eight = np.sum(c*c, axis=-1)
    scale = np.maximum(eight, 1.0)
    p = mul(q, conj_both(q))
    dev = _amax(abs(norm_sq(q) - eight)/scale, abs(p.q0 - norm_sq(q))/scale)
    dev = max(dev, abs(norm_sq(Biquaternion(1 + 1j)) - 2.0))
    return dev, "Sc(q conj_both(q)) = squared 8-vector norm (relative)"


@_register("real-norm-multiplicativity", "algebra", 1e-12)
def _chk_norm_mult(rng, samples):
    n = samples or 300
    c = rng.standard_normal((n, 2, 4))
    a, b = _real_quat(c[:, 0]), _real_quat(c[:, 1])
    lhs = norm_sq(mul(a, b))
    rhs = norm_sq(a)*norm_sq(b)
    dev = _amax(abs(lhs - rhs)/np.maximum(rhs, 1.0))
    return dev, "real quaternions only (fails for general biquaternions)"


@_register("inverse-roundtrip", "algebra", 1e-12)
def _chk_inverse(rng, samples):
    n = samples or 200
    dev = 0.0
    for _ in range(n):
        q = _real_quat(rng.standard_normal(4))
        dev = max(dev, max_dev(mul(q, inverse(q)), E0))
        p = _bq(rng.standard_normal(8))
        if abs(quadratic_form(p)) > 1e-3:
            dev = max(dev, max_dev(mul(inverse(p), p), E0))
    q = Biquaternion(3, 0, 4, 0)
    dev = max(dev, max_dev(inverse(q), Biquaternion(3/25, 0, -4/25, 0)))
    try:
        inverse(Biquaternion())
        return 1.0, "zero inverse did not raise"
    except ValueError:
        pass
    return dev, "q q^-1 = e0; 3e0+4e2 example; zero rejected"


@_register("zero-divisor-detection", "algebra", 1e-15)
def _chk_zero_div(rng, samples):
    n = samples or 200
    idem = Biquaternion(0.5, 0.5j, 0, 0)       # (1/2)(e0 + i e1)
    q_up = sp.spin_up().value                   # (1/sqrt2)(e0 - i e1)
    bad = 0
    bad += not is_zero_divisor(idem)
    bad += is_zero_divisor(E0)
    bad += not is_zero_divisor(q_up)            # quadratic form is exactly 0
    bad += abs(quadratic_form(q_up)) > 1e-15
    bad += norm_sq(mul(q_up, conj_vec(q_up))) > 1e-28
    for _ in range(n):
        r = _bq(rng.standard_normal(8))
        prod = mul(idem, r)
        if norm_sq(prod) > 1e-12:
            bad += not is_zero_divisor(prod)    # the form is multiplicative
        inv = _real_quat(rng.standard_normal(4))
        if norm_sq(inv) > 1e-12:
            bad += is_zero_divisor(inv)
    return float(bad), "vanishing quadratic form iff no inverse"


@_register("homomorphism", "algebra", 1e-12)
def _chk_homomorphism(rng, samples):
    n = samples or 1000
    c = rng.standard_normal((n, 2, 8))
    a, b = _bq(c[:, 0]), _bq(c[:, 1])
    dev = _mdev(to_matrix_linear(mul(a, b)),
                to_matrix_linear(a) @ to_matrix_linear(b))
    return dev, f"M(ab) = M(a) M(b), {n} random pairs"


@_register("matrix-roundtrip", "algebra", 1e-14)
def _chk_roundtrip(rng, samples):
    n = samples or 300
    c = rng.standard_normal((n, 16))
    q = _bq(c[:, :8])
    m = c[:, 8:12].reshape(n, 2, 2) + 1j*c[:, 12:].reshape(n, 2, 2)
    dev = max(max_dev(from_matrix(to_matrix_linear(q)), q),
              _mdev(to_matrix_linear(from_matrix(m)), m))
    return dev, "bijectivity both directions"


@_register("paper-map-subspace", "algebra", 1e-14)
def _chk_paper_map(rng, samples):
    n = samples or 300
    c = rng.standard_normal((n, 5)).T
    q = Biquaternion(c[0] + 1j*c[1], 1j*c[2], 1j*c[3], 1j*c[4])
    dev = _mdev(to_matrix_paper(q), to_matrix_linear(q))
    for axis in ("x", "y", "z", "identity"):
        q = sp.pauli_quaternion(axis)
        dev = max(dev, _mdev(to_matrix_paper(q), to_matrix_linear(q)))
        dev = max(dev, _mdev(to_matrix_paper(q),
                             _PAULI.get(axis, IDENTITY2)))
    return dev, "agrees with linear map where q1,q2,q3 purely imaginary"


@_register("ks-form", "algebra", 1e-14)
def _chk_ks(rng, samples):
    n = samples or 300
    dev = _mdev(to_matrix_ks(E2), np.array([[0, 1], [-1, 0]]))
    sample = Biquaternion(1, 2, 3, 4)
    dev = max(dev, _mdev(to_matrix_ks(sample),
                         np.array([[1 + 2j, 3 + 4j], [-3 + 4j, 1 - 2j]])))
    dev = max(dev, _mdev(to_matrix_ks(E0), IDENTITY2))
    q = _real_quat(rng.standard_normal((n, 4)))
    det = np.linalg.det(to_matrix_ks(q))
    dev = max(dev, _amax(abs(det - norm_sq(q))/np.maximum(norm_sq(q), 1.0)))
    return dev, "z/w block form and det = |q|^2 on real quaternions"


# ------------------------------------------------------------------- spin

def _eigen_dev(axis: str, targets) -> float:
    """One eigen-equation family vs both exact targets and the matrix route."""
    S = sp.spin_operator(axis)
    dev = 0.0
    for state, target in targets:
        got = sp.apply(S, state)
        dev = max(dev, max_dev(got, target))
        lhs = ket_to_vector(got)
        rhs = (sp.HBAR/2)*(to_matrix_linear(S.value) @
                           ket_to_vector(state.value))
        dev = max(dev, _mdev(lhs, rhs))
    return dev


@_register("eigen-x", "spin", 1e-14)
def _chk_eigen_x(rng, samples):
    up, dn = sp.spin_up(), sp.spin_down()
    h2 = sp.HBAR/2
    return _eigen_dev("x", [(up, dn.value*h2), (dn, up.value*h2)]), \
        "Sx q+- = (hbar/2) q-+"


@_register("eigen-y", "spin", 1e-14)
def _chk_eigen_y(rng, samples):
    up, dn = sp.spin_up(), sp.spin_down()
    h2 = sp.HBAR/2
    return _eigen_dev("y", [(up, dn.value*(1j*h2)), (dn, up.value*(-1j*h2))]), \
        "Sy q+- = +-i (hbar/2) q-+"


@_register("eigen-z", "spin", 1e-14)
def _chk_eigen_z(rng, samples):
    up, dn = sp.spin_up(), sp.spin_down()
    h2 = sp.HBAR/2
    return _eigen_dev("z", [(up, up.value*h2), (dn, dn.value*(-h2))]), \
        "Sz q+- = +-(hbar/2) q+-"


@_register("pauli-products", "spin", 1e-14)
def _chk_pauli_products(rng, samples):
    dev = 0.0
    for a in "xyz":
        for b in "xyz":
            lhs = mul(sp.pauli_quaternion(a), sp.pauli_quaternion(b))
            rhs = from_matrix(_PAULI[a] @ _PAULI[b])
            dev = max(dev, max_dev(lhs, rhs))
    for a, b in (("x", "y"), ("y", "z"), ("z", "x")):
        anti = mul(sp.pauli_quaternion(a), sp.pauli_quaternion(b)) + \
            mul(sp.pauli_quaternion(b), sp.pauli_quaternion(a))
        dev = max(dev, norm_sq(anti))
    return dev, "all 9 products + anticommutators vs matrix algebra"


@_register("orthonormality", "spin", 1e-14)
def _chk_orthonormality(rng, samples):
    n = samples or 100
    up, dn = sp.spin_up(), sp.spin_down()
    dev = abs(sp.inner(up, up) - 1)
    dev = max(dev, abs(sp.inner(dn, dn) - 1))
    dev = max(dev, abs(sp.inner(up, dn)), abs(sp.inner(dn, up)))
    both = sp.superposition(1, 1)
    dev = max(dev, abs(sp.inner(both, up) - math.sqrt(0.5)))
    for _ in range(n):
        a = sp.superposition(*(rng.standard_normal(4) @
                               np.array([[1, 0], [1j, 0], [0, 1], [0, 1j]])))
        b = sp.superposition(*(rng.standard_normal(4) @
                               np.array([[1, 0], [1j, 0], [0, 1], [0, 1j]])))
        lhs = sp.inner(a, b)
        rhs = np.vdot(ket_to_vector(a.value), ket_to_vector(b.value))
        dev = max(dev, abs(lhs - rhs))
        row = bra_to_vector(sp.bra(a))
        dev = max(dev, abs(lhs - row @ ket_to_vector(b.value)))
    return dev, "basis orthonormality + random states vs C^2 dot product"


@_register("outer-products", "spin", 1e-14)
def _chk_outer(rng, samples):
    up, dn = sp.spin_up(), sp.spin_down()
    dev = max_dev(sp.outer_reconstruct("Sz"), sp.pauli_quaternion("z"))
    dev = max(dev, max_dev(sp.outer_reconstruct("Sx"), sp.pauli_quaternion("x")))
    dev = max(dev, max_dev(sp.outer_reconstruct("Sy"), sp.pauli_quaternion("y")))
    for a in (up, dn):
        for b in (up, dn):
            m_lhs = to_matrix_linear(sp.outer(a, b))
            m_rhs = np.outer(ket_to_vector(a.value),
                             np.conj(ket_to_vector(b.value)))
            dev = max(dev, _mdev(m_lhs, m_rhs))
    comp = sp.outer(up, up) + sp.outer(dn, dn)
    dev = max(dev, max_dev(comp, E0))
    return dev, "operator rebuilds + |a><b| vs ket outer products + completeness"


@_register("ket-map-compatibility", "spin", 1e-14)
def _chk_ket_compat(rng, samples):
    n = samples or 100
    dev = 0.0
    states = [sp.spin_up().value, sp.spin_down().value]
    ops = [sp.pauli_quaternion(a) for a in "xyz"]
    for _ in range(n):
        states.append(_bq(rng.standard_normal(8)))
        ops.append(_bq(rng.standard_normal(8)))
    for S in ops[:20]:
        for q in states[:20]:
            lhs = ket_to_vector(mul(S, q))
            rhs = to_matrix_linear(S) @ ket_to_vector(q)
            dev = max(dev, _mdev(lhs, rhs))
    dev = max(dev, _mdev(ket_to_vector(sp.spin_up().value), [1, 0]))
    dev = max(dev, _mdev(ket_to_vector(sp.spin_down().value), [0, 1]))
    dev = max(dev, _mdev(ket_to_vector(Biquaternion()), [0, 0]))
    return dev, "ket(S q) = M(S) ket(q); basis kets map to (1,0), (0,1)"


@_register("ladder-algebra", "spin", 1e-14)
def _chk_ladder(rng, samples):
    up, dn = sp.spin_up().value, sp.spin_down().value
    lp, lm = sp.ladder("+"), sp.ladder("-")
    dev = max_dev(lp, Biquaternion(0, 0, 0.5, -0.5j))
    dev = max(dev, max_dev(lm, conj_both(lp)))
    qx, qy = sp.pauli_quaternion("x"), sp.pauli_quaternion("y")
    dev = max(dev, max_dev(lp, (qx + qy*1j)*0.5))
    dev = max(dev, max_dev(lm, (qx - qy*1j)*0.5))
    dev = max(dev, max_dev(mul(lp, dn), up))        # raising
    dev = max(dev, max_dev(mul(lm, up), dn))        # lowering
    dev = max(dev, norm_sq(mul(lp, up)), norm_sq(mul(lm, dn)))
    dev = max(dev, norm_sq(mul(lp, lp)), norm_sq(mul(lm, lm)))  # nilpotent
    m_lp = to_matrix_linear(lp)
    dev = max(dev, _mdev(m_lp, 0.5*(SIGMA_X + 1j*SIGMA_Y)))
    return dev, "transitions, annihilation, nilpotency, Sx +- i Sy build"


# --------------------------------------------------------------- rotation

def _rand_axis(rng):
    v = rng.standard_normal(3)
    return tuple(v/np.linalg.norm(v))


@_register("rotation-conjugation", "rotation", 1e-12)
def _chk_rot_conj(rng, samples):
    angles = np.linspace(0, 2*math.pi, 32, endpoint=False)
    dev = 0.0
    for rot_axis in "xyz":
        for op_axis in "xyz":
            S = sp.spin_operator(op_axis)
            for phi in angles:
                D = sp.rotation(rot_axis, float(phi))
                got = sp.rotate_operator(D, S)
                closed = sp.rotated_pauli(rot_axis, op_axis, float(phi)) \
                    * (sp.HBAR/2)
                dev = max(dev, max_dev(got, closed))
                md = to_matrix_linear(D.value)
                ms = to_matrix_linear(S.value)*(sp.HBAR/2)
                oracle = from_matrix(md.conj().T @ ms @ md)
                dev = max(dev, max_dev(got, oracle))
    return dev, "9 (axis, operator) pairs x 32 angles, closed form + oracle"


@_register("rotation-double-cover", "rotation", 1e-13)
def _chk_double_cover(rng, samples):
    n = samples or 50
    dev = 0.0
    for _ in range(n):
        D = sp.rotation(_rand_axis(rng), 2*math.pi)
        dev = max(dev, max_dev(D.value, -E0))
        state = sp.spin_up() if rng.random() < 0.5 else sp.spin_down()
        dev = max(dev, max_dev(mul(D.value, state.value), -state.value))
    dev = max(dev, max_dev(sp.rotation("z", 0.0).value, E0))
    return dev, "D(n, 2 pi) = -e0 on operators and states"


@_register("rotation-composition", "rotation", 1e-12)
def _chk_rot_compose(rng, samples):
    n = samples or 100
    dev = 0.0
    for _ in range(n):
        axis = _rand_axis(rng)
        p1, p2 = rng.uniform(-2*math.pi, 2*math.pi, 2)
        lhs = mul(sp.rotation(axis, p1).value, sp.rotation(axis, p2).value)
        rhs = sp.rotation(axis, p1 + p2).value
        dev = max(dev, max_dev(lhs, rhs))
        dev = max(dev, abs(norm_sq(sp.rotation(axis, p1).value) - 1.0))
    return dev, "same-axis angle additivity and unit norm"


@_register("rotation-own-axis", "rotation", 1e-14)
def _chk_rot_own(rng, samples):
    dev = 0.0
    for axis in "xyz":
        S = sp.spin_operator(axis)
        for phi in np.linspace(0, 2*math.pi, 32):
            got = sp.rotate_operator(sp.rotation(axis, float(phi)), S)
            dev = max(dev, max_dev(got, S.value*(sp.HBAR/2)))
    return dev, "rotation about an operator's own axis leaves it fixed"


# ----------------------------------------------------------------- spinor

def _all_spinor_labels(l_max=4):
    out = []
    for l in range(l_max + 1):
        for j in ((l + 0.5,) if l == 0 else (l - 0.5, l + 0.5)):
            mj = -j
            while mj <= j + 1e-9:
                out.append((l, j, mj))
                mj += 1.0
    return out


@_register("clebsch-oracle", "spinor", 1e-12)
def _chk_clebsch(rng, samples):
    dev = 0.0
    for l, j, mj in _all_spinor_labels():
        c1, c2 = clebsch_coefficients(l, j, mj)
        o1, o2 = clebsch_oracle(l, j, mj)
        dev = max(dev, abs(c1 - o1), abs(c2 - o2))
        dev = max(dev, abs(c1*c1 + c2*c2 - 1.0))
    c1, c2 = clebsch_coefficients(2, 2.5, 1.5)
    dev = max(dev, abs(c1 - 2/math.sqrt(5)), abs(c2 - 1/math.sqrt(5)))
    return dev, "closed form vs J^2 eigendecomposition, l <= 4"


@_register("spinor-worked-example", "spinor", 1.0)
def _chk_spinor_example(rng, samples):
    n = samples or 100
    s = SpinorFunction(2, 2.5, 1.5)
    th, ph = _sphere_points(rng.random((n, 2)))
    y22 = spherical_harmonic(2, 2, th, ph)
    y21 = spherical_harmonic(2, 1, th, ph)
    vec = spinor_as_vector(s, th, ph)
    dev_pt = _amax(abs(measure_probability("down", s, th, ph) - abs(y22)**2/5),
                   abs(vec[0] - 2/math.sqrt(5)*y21),
                   abs(vec[1] - 1/math.sqrt(5)*y22))
    integral = quadrature_sphere(
        lambda th, ph: measure_probability("down", s, th, ph))
    dev_int = abs(integral - 0.2)
    return max(dev_pt/1e-12, dev_int/1e-8), \
        "P_down = |Y_2^2|^2/5 pointwise (1e-12) and integral 1/5 (1e-8); ratio"


@_register("spinor-completeness", "spinor", 1e-12)
def _chk_spinor_complete(rng, samples):
    n = samples or 100
    labels = _all_spinor_labels()
    dev = 0.0
    for _ in range(n):
        l, j, mj = labels[rng.integers(len(labels))]
        s = SpinorFunction(l, j, mj)
        th = math.acos(rng.uniform(-1, 1))
        ph = rng.uniform(0, 2*math.pi)
        pu = measure_probability("up", s, th, ph)
        pdn = measure_probability("down", s, th, ph)
        total = norm_sq(spinor_as_biquaternion(s, th, ph))
        dev = max(dev, abs(pu + pdn - total))
        vec = spinor_as_vector(s, th, ph)
        dev = max(dev, abs(total - (abs(vec[0])**2 + abs(vec[1])**2)))
    return dev, "P_up + P_down = |spinor|^2 pointwise"


@_register("spinor-normalization", "spinor", 1e-8)
def _chk_spinor_norm(rng, samples):
    dev = 0.0
    for l, j, mj in _all_spinor_labels():
        s = SpinorFunction(l, j, mj)

        def dens(th, ph):
            v = spinor_as_vector(s, th, ph)
            return np.abs(v[0])**2 + np.abs(v[1])**2

        dev = max(dev, abs(quadrature_sphere(dens) - 1.0))
    return dev, "sphere-integrated density = 1 for every l <= 4 state"


@_register("spinor-vector-consistency", "spinor", 1e-12)
def _chk_spinor_vec(rng, samples):
    n = samples or 200
    labels = _all_spinor_labels()
    dev = 0.0
    for _ in range(n):
        l, j, mj = labels[rng.integers(len(labels))]
        s = SpinorFunction(l, j, mj)
        th = math.acos(rng.uniform(-1, 1))
        ph = rng.uniform(0, 2*math.pi)
        lhs = ket_to_vector(spinor_as_biquaternion(s, th, ph))
        rhs = spinor_as_vector(s, th, ph)
        dev = max(dev, _mdev(lhs, rhs))
    return dev, "ket map of the biquaternion form equals the 2-vector form"


@_register("spinor-orthogonality", "spinor", 1e-8)
def _chk_spinor_orth(rng, samples):
    dev = 0.0
    pairs = [((1, 0.5, 0.5), (1, 1.5, 0.5)),
             ((2, 1.5, -0.5), (2, 2.5, -0.5)),
             ((2, 2.5, 0.5), (2, 2.5, 1.5)),
             ((3, 2.5, 0.5), (3, 3.5, 0.5))]
    for la, lb in pairs:
        sa, sb = SpinorFunction(*la), SpinorFunction(*lb)

        def integrand(th, ph):
            va = spinor_as_vector(sa, th, ph)
            vb = spinor_as_vector(sb, th, ph)
            return np.conj(va[0])*vb[0] + np.conj(va[1])*vb[1]

        dev = max(dev, abs(quadrature_sphere(integrand)))
    return dev, "same-l, different (j, m_j) sphere inner products vanish"


# --------------------------------------------------------------- hydrogen

_STATES = ((1, -1), (2, -1), (2, 1), (2, -2), (3, -1), (3, -2))
_ZS = (1, 20, 50)


def amplitude_oracle(w: hy.WaveFunction, r_au, theta, phi):
    """(a, b): coefficients of Psi on the spin basis, Psi = a q+ + b q-.

    Combines each harmonic with its radial factor directly, rather than
    through the spinor biquaternions that WaveFunction.psi uses.  Arguments
    broadcast.
    """
    F, G = w.radial(r_au)
    up, lo = w.spinor_upper, w.spinor_lower
    pref = w.A/(np.asarray(r_au, dtype=float)/hy.ALPHA_FS)
    a = pref*(F*up.c1*up.harmonic("up", theta, phi)
              + 1j*G*lo.c1*lo.harmonic("up", theta, phi))
    b = pref*(F*up.c2*up.harmonic("down", theta, phi)
              + 1j*G*lo.c2*lo.harmonic("down", theta, phi))
    return a, b


def psi_oracle(w: hy.WaveFunction, r_au, theta, phi) -> Biquaternion:
    """Spin-basis assembly route: a q+ + b q- expanded on the units,
    (a e0 - i a e1 - b e2 - i b e3)/sqrt2."""
    a, b = amplitude_oracle(w, r_au, theta, phi)
    h = math.sqrt(0.5)
    return Biquaternion(h*a, -1j*h*a, -h*b, -1j*h*b)


def density_oracle(w: hy.WaveFunction, r_au, theta):
    """Hand-expanded density per Bohr^3 on broadcastable (r, theta) arrays.

    (A/r)^2 [F^2 (C1^2 |Ya|^2 + C2^2 |Yb|^2) + G^2 (C3^2 |Yc|^2
    + C4^2 |Yd|^2)]; the F G cross terms vanish pointwise because paired
    harmonics share the same order m, so the value is independent of phi.
    """
    r_nat = np.asarray(r_au, dtype=float)/hy.ALPHA_FS
    theta = np.asarray(theta, dtype=float)
    F, G = w.radial(r_au)
    up, lo = w.spinor_upper, w.spinor_lower
    ang_F = (up.c1**2*np.abs(up.harmonic("up", theta, 0.0))**2
             + up.c2**2*np.abs(up.harmonic("down", theta, 0.0))**2)
    ang_G = (lo.c1**2*np.abs(lo.harmonic("up", theta, 0.0))**2
             + lo.c2**2*np.abs(lo.harmonic("down", theta, 0.0))**2)
    return (w.A/r_nat)**2*(F*F*ang_F + G*G*ang_G)/hy.ALPHA_FS**3


@_register("energy-degeneracy", "hydrogen", 1e-15)
def _chk_degeneracy(rng, samples):
    dev = 0.0
    for Z in _ZS:
        for n, k in ((2, 1), (3, 1), (3, 2)):
            ep = hy.sommerfeld_energy(n, k, Z)
            em = hy.sommerfeld_energy(n, -k, Z)
            dev = max(dev, abs(ep - em))
        seq = [hy.sommerfeld_energy(n, -1, Z) for n in (1, 2, 3, 4)]
        if not all(a < b < 1.0 for a, b in zip(seq, seq[1:])):
            dev = max(dev, 1.0)
    dev = max(dev, abs(hy.sommerfeld_energy(1, -1, 0.0) - 1.0))
    return dev, "E(n,k) = E(n,-k); monotone toward mc^2; Z->0 limit"


@_register("energy-reference-values", "hydrogen", 1.0)
def _chk_energy_refs(rng, samples):
    qn = hy.QuantumNumbers(1, -1, 0.5, 1)
    binding = hy.binding_energy_ev(qn)
    d1 = abs(binding - (-13.6059))/0.001
    taylor = -0.5*hy.ALPHA_FS**2*hy.MC2_EV
    d2 = abs(binding/taylor - 1.0)/2e-4
    e_half = hy.sommerfeld_energy(2, 1, 1)
    e_three_half = hy.sommerfeld_energy(2, -2, 1)
    split = (e_three_half - e_half)*hy.MC2_EV
    d3 = abs(split/4.53e-5 - 1.0)/0.02
    exact = hy.sommerfeld_energy(1, -1, 1)
    d4 = abs(exact - math.sqrt(1 - hy.ALPHA_FS**2))/1e-15
    detail = (f"binding {binding:.6f} eV (ref -13.6059 +- 0.001); "
              f"splitting {split:.6e} eV (ref 4.53e-5 +- 2%); ratio-of-tol")
    return max(d1, d2, d3, d4), detail


@_register("eigenvalue-agreement", "hydrogen", 1e-8)
def _chk_shooting(rng, samples):
    dev = 0.0
    for Z in _ZS:
        for n, k in _STATES:
            qn = hy.QuantumNumbers(n, k, 0.5, Z)
            e_formula = hy.energy(qn)
            e_shoot = hy.shoot_eigenvalue(qn)
            dev = max(dev, abs(e_shoot - e_formula)/(1.0 - e_formula))
    return dev, "18 states, shooting vs formula, relative to binding"


@_register("ode-residual", "hydrogen", 1e-6)
def _chk_residual(rng, samples):
    grid = np.linspace(0.05, 30.0, 400)
    dev = 0.0
    for Z in _ZS:
        for n, k in _STATES:
            qn = hy.QuantumNumbers(n, k, 0.5, Z)
            r1, r2 = hy.ode_residual(qn, hy.energy(qn), grid)
            dev = max(dev, float(r1.max()), float(r2.max()))
    return dev, "closed forms on r in [0.05, 30] Bohr, 18 states"


@_register("ode-wrong-energy", "hydrogen", 1.0)
def _chk_wrong_energy(rng, samples):
    qn = hy.QuantumNumbers(1, -1, 0.5, 20)
    grid = np.linspace(0.05, 30.0, 400)
    E = hy.energy(qn)
    right = max(float(r.max()) for r in hy.ode_residual(qn, E, grid))
    wrong = max(float(r.max()) for r in hy.ode_residual(qn, E + 1e-3, grid))
    zero1, zero2 = hy.system_residual(
        qn, E, lambda r: np.zeros_like(r), lambda r: np.zeros_like(r), grid)
    dev = max(1e4*right/wrong, float(zero1.max()), float(zero2.max()))
    return dev, (f"residual grows {wrong/right:.1e}x at E + 1e-3 "
                 f"(need >= 1e4); zero function reports 0")


@_register("radial-shape", "hydrogen", 1e-10)
def _chk_radial_shape(rng, samples):
    dev = 0.0
    qn = hy.QuantumNumbers(1, -1, 0.5, 1)
    s, _, _ = hy.radial_parameters(qn)
    za = hy.ALPHA_FS
    expect = -(1 - s)/za
    for rho in (0.1, 0.5, 1.0, 3.0, 8.0):
        ratio = hy.radial_G(qn, rho)/hy.radial_F(qn, rho)
        dev = max(dev, abs(ratio - expect)/abs(expect))
    dev = max(dev, abs(hy.radial_F(qn, 0.0)), abs(hy.radial_G(qn, 0.0)))
    expected_nodes = {(1, -1): 0, (2, -1): 1, (2, 1): 0,
                      (2, -2): 0, (3, -1): 2, (3, -2): 1}
    for (n, k), want in expected_nodes.items():
        state = hy.QuantumNumbers(n, k, 0.5, 1)
        _, C, _ = hy.radial_parameters(state)
        rho = np.linspace(1e-3, 35.0, 20000)
        F = hy.radial_F(state, rho)
        mask = np.abs(F) > 1e-12*np.abs(F).max()
        sgn = np.sign(F[mask])
        nodes = int(np.sum(sgn[1:] != sgn[:-1]))
        dev = max(dev, float(abs(nodes - want)))
    return dev, "ground G/F = -(1-s)/(Z alpha); origin zeros; node counts"


@_register("normalization-3d", "hydrogen", 1e-6)
def _chk_norm3d(rng, samples):
    dev = 0.0
    for Z in _ZS:
        for n, k in _STATES:
            qn = hy.QuantumNumbers(n, k, 0.5, Z)
            w = hy.assemble_wavefunction(qn)
            rmax_au = 40.0/w.C*hy.ALPHA_FS
            r, wr = gauss_legendre_nodes(96, 0.0, rmax_au)
            x, wx = np.polynomial.legendre.leggauss(64)
            theta = np.arccos(x)
            R, TH = np.meshgrid(r, theta, indexing="ij")
            cell = 2*math.pi*R*R*np.outer(wr, wx)
            for dens in (w.density_grid(R, TH), density_oracle(w, R, TH)):
                dev = max(dev, abs(float(np.sum(dens*cell)) - 1.0))
    return dev, ("3-d quadrature of the density and of its hand-expanded "
                 "oracle = 1, 18 states")


@_register("density-assembly", "hydrogen", 1e-12)
def _chk_density_assembly(rng, samples):
    n_pts = samples or 100
    states = [hy.QuantumNumbers(n, k, mj, 1) for (n, k), mj in
              zip(_STATES, (0.5, 0.5, -0.5, 1.5, 0.5, -1.5))]
    u = rng.random((n_pts, 3))
    r_all = 0.1 + (6.0 - 0.1)*u[:, 0]
    th_all, ph_all = _sphere_points(u[:, 1:])
    dev = 0.0
    for i, qn in enumerate(states):
        # point i goes to state i mod 6: one batch per state
        w = hy.assemble_wavefunction(qn)
        pick = slice(i, None, len(states))
        r, th, ph = r_all[pick], th_all[pick], ph_all[pick]
        prod = w.density_product(r, th, ph)
        dens_nat = prod.q0.real
        dens = w.density(r, th, ph)
        a, b = amplitude_oracle(w, r, th, ph)
        scale = np.maximum(dens, 1e-30)
        # scalar is real, e2/e3 vanish, e1 carries exactly -i * density
        dev = max(dev, _amax(
            abs(prod.q0.imag), abs(prod.q2), abs(prod.q3),
            abs(prod.q1 - (-1j*dens_nat)),
            abs(dens_nat - (abs(a)**2 + abs(b)**2)),
            abs(dens - density_oracle(w, r, th))/scale,
            abs(dens - dens_nat/hy.ALPHA_FS**3)/scale,
            -dens),
            max_dev(w.psi(r, th, ph), psi_oracle(w, r, th, ph)))
    return dev, ("product = density (e0 - i e1); componentwise formula; "
                 "two assembly routes; nonnegativity")


@_register("probability-shells", "hydrogen", 1e-6)
def _chk_prob_shells(rng, samples):
    qn = hy.QuantumNumbers(1, -1, 0.5, 1)
    w = hy.assemble_wavefunction(qn)
    dev = abs(hy.probability_in_region(w, 0.0, math.inf) - 1.0)
    s, _, scale = hy.radial_parameters(qn)
    # ground-state density is rho^{2s} e^{-2 rho}: the shell integral is a
    # regularized incomplete gamma, an independent closed-form oracle
    p_inner = hy.probability_in_region(w, 0.0, 1.0)
    oracle = float(gammainc(2*s + 1, 2*scale*1.0))
    dev = max(dev, abs(p_inner - oracle))
    a = 1.5
    dev = max(dev, abs(hy.probability_in_region(w, 0.0, a)
                       + hy.probability_in_region(w, a, math.inf) - 1.0))
    return dev, f"P(r < 1 Bohr) = {p_inner:.10f} vs incomplete-gamma oracle"


@_register("nonrelativistic-limit", "hydrogen", 1.0)
def _chk_nonrel(rng, samples):
    from scipy.integrate import quad as _quad
    dev = 0.0
    for Z in (1, 5, 10):
        qn = hy.QuantumNumbers(1, -1, 0.5, Z)
        w = hy.assemble_wavefunction(qn)
        num = _quad(lambda r: float(w.radial(r)[1])**2, 0, 60/w.C*hy.ALPHA_FS,
                    epsabs=1e-15, epsrel=1e-10, limit=200)[0]
        den = _quad(lambda r: float(w.radial(r)[0])**2, 0, 60/w.C*hy.ALPHA_FS,
                    epsabs=1e-15, epsrel=1e-10, limit=200)[0]
        ratio = math.sqrt(num/den)
        za = Z*hy.ALPHA_FS
        s = math.sqrt(1 - za*za)
        dev = max(dev, abs(ratio - (1 - s)/za)/((1 - s)/za)/1e-6)
        dev = max(dev, abs(ratio/(za/2) - 1.0)/2e-2)
    return dev, ("integrated |G|/|F| = (1-s)/(Z alpha) to 1e-6 relative, "
                 "~ Z alpha/2 to 2e-2; ratio-of-tol")


# ------------------------------------------------------------------ dirac

@_register("pauli-embedding", "dirac", 1e-14)
def _chk_embed(rng, samples):
    n = samples or 1000
    e = pd.PauliAlgebraElement(*rng.standard_normal((n, 8)).T)
    dev = _mdev(to_matrix_linear(pd.embed(e)), pd.pauli_element_matrix(e))
    dev = max(dev, max_dev(pd.embed(pd.PauliAlgebraElement(q0=1)), E0))
    dev = max(dev, max_dev(pd.embed(pd.PauliAlgebraElement(q7=1)), E0*1j))
    dev = max(dev, max_dev(pd.embed(pd.PauliAlgebraElement(q1=1)), E1*(-1j)))
    return dev, "matrix sum = embedded image, 1000 random elements"


@_register("pauli-embedding-product", "dirac", 1e-12)
def _chk_embed_product(rng, samples):
    n = samples or 300
    c = rng.standard_normal((n, 2, 8))
    a = pd.PauliAlgebraElement(*c[:, 0].T)
    b = pd.PauliAlgebraElement(*c[:, 1].T)
    lhs = mul(pd.embed(a), pd.embed(b))
    rhs = from_matrix(pd.pauli_element_matrix(a) @ pd.pauli_element_matrix(b))
    return max_dev(lhs, rhs), \
        "embedding respects products (algebra isomorphism)"


@_register("printed-embedding-variant", "dirac", 1e-15)
def _chk_embed_variant(rng, samples):
    n = samples or 200
    c = rng.standard_normal((n, 8))
    c[:, 6:] = 0.0
    q = c.T
    # the historical printed formula flips the sign of the q7 term in the
    # scalar and reuses q7 instead of q6 in the e3 coefficient
    printed = Biquaternion(q[0] - 1j*q[7], -(1j*q[1] + q[4]),
                           -(1j*q[2] + q[5]), -(1j*q[3] + q[7]))
    dev = max_dev(pd.embed(pd.PauliAlgebraElement(*q)), printed)
    return dev, "printed variant agrees on the q6 = q7 = 0 subspace"


@_register("hodge-element", "dirac", 1e-14)
def _chk_hodge(rng, samples):
    n = samples or 100
    h = pd.hodge()
    dev = max_dev(mul(h, E0), E0*(-1j))
    dev = max(dev, max_dev(mul(h, h), -E0))
    e = pd.PauliAlgebraElement(*rng.standard_normal((n, 8)).T)
    dev = max(dev, _mdev(to_matrix_linear(mul(h, pd.embed(e))),
                         -1j*pd.pauli_element_matrix(e)))
    return dev, "-i e0 acts as -i I on every embedded element"


@_register("gamma-matrices", "dirac", 1e-15)
def _chk_gammas(rng, samples):
    zero2 = np.zeros((2, 2))
    want = (
        np.diag([1, 1, -1, -1]).astype(complex),
        np.block([[zero2, SIGMA_Z], [-SIGMA_Z, zero2]]),
        np.block([[zero2, SIGMA_X], [-SIGMA_X, zero2]]),
        np.block([[zero2, SIGMA_Y], [-SIGMA_Y, zero2]]),
    )
    dev = 0.0
    for i in range(4):
        dev = max(dev, _mdev(pd.gamma(i).to_matrix4(), want[i]))
    g2 = pd.gamma(2).to_matrix4().real
    listed = np.array([[0, 0, 0, 1], [0, 0, 1, 0],
                       [0, -1, 0, 0], [-1, 0, 0, 0]], dtype=float)
    dev = max(dev, float(np.max(np.abs(g2 - listed))))
    return dev, "block forms expand to the four 4x4 matrices"


@_register("clifford-relations", "dirac", 1e-14)
def _chk_clifford(rng, samples):
    rep = pd.verify_clifford()
    return rep["max_deviation"], \
        "anticommutators {g_mu, g_nu} = 2 eta_mu_nu, eta = (+,-,-,-)"


@_register("block-multiplication", "dirac", 1e-12)
def _chk_blocks(rng, samples):
    n = samples or 20
    q = [_bq(x) for x in np.moveaxis(rng.standard_normal((n, 8, 8)), 1, 0)]
    a = pd.DiracMatrix(((q[0], q[1]), (q[2], q[3])))
    b = pd.DiracMatrix(((q[4], q[5]), (q[6], q[7])))
    dev = _mdev((a @ b).to_matrix4(), a.to_matrix4() @ b.to_matrix4())
    return dev, "quaternion block products match 4x4 multiplication"
