"""Registry of cross-representation identity checks.

Every algebraic statement the package relies on is registered here as a named
check that computes the quaternion side and the 2x2 (or 4x4) matrix side
independently and reports the maximum deviation.  Checks are grouped into
suites (algebra, spin, rotation, spinor, hydrogen, dirac); 'all' runs
everything in registration order.  Randomized checks draw from a fresh
seeded generator per check, so a fixed seed gives byte-identical reports
regardless of which subset runs.

A check receives a collector c and calls it once per comparison,
c(got, want=0.0, scale=1.0, at=None), then returns its detail string.  The
collector takes max |got - want|/scale over every element (Biquaternion
pairs through max_dev) and keeps the running worst, the number of calls and
the at of the worst call; a NaN anywhere keeps the worst at NaN, so the
check fails.  run_check reports the worst as max_dev, which passes when
<= the check's fixed tol.  Checks whose assertions have different natural
tolerances pass each as scale=, run against tol 1.0 and say so in detail.
Sampled checks draw each array once and evaluate it as one batch; they loop
only over fixed sets (axes, basis states, labels).
Second routes live here and nowhere else: the *_oracle functions, the
two-sided shooting eigensolver (shoot_eigenvalue), the exact
Gauss-Laguerre sum of the radial norm (_log_radial_norm_sq, on the rule of
gauss_laguerre_nodes), the Golub-Welsch Gauss-Legendre nodes
(legendre-rule) and the finite-difference residual probes system_residual
and ode_residual, which read the closed-form radial pair through
_radial_FG.  scipy is imported by no other module, and here only inside
the checks and the solver that need it.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
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
    quadrature_sphere, gauss_legendre_nodes, laguerre, leggauss,
    spherical_harmonic, spherical_harmonics,
)
from .spinor import (
    SpinorFunction, clebsch_coefficients, spinor_as_vector,
    spinor_as_biquaternion, measure_probability,
)
from .levels import (
    ALPHA_FS, MC2_EV, QuantumNumbers, _level, binding_energy_ev, energy,
    l_of_k, radial_parameters, sommerfeld_energy,
)
from . import hydrogen as hy
from . import pauli_dirac as pd

__all__ = ["CheckResult", "run_check", "run_suite", "suite_names",
           "check_names", "shoot_eigenvalue", "gauss_laguerre_nodes",
           "clebsch_oracle", "amplitude_oracle", "psi_oracle",
           "density_oracle", "probability_oracle", "system_residual",
           "ode_residual"]


class CheckResult(Record):
    """One check's outcome; passed is max_dev <= tol (False for a NaN)."""

    name: str
    suite: str
    max_dev: float
    tol: float
    passed: bool
    detail: str

    def __init__(self, name: str, suite: str, max_dev: float, tol: float,
                 detail: str = ""):
        d = self.__dict__
        d["name"], d["suite"], d["max_dev"] = name, suite, max_dev
        d["tol"], d["passed"] = tol, bool(max_dev <= tol)
        d["detail"] = detail


class _Collector:
    """The running worst deviation of one check's comparisons."""

    def __init__(self):
        self.dev, self.count, self.at = 0.0, 0, None

    def __call__(self, got, want=0.0, scale=1.0, at=None) -> None:
        """Compare got with want: max |got - want|/scale over every element.
        The larger deviation wins, a tie goes to this later call, and a NaN,
        once seen, stays."""
        if isinstance(got, Biquaternion):
            d = max_dev(got, want)/scale
        else:
            # builtin abs: a complex scalar rounds as a Python complex
            # does (np.abs can differ in the last bit)
            d = float(np.max(abs(np.subtract(got, want))/scale))
        self.count += 1
        if not (d < self.dev or math.isnan(self.dev)):
            self.dev, self.at = d, at


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


def run_check(name: str, seed: int = 12345) -> CheckResult:
    """Run one registered check with a fresh seeded generator."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown check {name!r}; known: {', '.join(_REGISTRY)}")
    suite, tol, fn = _REGISTRY[name]
    c = _Collector()
    detail = fn(np.random.default_rng(seed), c)
    return CheckResult(name, suite, float(c.dev), tol, detail)


def run_suite(suite: str = "all", seed: int = 12345) -> list[CheckResult]:
    """Run every check in a suite (or all of them) in registration order."""
    known = suite_names()
    if suite not in known:
        raise KeyError(f"unknown suite {suite!r}; known: {', '.join(known)}")
    return [run_check(name, seed=seed)
            for name, (s, _, _) in _REGISTRY.items()
            if suite == "all" or s == suite]


# ---------------------------------------------------------------- helpers

def _bq(c) -> Biquaternion:
    """Biquaternion from 8 reals on the last axis (re, im of q0..q3)."""
    return Biquaternion(c[..., 0] + 1j*c[..., 1], c[..., 2] + 1j*c[..., 3],
                        c[..., 4] + 1j*c[..., 5], c[..., 6] + 1j*c[..., 7])


def _prepend(fixed, batch: Biquaternion) -> Biquaternion:
    """One 1-d batch: the scalar biquaternions in fixed, then batch."""
    return Biquaternion(*(np.concatenate((f, b)) for f, b in zip(
        zip(*(p.coefficients() for p in fixed)), batch.coefficients())))


def _real_quat(c) -> Biquaternion:
    """Real quaternion from 4 reals on the last axis."""
    return Biquaternion(c[..., 0], c[..., 1], c[..., 2], c[..., 3])


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
def _chk_hamilton(rng, c):
    """All 16 unit products against the matrix representation."""
    for a in _UNITS:
        for b in _UNITS:
            c(mul(a, b),
              from_matrix(to_matrix_linear(a) @ to_matrix_linear(b)))
    c(mul(E1, E2), E3)
    c(mul(E2, E3), E1)
    c(mul(E3, E1), E2)
    return "16 unit products + cyclic rules vs matrix oracle"


@_register("product-associativity", "algebra", 1e-12)
def _chk_assoc(rng, c):
    n = 1000
    x = rng.standard_normal((n, 3, 8))
    p, q, r = _bq(x[:, 0]), _bq(x[:, 1]), _bq(x[:, 2])
    c(mul(mul(p, q), r), mul(p, mul(q, r)))
    return f"{n} random triples"


@_register("noncommutativity", "algebra", 1e-15)
def _chk_noncomm(rng, c):
    c(mul(E1, E2), -mul(E2, E1))
    return "e1 e2 = -e2 e1"


@_register("decompose-recombine", "algebra", 1e-13)
def _chk_decompose(rng, c):
    x = rng.standard_normal((300, 2, 8))
    a, b = _bq(x[:, 0]), _bq(x[:, 1])
    sc, vec = decompose(a, b)
    c(Biquaternion(sc) + vec, mul(a, b))
    c(sc, a.q0*b.q0 - (a.q1*b.q1 + a.q2*b.q2 + a.q3*b.q3))
    s0, v0 = decompose(E1, E1)
    c(s0, -1.0)
    c(norm_sq(v0))
    s1, v1 = decompose(E1, E2)
    c(s1)
    c(v1, E3)
    return "Sc+Vec reassembly and scalar dot-product rule"


@_register("conjugation-involutions", "algebra", 1e-15)
def _chk_conj_inv(rng, c):
    q = _bq(rng.standard_normal((200, 8)))
    c(conj_vec(conj_vec(q)), q)
    c(conj_complex(conj_complex(q)), q)
    c(conj_both(q), conj_vec(conj_complex(q)))
    c(conj_vec(E0 + E1), E0 - E1)
    return "involutions and composition"


@_register("conjugation-anti-automorphism", "algebra", 1e-12)
def _chk_conj_anti(rng, c):
    x = rng.standard_normal((300, 2, 8))
    a, b = _bq(x[:, 0]), _bq(x[:, 1])
    c(conj_vec(mul(a, b)), mul(conj_vec(b), conj_vec(a)))
    c(conj_both(mul(a, b)), mul(conj_both(b), conj_both(a)))
    return "conj(ab) = conj(b) conj(a), both involutions"


@_register("norm-eight-vector", "algebra", 1e-14)
def _chk_norm8(rng, c):
    x = rng.standard_normal((300, 8))
    q = _bq(x)
    eight = np.sum(x*x, axis=-1)
    scale = np.maximum(eight, 1.0)
    c(norm_sq(q), eight, scale)
    c(mul(q, conj_both(q)).q0, norm_sq(q), scale)
    c(norm_sq(Biquaternion(1 + 1j)), 2.0)
    return "Sc(q conj_both(q)) = squared 8-vector norm (relative)"


@_register("real-norm-multiplicativity", "algebra", 1e-12)
def _chk_norm_mult(rng, c):
    x = rng.standard_normal((300, 2, 4))
    a, b = _real_quat(x[:, 0]), _real_quat(x[:, 1])
    rhs = norm_sq(a)*norm_sq(b)
    c(norm_sq(mul(a, b)), rhs, np.maximum(rhs, 1.0))
    return "real quaternions only (fails for general biquaternions)"


@_register("inverse-roundtrip", "algebra", 1e-12)
def _chk_inverse(rng, c):
    x = rng.standard_normal((200, 12))         # (real q, biquaternion p)
    q, p = _real_quat(x[:, :4]), _bq(x[:, 4:])
    p = _bq(x[abs(quadratic_form(p)) > 1e-3, 4:])
    c(mul(q, inverse(q)), E0)
    c(mul(inverse(p), p), E0)
    c(inverse(Biquaternion(3, 0, 4, 0)), Biquaternion(3/25, 0, -4/25, 0))
    try:
        inverse(Biquaternion())
    except ValueError:
        return "q q^-1 = e0; 3e0+4e2 example; zero rejected"
    c(1.0)
    return "zero inverse did not raise"


@_register("zero-divisor-detection", "algebra", 1e-15)
def _chk_zero_div(rng, c):
    # each flag is 1 where the rule fails; a NaN value fails its rule
    idem = Biquaternion(0.5, 0.5j, 0, 0)       # (1/2)(e0 + i e1)
    q_up = sp.spin_up().value                   # (1/sqrt2)(e0 - i e1)
    c(not is_zero_divisor(idem))
    c(is_zero_divisor(E0))
    c(not is_zero_divisor(q_up))                # quadratic form is exactly 0
    c(not abs(quadratic_form(q_up)) <= 1e-15)
    c(not norm_sq(mul(q_up, conj_vec(q_up))) <= 1e-28)
    x = rng.standard_normal((200, 12))         # (r, real quaternion)
    prod, inv = mul(idem, _bq(x[:, :8])), _real_quat(x[:, 8:])
    # the form is multiplicative, so idem r is a zero divisor unless zero
    c(~(norm_sq(prod) <= 1e-12) & ~is_zero_divisor(prod))
    c(~(norm_sq(inv) <= 1e-12) & is_zero_divisor(inv))
    return "vanishing quadratic form iff no inverse"


@_register("homomorphism", "algebra", 1e-12)
def _chk_homomorphism(rng, c):
    n = 1000
    x = rng.standard_normal((n, 2, 8))
    a, b = _bq(x[:, 0]), _bq(x[:, 1])
    c(to_matrix_linear(mul(a, b)), to_matrix_linear(a) @ to_matrix_linear(b))
    return f"M(ab) = M(a) M(b), {n} random pairs"


@_register("matrix-roundtrip", "algebra", 1e-14)
def _chk_roundtrip(rng, c):
    n = 300
    x = rng.standard_normal((n, 16))
    q = _bq(x[:, :8])
    m = x[:, 8:12].reshape(n, 2, 2) + 1j*x[:, 12:].reshape(n, 2, 2)
    c(from_matrix(to_matrix_linear(q)), q)
    c(to_matrix_linear(from_matrix(m)), m)
    return "bijectivity both directions"


@_register("paper-map-subspace", "algebra", 1e-14)
def _chk_paper_map(rng, c):
    x = rng.standard_normal((300, 5)).T
    q = Biquaternion(x[0] + 1j*x[1], 1j*x[2], 1j*x[3], 1j*x[4])
    c(to_matrix_paper(q), to_matrix_linear(q))
    for axis in ("x", "y", "z", "identity"):
        q = sp.pauli_quaternion(axis)
        c(to_matrix_paper(q), to_matrix_linear(q))
        c(to_matrix_paper(q), _PAULI.get(axis, IDENTITY2))
    return "agrees with linear map where q1,q2,q3 purely imaginary"


@_register("ks-form", "algebra", 1e-14)
def _chk_ks(rng, c):
    c(to_matrix_ks(E2), [[0, 1], [-1, 0]])
    c(to_matrix_ks(Biquaternion(1, 2, 3, 4)),
      [[1 + 2j, 3 + 4j], [-3 + 4j, 1 - 2j]])
    c(to_matrix_ks(E0), IDENTITY2)
    q = _real_quat(rng.standard_normal((300, 4)))
    c(np.linalg.det(to_matrix_ks(q)), norm_sq(q), np.maximum(norm_sq(q), 1.0))
    return "z/w block form and det = |q|^2 on real quaternions"


# ------------------------------------------------------------------- spin

def _eigen_equations(c, axis: str, targets) -> None:
    """One eigen-equation family vs both exact targets and the matrix route."""
    S = sp.spin_operator(axis)
    for state, target in targets:
        got = sp.apply(S, state)
        c(got, target)
        c(ket_to_vector(got), to_matrix_linear(S) @ ket_to_vector(state.value))


@_register("eigen-x", "spin", 1e-14)
def _chk_eigen_x(rng, c):
    up, dn = sp.spin_up(), sp.spin_down()
    h2 = sp.HBAR/2
    _eigen_equations(c, "x", [(up, dn.value*h2), (dn, up.value*h2)])
    return "Sx q+- = (hbar/2) q-+"


@_register("eigen-y", "spin", 1e-14)
def _chk_eigen_y(rng, c):
    up, dn = sp.spin_up(), sp.spin_down()
    h2 = sp.HBAR/2
    _eigen_equations(c, "y", [(up, dn.value*(1j*h2)), (dn, up.value*(-1j*h2))])
    return "Sy q+- = +-i (hbar/2) q-+"


@_register("eigen-z", "spin", 1e-14)
def _chk_eigen_z(rng, c):
    up, dn = sp.spin_up(), sp.spin_down()
    h2 = sp.HBAR/2
    _eigen_equations(c, "z", [(up, up.value*h2), (dn, dn.value*(-h2))])
    return "Sz q+- = +-(hbar/2) q+-"


@_register("pauli-products", "spin", 1e-14)
def _chk_pauli_products(rng, c):
    for a in "xyz":
        for b in "xyz":
            c(mul(sp.pauli_quaternion(a), sp.pauli_quaternion(b)),
              from_matrix(_PAULI[a] @ _PAULI[b]))
    for a, b in (("x", "y"), ("y", "z"), ("z", "x")):
        c(norm_sq(mul(sp.pauli_quaternion(a), sp.pauli_quaternion(b))
                  + mul(sp.pauli_quaternion(b), sp.pauli_quaternion(a))))
    return "all 9 products + anticommutators vs matrix algebra"


@_register("orthonormality", "spin", 1e-14)
def _chk_orthonormality(rng, c):
    up, dn = sp.spin_up(), sp.spin_down()
    c(sp.inner(up, up), 1)
    c(sp.inner(dn, dn), 1)
    c(sp.inner(up, dn))
    c(sp.inner(dn, up))
    c(sp.inner(sp.superposition(1, 1), up), math.sqrt(0.5))
    x = rng.standard_normal((100, 2, 4))       # (a, b) x (up, down) re, im
    amp = x[..., 0::2] + 1j*x[..., 1::2]
    a, b = (sp.superposition(*amp[:, i].T) for i in (0, 1))
    lhs = sp.inner(a, b)
    ket_a, ket_b = ket_to_vector(a.value), ket_to_vector(b.value)
    c(lhs, np.sum(ket_a.conj()*ket_b, axis=-1))
    c(lhs, np.sum(bra_to_vector(sp.bra(a))*ket_b, axis=-1))
    return "basis orthonormality + random states vs C^2 dot product"


@_register("outer-products", "spin", 1e-14)
def _chk_outer(rng, c):
    up, dn = sp.spin_up(), sp.spin_down()
    for axis in "zxy":
        c(sp.outer_reconstruct("S" + axis), sp.pauli_quaternion(axis))
    for a in (up, dn):
        for b in (up, dn):
            c(to_matrix_linear(sp.outer(a, b)),
              np.outer(ket_to_vector(a.value),
                       np.conj(ket_to_vector(b.value))))
    c(sp.outer(up, up) + sp.outer(dn, dn), E0)
    return "operator rebuilds + |a><b| vs ket outer products + completeness"


@_register("ket-map-compatibility", "spin", 1e-14)
def _chk_ket_compat(rng, c):
    # 20 states (the basis kets, then 18 draws) against 20 operators (the
    # Pauli quaternions, then 17 draws): all 400 pairs in one batch
    x = rng.standard_normal((18, 2, 8))      # (state, operator) per draw
    q = _prepend((sp.spin_up().value, sp.spin_down().value), _bq(x[:, 0]))
    S = _prepend([sp.pauli_quaternion(a) for a in "xyz"], _bq(x[:17, 1]))
    kets = ket_to_vector(q)                             # (20, 2)
    S_col = Biquaternion(*(y[:, None] for y in S.coefficients()))
    c(ket_to_vector(mul(S_col, q)),                     # (20, 20, 2)
      (to_matrix_linear(S)[:, None] @ kets[..., None])[..., 0])
    c(kets[:2], IDENTITY2)
    c(ket_to_vector(Biquaternion()), [0, 0])
    return "ket(S q) = M(S) ket(q); basis kets map to (1,0), (0,1)"


@_register("ladder-algebra", "spin", 1e-14)
def _chk_ladder(rng, c):
    up, dn = sp.spin_up().value, sp.spin_down().value
    lp, lm = sp.ladder("+"), sp.ladder("-")
    c(lp, Biquaternion(0, 0, 0.5, -0.5j))
    c(lm, conj_both(lp))
    qx, qy = sp.pauli_quaternion("x"), sp.pauli_quaternion("y")
    c(lp, (qx + qy*1j)*0.5)
    c(lm, (qx - qy*1j)*0.5)
    c(mul(lp, dn), up)                          # raising
    c(mul(lm, up), dn)                          # lowering
    for a, b in ((lp, up), (lm, dn), (lp, lp), (lm, lm)):  # then nilpotency
        c(norm_sq(mul(a, b)))
    c(to_matrix_linear(lp), 0.5*(SIGMA_X + 1j*SIGMA_Y))
    return "transitions, annihilation, nilpotency, Sx +- i Sy build"


# --------------------------------------------------------------- rotation

def _rand_axes(rng, n: int):
    """n random unit axes as components (nx, ny, nz), each of shape (n,)."""
    v = rng.standard_normal((n, 3))
    return tuple((v/np.linalg.norm(v, axis=-1, keepdims=True)).T)


@_register("rotation-conjugation", "rotation", 1e-12)
def _chk_rot_conj(rng, c):
    phi = np.linspace(0, 2*math.pi, 32, endpoint=False)
    for rot_axis in "xyz":
        D = sp.rotation(rot_axis, phi)
        md = to_matrix_linear(D.value)
        for op_axis in "xyz":
            S = sp.spin_operator(op_axis)
            got = sp.rotate_operator(D, S)
            c(got, sp.rotated_pauli(rot_axis, op_axis, phi)*(sp.HBAR/2))
            c(got, from_matrix(md.conj().swapaxes(-1, -2)
                               @ to_matrix_linear(S) @ md))
    return "9 (axis, operator) pairs x 32 angles, closed form + oracle"


@_register("rotation-double-cover", "rotation", 1e-13)
def _chk_double_cover(rng, c):
    D = sp.rotation(_rand_axes(rng, 50), 2*math.pi)
    up, dn = sp.spin_up().value, sp.spin_down().value
    state = Biquaternion(*np.where(rng.random((50, 1)) < 0.5,
                                   up.coefficients(), dn.coefficients()).T)
    c(D.value, -E0)
    c(mul(D.value, state), -state)
    c(sp.rotation("z", 0.0).value, E0)
    return "D(n, 2 pi) = -e0 on operators and states"


@_register("rotation-composition", "rotation", 1e-12)
def _chk_rot_compose(rng, c):
    axis = _rand_axes(rng, 100)
    p1, p2 = rng.uniform(-2*math.pi, 2*math.pi, (100, 2)).T
    D1 = sp.rotation(axis, p1).value
    c(mul(D1, sp.rotation(axis, p2).value), sp.rotation(axis, p1 + p2).value)
    c(norm_sq(D1), 1.0)
    return "same-axis angle additivity and unit norm"


@_register("rotation-own-axis", "rotation", 1e-14)
def _chk_rot_own(rng, c):
    phi = np.linspace(0, 2*math.pi, 32)
    for axis in "xyz":
        S = sp.spin_operator(axis)
        c(sp.rotate_operator(sp.rotation(axis, phi), S), S)
    return "rotation about an operator's own axis leaves it fixed"


# ----------------------------------------------------------------- spinor

def _all_spinor_labels():
    out = []
    for l in range(5):
        for j in ((l + 0.5,) if l == 0 else (l - 0.5, l + 0.5)):
            mj = -j
            while mj <= j + 1e-9:
                out.append((l, j, mj))
                mj += 1.0
    return out


@_register("clebsch-oracle", "spinor", 1e-12)
def _chk_clebsch(rng, c):
    for l, j, mj in _all_spinor_labels():
        c1, c2 = clebsch_coefficients(l, j, mj)
        c((c1, c2), clebsch_oracle(l, j, mj))
        c(c1*c1 + c2*c2, 1.0)
    c(clebsch_coefficients(2, 2.5, 1.5), (2/math.sqrt(5), 1/math.sqrt(5)))
    return "closed form vs J^2 eigendecomposition, l <= 4"


@_register("harmonic-oracle", "spinor", 1e-12)
def _chk_harmonic(rng, c):
    from scipy.special import sph_harm_y
    n = 64
    th, ph = _sphere_points(rng.random((n, 2)))
    th = np.concatenate([th, [0.0, math.pi]])       # both poles
    ph = np.concatenate([ph, [0.5, 2.0]])
    lm = np.array([(l, m) for l in range(41) for m in range(-l, l + 1)])
    # one column recurrence per order: table[m + 40][l] = Y_l^m (0 if l < |m|)
    table = np.array([spherical_harmonics(range(41), m, th, ph)
                      for m in range(-40, 41)])
    c(table[lm[:, 1] + 40, lm[:, 0]], sph_harm_y(lm[:, :1], lm[:, 1:], th, ph))
    return (f"normalized Legendre recurrence vs scipy sph_harm_y, l <= 40, "
            f"|m| <= l, {n} points and the poles")


@_register("spinor-worked-example", "spinor", 1.0)
def _chk_spinor_example(rng, c):
    s = SpinorFunction(2, 2.5, 1.5)
    th, ph = _sphere_points(rng.random((100, 2)))
    y22 = spherical_harmonic(2, 2, th, ph)
    vec = spinor_as_vector(s, th, ph)
    c(measure_probability("down", s, th, ph), abs(y22)**2/5, scale=1e-12)
    c(vec[0], 2/math.sqrt(5)*spherical_harmonic(2, 1, th, ph), scale=1e-12)
    c(vec[1], 1/math.sqrt(5)*y22, scale=1e-12)
    c(quadrature_sphere(lambda th, ph: measure_probability("down", s, th, ph)),
      0.2, scale=1e-8)
    return ("P_down = |Y_2^2|^2/5 pointwise (1e-12) and integral 1/5 (1e-8); "
            "ratio")


@_register("spinor-completeness", "spinor", 1e-12)
def _chk_spinor_complete(rng, c):
    th, ph = _sphere_points(rng.random((100, 2)))
    for l, j, mj in _all_spinor_labels():
        s = SpinorFunction(l, j, mj)
        total = norm_sq(spinor_as_biquaternion(s, th, ph))
        vec = spinor_as_vector(s, th, ph)
        c(sum(measure_probability(w, s, th, ph) for w in ("up", "down")),
          total)
        c(total, abs(vec[0])**2 + abs(vec[1])**2)
    return "P_up + P_down = |spinor|^2 pointwise"


@_register("spinor-normalization", "spinor", 1e-8)
def _chk_spinor_norm(rng, c):
    for l, j, mj in _all_spinor_labels():
        s = SpinorFunction(l, j, mj)

        def dens(th, ph):
            v = spinor_as_vector(s, th, ph)
            return np.abs(v[0])**2 + np.abs(v[1])**2

        c(quadrature_sphere(dens), 1.0)
    return "sphere-integrated density = 1 for every l <= 4 state"


@_register("spinor-vector-consistency", "spinor", 1e-12)
def _chk_spinor_vec(rng, c):
    th, ph = _sphere_points(rng.random((200, 2)))
    for l, j, mj in _all_spinor_labels():
        s = SpinorFunction(l, j, mj)
        c(ket_to_vector(spinor_as_biquaternion(s, th, ph)),
          spinor_as_vector(s, th, ph).T)
    return "ket map of the biquaternion form equals the 2-vector form"


@_register("spinor-orthogonality", "spinor", 1e-8)
def _chk_spinor_orth(rng, c):
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

        c(quadrature_sphere(integrand))
    return "same-l, different (j, m_j) sphere inner products vanish"


@_register("spinor-parity-map", "spinor", 1e-13)
def _chk_parity_map(rng, c):
    th, ph = _sphere_points(rng.random((32, 2)))
    n = (np.sin(th)*np.cos(ph), np.sin(th)*np.sin(ph), np.cos(th))
    # sigma . r_hat as a Pauli biquaternion (left product) and as a matrix
    sigma_r = sum((sp.pauli_quaternion(a)*x for a, x in zip("xyz", n)),
                  Biquaternion())
    sigma_m = sum(_PAULI[a][..., None]*x for a, x in zip("xyz", n))
    for k in (*range(-12, 0), *range(1, 13)):
        j = abs(k) - 0.5
        for mj in np.arange(-j, j + 1).tolist():
            y, y_par = (SpinorFunction(l_of_k(kk), j, mj) for kk in (k, -k))
            prod = mul(sigma_r, spinor_as_biquaternion(y, th, ph))
            vec = np.einsum("abn,bn->na", sigma_m, spinor_as_vector(y, th, ph))
            c(prod, -spinor_as_biquaternion(y_par, th, ph), at=(k, mj))
            c(ket_to_vector(prod), vec, at=(k, mj))
            c(vec, -spinor_as_vector(y_par, th, ph).T, at=(k, mj))
    return (f"(sigma . r_hat) y_k = -y_-k: Hamilton product vs Clebsch "
            f"route vs 2x2 matrices; |k| <= 12, every m_j, {th.size} seeded "
            f"directions; worst at (k, m_j) = {c.at}")


# --------------------------------------------------------------- hydrogen

_STATES = ((1, -1), (2, -1), (2, 1), (2, -2), (3, -1), (3, -2))
_ZS = (1, 20, 50)


def _hydrogen_states():
    """The sampled levels at m_j = 1/2: each of _STATES at each Z in _ZS."""
    for Z in _ZS:
        for n, k in _STATES:
            yield QuantumNumbers(n, k, 0.5, Z)


def _domain_states(rng):
    """Seeded valid states, n <= 60: at each Z in (1, 20, 50, 92), a level
    per k stratum (k = -n, other k < 0, k > 0) at m_j = -j, a draw and +j."""
    for Z in (1, 20, 50, 92):
        for stratum in ("-n", "k<0", "k>0"):
            n = int(rng.integers(1 if stratum == "-n" else 2, 61))
            k = (-n if stratum == "-n" else
                 int(rng.integers(1, n))*(-1 if stratum == "k<0" else 1))
            j = abs(k) - 0.5
            for mj in (-j, int(rng.integers(0, 2*j + 1)) - j, j):
                yield QuantumNumbers(n, k, mj, Z)


def _radial_FG(lv, rho, A: float = 1.0):
    """Closed-form (A F, A G) of level lv at dimensionless rho = C r
    (vectorized; A = 1: unnormalized), from hydrogen's radial kernel with
    A rho^s e^{-rho} formed in range: the unnormalized F overflows for
    large |k| (n = k = 150) where A F with the wavefunction's A does not.
    A float or 0-d rho gives Python floats, and rho = inf the limit 0."""
    if type(rho) is not float:
        rho = np.asarray(rho, dtype=float)
        if rho.ndim == 0:
            rho = float(rho)
    return hy._radial_kernel(lv, A, math.log(A), rho, hy._steps(lv))


def gauss_laguerre_nodes(n: int, alpha: float):
    """Generalized Gauss-Laguerre nodes and log weights for the weight
    x^alpha e^{-x} on [0, inf); exact for polynomials of degree <= 2n - 1.

    The nodes are the eigenvalues of the Golub-Welsch Jacobi matrix
    (diagonal 2i + alpha + 1, off-diagonal sqrt(i (i + alpha))).  The weights
    are Gamma(n+alpha+1) x_j / (n! (n+1)^2 L_{n+1}^{(alpha)}(x_j)^2), returned
    as logs: they underflow at the far nodes for large n, and eigenvector-
    based weights lose their relative accuracy there.  The dense
    eigen-solve costs O(n^3): it is the exact rule of _log_radial_norm_sq.
    """
    if n != int(n) or n < 1:
        raise ValueError(f"node count must be a positive integer, got {n!r}")
    if not alpha > -1:
        raise ValueError(f"superscript must exceed -1, got {alpha!r}")
    n = int(n)
    i = np.arange(1, n)
    off = np.sqrt(i*(i + alpha))
    jacobi = (np.diag(2*np.arange(n) + alpha + 1.0)
              + np.diag(off, 1) + np.diag(off, -1))
    x = np.linalg.eigvalsh(jacobi)
    log_w = (math.lgamma(n + alpha + 1) - math.lgamma(n + 1)
             - 2*math.log(n + 1) + np.log(x)
             - 2*np.log(np.abs(laguerre(n + 1, alpha, x))))
    return x, log_w


def _log_radial_norm_sq(lv) -> float:
    """Gauss-Laguerre route of hydrogen._log_norm_sq: the log of the
    integral of F^2 + G^2 over r in natural units, exact up to rounding.

    With x = 2 rho = 2 C r the integrand is 2^{-2s} x^{2s} e^{-x} (P^2 + Q^2)
    and dr = dx/(2C); P^2 + Q^2 has degree 2 n_r, so n_r + 2 generalized
    Gauss-Laguerre nodes with alpha = 2s integrate it exactly.  The sum is
    taken in log form: the far weights underflow where the brackets are
    large, and for large |k| the integral itself exceeds the float range.
    From n = 359 (k = -1, Z = 1) the weights and brackets leave the float
    range and the result is NaN.
    """
    s = lv.s
    # a bracket zero at a node adds 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x, log_w = gauss_laguerre_nodes(lv.n - abs(lv.k) + 2, 2*s)
        P, Q = hy._brackets(lv, x, hy._steps(lv))
        log_terms = log_w + 2*np.log(np.hypot(P, Q))
        top = float(np.max(log_terms))
        total = float(np.sum(np.exp(log_terms - top)))
    return (top + math.log(total)
            - (2*s + 1)*math.log(2.0) - 0.5*math.log(1.0 - lv.E*lv.E))


def system_residual(qn: QuantumNumbers, E: float, FG_fn, r_grid):
    """Normalized residuals of the coupled radial system for a given
    callable.

    FG_fn takes radii in natural units, must accept arrays and returns the
    pair (F, G).  The grid is in Bohr radii, strictly positive ascending.
    Derivatives come from a 5-point (4th-order) finite-difference stencil
    with step h = min(8e-4/C, 0.01 r).  Each equation's residual is divided
    pointwise by the sum of its term magnitudes; points where the solution
    has decayed below 1e-200 of the grid maximum report zero.  A NaN term
    anywhere makes every residual NaN.
    """
    r_au = np.asarray(r_grid, dtype=float)
    if r_au.ndim != 1 or len(r_au) < 1:
        raise ValueError("grid must be a 1-d array")
    if not (np.all(r_au > 0) and np.all(np.diff(r_au) > 0)):
        raise ValueError("grid must be strictly positive and ascending")
    lv = _level(qn, E)
    za, k = lv.za, lv.k
    r = r_au/ALPHA_FS
    h = np.minimum(8e-4/lv.C, 0.01*r)
    F_st, G_st = zip(*(FG_fn(r + m*h) for m in (-2, -1, 1, 2)))
    dF = (-F_st[3] + 8*F_st[2] - 8*F_st[1] + F_st[0])/(12*h)
    dG = (-G_st[3] + 8*G_st[2] - 8*G_st[1] + G_st[0])/(12*h)
    Fv, Gv = FG_fn(r)
    t1 = dF + (k/r)*Fv - (1 + E + za/r)*Gv
    n1 = np.abs(dF) + np.abs((k/r)*Fv) + np.abs((1 + E + za/r)*Gv)
    t2 = dG - (k/r)*Gv + (-lv.eps + za/r)*Fv
    n2 = np.abs(dG) + np.abs((k/r)*Gv) + np.abs((-lv.eps + za/r)*Fv)
    # keep the floor strictly positive even for identically-zero inputs;
    # np.max and np.maximum keep a NaN, which then reaches every residual
    floor = np.maximum(1e-200*np.max((n1, n2)), 2.3e-308)
    res1 = np.where(n1 <= floor, 0.0, np.abs(t1)/np.maximum(n1, floor))
    res2 = np.where(n2 <= floor, 0.0, np.abs(t2)/np.maximum(n2, floor))
    return res1, res2


def ode_residual(qn: QuantumNumbers, E: float, r_grid):
    """Residuals of the closed-form (F, G) on a Bohr-radius grid.

    Evaluates the closed forms at the supplied energy (which need not be the
    eigenvalue: the residual then grows by orders of magnitude, which is the
    eigenvalue-sensitivity probe).
    """
    lv = _level(qn, E)
    return system_residual(qn, E, lambda r: _radial_FG(lv, lv.C*r), r_grid)


def shoot_eigenvalue(qn: QuantumNumbers) -> float:
    """Bound-state energy from two-sided shooting, independent of the formula.

    Integrates the radial system outward from the origin (indicial start) and
    inward from the far tail (asymptotic decay ratio), and root-finds the
    Wronskian-style mismatch at an interior matching point to machine
    precision.  The bracket spans +-35% of the binding energy around the
    closed-form value; bracket placement does not bias the root.  Raises
    RuntimeError when the bracket contains no sign change, or when F at the
    root has other than the level's n_r (k < 0) or n_r - 1 (k > 0) nodes:
    the root of a neighbouring level.
    """
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq
    k = qn.k

    def sides(E):
        # (F, G) at the solver's steps at energy E, integrated outward from
        # the origin and inward from the far tail to the matching point
        lv = _level(qn, E)
        za, C = lv.za, lv.C

        def rhs(r, y):
            F, G = y
            return [-(k/r)*F + (1 + E + za/r)*G,
                    (k/r)*G - (-lv.eps + za/r)*F]

        r0 = 1e-4/C
        r_match = max(za*E/C, 1.0)/C
        r_out = 45.0/C
        # indicial behaviour at the origin: F, G ~ r^s with G/F = (s + k)/za
        y0 = np.array([1.0, (lv.s + k)/za])
        y0 /= np.linalg.norm(y0)
        # exponential decay at infinity: G/F -> -C/(1 + E)
        y1 = np.array([1.0, -C/(1 + E)])
        y1 /= np.linalg.norm(y1)
        return tuple(solve_ivp(rhs, (start, r_match), y, method="DOP853",
                               rtol=1e-11, atol=1e-300).y
                     for start, y in ((r0, y0), (r_out, y1)))

    def mismatch(E):
        # normalized Wronskian mismatch of the two sides at energy E
        (Fi, Gi), (Fo, Go) = (side[:, -1] for side in sides(E))
        return (Fi*Go - Fo*Gi)/(math.hypot(Fi, Gi)*math.hypot(Fo, Go))

    lv = _level(qn)
    lo, hi = lv.E - 0.35*lv.eps, min(lv.E + 0.35*lv.eps, 1.0 - 1e-16)
    f_lo, f_hi = mismatch(lo), mismatch(hi)
    if f_lo*f_hi > 0:
        raise RuntimeError(
            f"no sign change in bracket [{lo}, {hi}]: "
            f"mismatch {f_lo!r} .. {f_hi!r}")
    E = brentq(mismatch, lo, hi, xtol=5e-17, rtol=8.9e-16)
    # F's sign changes, counted per side: each side has its own scale
    nodes = sum(int(np.count_nonzero(np.diff(np.signbit(F))))
                for F, _ in sides(E))
    want = qn.n_r - (qn.k > 0)
    if nodes != want:
        raise RuntimeError(
            f"the shooting root E = {E!r} has {nodes} radial nodes; "
            f"n={qn.n}, k={qn.k} has {want}: it is a neighbouring level")
    return E


def amplitude_oracle(w: hy.WaveFunction, r_au, theta, phi):
    """(a, b): coefficients of Psi on the spin basis, Psi = a q+ + b q-.

    Combines each harmonic with its radial factor directly, y_low's from
    its own Clebsch weights, rather than (F - G N) y_up as WaveFunction.psi
    does.  Arguments broadcast.
    """
    r = np.asarray(r_au, dtype=float)
    F, G = _radial_FG(w.level, w.C*r/ALPHA_FS, w.A)
    up, lo = w.spinor_upper, SpinorFunction(w.qn.l_lower, w.qn.j, w.qn.m_j)
    pref = ALPHA_FS/r
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
    r = np.asarray(r_au, dtype=float)
    theta = np.asarray(theta, dtype=float)
    F, G = _radial_FG(w.level, w.C*r/ALPHA_FS, w.A)
    up, lo = w.spinor_upper, SpinorFunction(w.qn.l_lower, w.qn.j, w.qn.m_j)
    ang_F = (up.c1**2*np.abs(up.harmonic("up", theta, 0.0))**2
             + up.c2**2*np.abs(up.harmonic("down", theta, 0.0))**2)
    ang_G = (lo.c1**2*np.abs(lo.harmonic("up", theta, 0.0))**2
             + lo.c2**2*np.abs(lo.harmonic("down", theta, 0.0))**2)
    return (F*F*ang_F + G*G*ang_G)/(r/ALPHA_FS)**2/ALPHA_FS**3


def probability_oracle(w: hy.WaveFunction, r_lo: float, r_hi: float):
    """Adaptive-quadrature route of probability_in_region: scipy's quad of
    A^2 rho^{2s} e^{-2 rho} (P^2 + Q^2) over the same capped shell.

    The integrand restates the closed form in Python floats instead of
    calling the production brackets: one loop runs the recurrences of
    L_{n_r-1}^{(2s+1)} and L_{n_r}^{(2s-1)} together (quad calls it ~10^3
    times per shell at n = 40), and the prefactor is a power times an
    exponential, finite for n <= 60.
    """
    from scipy.integrate import quad
    cap = max(100.0, 4.0*w.qn.n + 60.0)/w.C
    lo, hi = min(r_lo/ALPHA_FS, cap), min(r_hi/ALPHA_FS, cap)
    if hi <= lo:
        return 0.0
    n_r, lv = w.qn.n_r, w.level
    za, s, C, sk, W = lv.za, lv.s, lv.C, lv.sk, lv.W
    a1, a2 = 2*s + 1, 2*s - 1
    norm = w.A*w.A

    def integrand(r):
        rho = C*r
        x = 2.0*rho
        p0, p1, q0, q1 = 0.0, 1.0, 0.0, 1.0         # degrees -1 and 0
        for j in range(n_r):
            p0, p1 = p1, ((2*j + 1 + a1 - x)*p1 - (j + a1)*p0)/(j + 1)
            q0, q1 = q1, ((2*j + 1 + a2 - x)*q1 - (j + a2)*q0)/(j + 1)
        P = za*x*p0 + sk*W*q1
        Q = sk*x*p0 + za*W*q1
        return norm*rho**(2*s)*math.exp(-2.0*rho)*(P*P + Q*Q)

    return quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=300)[0]


@_register("energy-degeneracy", "hydrogen", 1e-15)
def _chk_degeneracy(rng, c):
    for Z in _ZS:
        for n, k in ((2, 1), (3, 1), (3, 2)):
            c(sommerfeld_energy(n, k, Z), sommerfeld_energy(n, -k, Z))
        seq = [sommerfeld_energy(n, -1, Z) for n in (1, 2, 3, 4)]
        c(not all(a < b < 1.0 for a, b in zip(seq, seq[1:])))
    c(sommerfeld_energy(1, -1, 0.0), 1.0)
    return "E(n,k) = E(n,-k); monotone toward mc^2; Z->0 limit"


@_register("energy-reference-values", "hydrogen", 1.0)
def _chk_energy_refs(rng, c):
    binding = binding_energy_ev(QuantumNumbers(1, -1, 0.5, 1))
    c(binding, -13.6059, scale=0.001)
    c(binding/(-0.5*ALPHA_FS**2*MC2_EV), 1.0, scale=2e-4)     # Taylor term
    split = (sommerfeld_energy(2, -2, 1) - sommerfeld_energy(2, 1, 1))*MC2_EV
    c(split/4.53e-5, 1.0, scale=0.02)
    c(sommerfeld_energy(1, -1, 1), math.sqrt(1 - ALPHA_FS**2), scale=1e-15)
    return (f"binding {binding:.6f} eV (ref -13.6059 +- 0.001); "
            f"splitting {split:.6e} eV (ref 4.53e-5 +- 2%); ratio-of-tol")


@_register("eigenvalue-agreement", "hydrogen", 1e-8)
def _chk_shooting(rng, c):
    for qn in _hydrogen_states():
        e_formula = energy(qn)
        c(shoot_eigenvalue(qn), e_formula, scale=1.0 - e_formula)
    return "18 states, shooting vs formula, relative to binding"


@_register("ode-residual", "hydrogen", 1e-6)
def _chk_residual(rng, c):
    grid = np.linspace(0.05, 30.0, 400)
    for qn in _hydrogen_states():
        c(ode_residual(qn, energy(qn), grid))
    return "closed forms on r in [0.05, 30] Bohr, 18 states"


@_register("ode-wrong-energy", "hydrogen", 1.0)
def _chk_wrong_energy(rng, c):
    qn = QuantumNumbers(1, -1, 0.5, 20)
    grid = np.linspace(0.05, 30.0, 400)
    E = energy(qn)
    right, wrong = (np.max(ode_residual(qn, e, grid)) for e in (E, E + 1e-3))
    c(right, scale=1e-4*wrong)
    c(system_residual(qn, E, lambda r: (np.zeros_like(r), np.zeros_like(r)),
                      grid))
    return (f"residual grows {wrong/right:.1e}x at E + 1e-3 "
            f"(need >= 1e4); zero function reports 0")


@_register("radial-shape", "hydrogen", 1e-10)
def _chk_radial_shape(rng, c):
    lv = _level(QuantumNumbers(1, -1, 0.5, 1))
    expect = -(1 - lv.s)/ALPHA_FS
    for rho in (0.1, 0.5, 1.0, 3.0, 8.0):
        F, G = _radial_FG(lv, rho)
        c(G/F, expect, scale=abs(expect))
    c(_radial_FG(lv, 0.0))
    expected_nodes = {(1, -1): 0, (2, -1): 1, (2, 1): 0,
                      (2, -2): 0, (3, -1): 2, (3, -2): 1}
    rho = np.linspace(1e-3, 35.0, 20000)
    for (n, k), want in expected_nodes.items():
        F, _ = _radial_FG(_level(QuantumNumbers(n, k, 0.5, 1)), rho)
        sgn = np.sign(F[np.abs(F) > 1e-12*np.abs(F).max()])
        c(np.count_nonzero(sgn[1:] != sgn[:-1]), want)
    return "ground G/F = -(1-s)/(Z alpha); origin zeros; node counts"


_LEGENDRE_COUNTS = (1, 2, 3, 4, 5, 8, 33, 64, 100, 125, 128, 240, 1000)


def _golub_welsch_legendre(n: int) -> np.ndarray:
    """The n Gauss-Legendre nodes, ascending, as the eigenvalues of the
    Legendre Jacobi matrix (zero diagonal, off-diagonal k/sqrt(4k^2 - 1);
    Golub & Welsch, Math. Comp. 23, 221, 1969), each polished by one Newton
    step on P_n from scipy's eval_legendre, with
    P_n' = n (x P_n - P_{n-1})/(x^2 - 1): a route that shares nothing with
    special.leggauss's recurrence and starting guesses."""
    from scipy.linalg import eigvalsh_tridiagonal
    from scipy.special import eval_legendre
    k = np.arange(1, n)
    x = eigvalsh_tridiagonal(np.zeros(n), k/np.sqrt(4.0*k*k - 1.0))
    p = eval_legendre(n, x)
    return x - p*(x*x - 1.0)/(n*(x*p - eval_legendre(n - 1, x)))


@_register("legendre-rule", "hydrogen", 1.0)
def _chk_legendre_rule(rng, c):
    for n in _LEGENDRE_COUNTS:
        x, w = map(np.array, leggauss(n))
        j = np.arange(n)
        # exact for degree <= 2n - 1: x^(2j) integrates to 2/(2j + 1)
        c((w @ x[:, None]**(2*j))*(2*j + 1)/2, 1.0, scale=1e-14, at=n)
        c(x, _golub_welsch_legendre(n), scale=4e-16, at=n)
    return (f"Gauss-Legendre rules of n = "
            f"{', '.join(map(str, _LEGENDRE_COUNTS))}: x^(2j), 2j <= 2n - 2, "
            f"relative to 1e-14, and the Golub-Welsch nodes, one Newton "
            f"step polished, to 4e-16; ratio-of-tol; worst at n = {c.at}")


@_register("normalization-3d", "hydrogen", 1e-6)
def _chk_norm3d(rng, c):
    x, wx = leggauss(64)
    theta = np.arccos(x)
    for qn in _hydrogen_states():
        w = hy.assemble_wavefunction(qn)
        r, wr = gauss_legendre_nodes(96, 0.0, 40.0/w.C*ALPHA_FS)
        R, TH = np.meshgrid(r, theta, indexing="ij")
        cell = 2*math.pi*R*R*np.outer(wr, wx)
        for dens in (w.density_grid(R, TH), density_oracle(w, R, TH)):
            c(np.sum(dens*cell), 1.0)
    return ("3-d quadrature of the density and of its hand-expanded "
            "oracle = 1, 18 states")


@_register("normalization-oracle", "hydrogen", 1e-10)
def _chk_norm_oracle(rng, c):
    for Z in (1, 92):
        for n in (1, 2, 3, 8, 16, 33, 40):
            for k in sorted({-1, -n}):
                w = hy.assemble_wavefunction(QuantumNumbers(n, k, 0.5, Z))
                c(probability_oracle(w, 0.0, math.inf), 1.0)
    return ("closed-form A: adaptive quadrature to "
            "max(100, 4n + 60)/C gives P(0, inf) = 1; n <= 40, "
            "k = -1 and -n, Z = 1 and 92")


@_register("normalization-closed-form", "hydrogen", 1e-13)
def _chk_norm_closed_form(rng, c):
    levels = [(n, k) for n in range(1, 61) for k in range(-n, n) if k]
    strata = ([(n, k) for n, k in levels if k == -n],       # n_r = 0
              [(n, k) for n, k in levels if -n < k < 0],
              [(n, k) for n, k in levels if k > 0])
    for Z in (1, 20, 50, 92):
        for levels in strata:
            for i in rng.choice(len(levels), 40, replace=False):
                n, k = levels[i]
                lv = _level(QuantumNumbers(n, k, 0.5, Z))
                want = _log_radial_norm_sq(lv)
                c(hy._log_norm_sq(lv), want, scale=max(1.0, abs(want)),
                  at=(n, k, Z))
    return (f"log of the radial norm, closed form vs exact "
            f"Gauss-Laguerre sum, relative to max(1, |log|); {c.count} "
            f"seeded levels, n <= 60, k = -n, other k < 0, k > 0, "
            f"Z = 1, 20, 50, 92; worst at (n, k, Z) = {c.at}")


@_register("shell-oracle", "hydrogen", 1e-12)
def _chk_shell_oracle(rng, c):
    for Z in (1, 92):
        for n in (1, 2, 3, 8, 16, 33, 40, 60):
            for k in sorted({-1, n//2, -n} - {0}):
                w = hy.assemble_wavefunction(QuantumNumbers(n, k, 0.5, Z))
                # shell edges drawn uniformly in rho on [0, 2n + 30]
                a, b = np.sort(rng.random(2))*(2.0*n + 30.0)/w.C*ALPHA_FS
                for lo, hi in ((0.0, a), (a, b), (a, math.inf)):
                    # the library's array route and the float route that
                    # `quatspin probability` prints (its value does not
                    # depend on the error request)
                    want = probability_oracle(w, lo, hi)
                    c(hy.probability_in_region(w, lo, hi), want)
                    c(hy._shell_probability(w, lo, hi, False, True), want)
    return (f"Gauss-Legendre shells on arrays and on Python floats vs "
            f"adaptive quadrature, {c.count} comparisons on {c.count//2} "
            f"seeded shells [0, a], [a, b], [a, inf); n <= 60, "
            f"k in {{-1, n/2, -n}}, Z = 1 and 92")


@_register("density-assembly", "hydrogen", 1e-12)
def _chk_density_assembly(rng, c):
    states = list(_domain_states(rng))
    u = rng.random((len(states), 6, 3))
    for qn, v in zip(states, u):
        # radii across the bulk, (0.02 .. 3) n^2/Z Bohr; uniform directions
        w = hy.assemble_wavefunction(qn)
        r = (0.02 + 2.98*v[:, 0])*qn.n*qn.n/qn.Z
        th, ph = _sphere_points(v[:, 1:])
        p = w.psi(r, th, ph)
        prod = mul(conj_both(p), p)
        dens_nat = prod.q0.real
        dens = w.density(r, th, ph)
        a, b = amplitude_oracle(w, r, th, ph)
        scale = np.maximum(dens, 1e-30)
        # scalar is real, e2/e3 vanish, e1 carries exactly -i * density
        for zero in (prod.q0.imag, prod.q2, prod.q3):
            c(zero, at=qn)
        c(prod.q1, -1j*dens_nat, at=qn)
        c(dens_nat, abs(a)**2 + abs(b)**2, at=qn)
        c(dens, density_oracle(w, r, th), scale, at=qn)
        c(dens, dens_nat/ALPHA_FS**3, scale, at=qn)
        c(np.minimum(dens, 0.0), at=qn)
        c(p, psi_oracle(w, r, th, ph), at=qn)
    return (f"product = density (e0 - i e1); componentwise formula; two "
            f"assembly routes; nonnegativity; {len(states)} seeded states, "
            f"6 points each; worst at {c.at}")


@_register("probability-shells", "hydrogen", 1e-6)
def _chk_prob_shells(rng, c):
    from scipy.special import gammainc
    qn = QuantumNumbers(1, -1, 0.5, 1)
    w = hy.assemble_wavefunction(qn)
    c(hy.probability_in_region(w, 0.0, math.inf), 1.0)
    s, _, scale = radial_parameters(qn)
    # ground-state density is rho^{2s} e^{-2 rho}: the shell integral is a
    # regularized incomplete gamma, an independent closed-form oracle
    p_inner = hy.probability_in_region(w, 0.0, 1.0)
    c(p_inner, float(gammainc(2*s + 1, 2*scale*1.0)))
    a = 1.5
    c(hy.probability_in_region(w, 0.0, a)
      + hy.probability_in_region(w, a, math.inf), 1.0)
    return f"P(r < 1 Bohr) = {p_inner:.10f} vs incomplete-gamma oracle"


@_register("nonrelativistic-limit", "hydrogen", 1.0)
def _chk_nonrel(rng, c):
    from scipy.integrate import quad as _quad
    for Z in (1, 5, 10):
        w = hy.assemble_wavefunction(QuantumNumbers(1, -1, 0.5, Z))
        # integrated G^2 over integrated F^2
        num, den = (_quad(lambda r: _radial_FG(w.level, w.C*r/ALPHA_FS)[i]**2,
                          0, 60/w.C*ALPHA_FS, epsabs=1e-15, epsrel=1e-10,
                          limit=200)[0] for i in (1, 0))
        ratio = math.sqrt(num/den)
        za = Z*ALPHA_FS
        want = (1 - math.sqrt(1 - za*za))/za
        c((ratio - want)/want, scale=1e-6)
        c(ratio/(za/2), 1.0, scale=2e-2)
    return ("integrated |G|/|F| = (1-s)/(Z alpha) to 1e-6 relative, "
            "~ Z alpha/2 to 2e-2; ratio-of-tol")


# ------------------------------------------------------------------ dirac

@_register("pauli-embedding", "dirac", 1e-14)
def _chk_embed(rng, c):
    e = pd.PauliAlgebraElement(*rng.standard_normal((1000, 8)).T)
    c(to_matrix_linear(pd.embed(e)), pd.pauli_element_matrix(e))
    c(pd.embed(pd.PauliAlgebraElement(q0=1)), E0)
    c(pd.embed(pd.PauliAlgebraElement(q7=1)), E0*1j)
    c(pd.embed(pd.PauliAlgebraElement(q1=1)), E1*(-1j))
    return "matrix sum = embedded image, 1000 random elements"


@_register("pauli-embedding-product", "dirac", 1e-12)
def _chk_embed_product(rng, c):
    x = rng.standard_normal((300, 2, 8))
    a = pd.PauliAlgebraElement(*x[:, 0].T)
    b = pd.PauliAlgebraElement(*x[:, 1].T)
    c(mul(pd.embed(a), pd.embed(b)),
      from_matrix(pd.pauli_element_matrix(a) @ pd.pauli_element_matrix(b)))
    return "embedding respects products (algebra isomorphism)"


@_register("printed-embedding-variant", "dirac", 1e-15)
def _chk_embed_variant(rng, c):
    x = rng.standard_normal((200, 8))
    x[:, 6:] = 0.0
    q = x.T
    # the historical printed formula flips the sign of the q7 term in the
    # scalar and reuses q7 instead of q6 in the e3 coefficient
    printed = Biquaternion(q[0] - 1j*q[7], -(1j*q[1] + q[4]),
                           -(1j*q[2] + q[5]), -(1j*q[3] + q[7]))
    c(pd.embed(pd.PauliAlgebraElement(*q)), printed)
    return "printed variant agrees on the q6 = q7 = 0 subspace"


@_register("hodge-element", "dirac", 1e-14)
def _chk_hodge(rng, c):
    h = pd.hodge()
    c(mul(h, E0), E0*(-1j))
    c(mul(h, h), -E0)
    e = pd.PauliAlgebraElement(*rng.standard_normal((100, 8)).T)
    c(to_matrix_linear(mul(h, pd.embed(e))), -1j*pd.pauli_element_matrix(e))
    return "-i e0 acts as -i I on every embedded element"


@_register("gamma-matrices", "dirac", 1e-15)
def _chk_gammas(rng, c):
    zero2 = np.zeros((2, 2))
    want = (
        np.diag([1, 1, -1, -1]).astype(complex),
        np.block([[zero2, SIGMA_Z], [-SIGMA_Z, zero2]]),
        np.block([[zero2, SIGMA_X], [-SIGMA_X, zero2]]),
        np.block([[zero2, SIGMA_Y], [-SIGMA_Y, zero2]]),
    )
    for i in range(4):
        c(pd.gamma(i).to_matrix4(), want[i])
    c(pd.gamma(2).to_matrix4().real, [[0, 0, 0, 1], [0, 0, 1, 0],
                                      [0, -1, 0, 0], [-1, 0, 0, 0]])
    return "block forms expand to the four 4x4 matrices"


@_register("clifford-relations", "dirac", 1e-14)
def _chk_clifford(rng, c):
    c(pd.verify_clifford()["max_deviation"])
    return "anticommutators {g_mu, g_nu} = 2 eta_mu_nu, eta = (+,-,-,-)"


@_register("block-multiplication", "dirac", 1e-12)
def _chk_blocks(rng, c):
    q = [_bq(x) for x in np.moveaxis(rng.standard_normal((20, 8, 8)), 1, 0)]
    a = pd.DiracMatrix(((q[0], q[1]), (q[2], q[3])))
    b = pd.DiracMatrix(((q[4], q[5]), (q[6], q[7])))
    c((a @ b).to_matrix4(), a.to_matrix4() @ b.to_matrix4())
    return "quaternion block products match 4x4 multiplication"
