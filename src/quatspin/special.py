"""Special functions and quadratures used by the spinor and atom modules.

Generalized Laguerre polynomials come from the stable three-term recurrence
(the superscript must accept non-integer real values, since the radial
solutions use 2s +- 1 with irrational s).  Spherical harmonics come from the
fully normalized associated-Legendre recurrence with the Condon-Shortley
phase; negative orders go through the conjugation symmetry.  Sphere
integrals use a Gauss-Legendre x uniform product rule; radial integrals of
x^alpha e^{-x} times a polynomial use generalized Gauss-Laguerre nodes.
Nothing here imports scipy; numpy is imported by the calls that use arrays.
"""

from __future__ import annotations

import functools
import math

__all__ = [
    "laguerre", "spherical_harmonic", "spherical_harmonics",
    "quadrature_sphere",
    "leggauss", "gauss_legendre_nodes", "gauss_laguerre_nodes",
]


def laguerre(n: int, alpha: float, x):
    """Generalized Laguerre polynomial L_n^(alpha)(x).

    Three-term recurrence (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}
    upward from L_0 = 1, L_1 = 1 + alpha - x.  Requires integer n >= 0 and
    real alpha > -1; x may be a scalar or array (any dtype numpy accepts,
    so the radial module can differentiate through it).
    """
    if n != int(n) or n < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {n!r}")
    if not alpha > -1:
        raise ValueError(f"superscript must exceed -1, got {alpha!r}")
    n = int(n)
    import numpy as np
    x = np.asarray(x)
    if n == 0:
        L0 = np.ones_like(x)
        return L0 if L0.ndim else L0.item()
    # a 0-d array becomes a Python number, and so does the result: scalar
    # steps (single density points) then skip numpy's per-operation overhead
    x = x if x.ndim else x.item()
    L0, L1 = 1.0, 1 + alpha - x
    for k in range(1, n):
        L0, L1 = L1, ((2*k + 1 + alpha - x)*L1 - (k + alpha)*L0)/(k + 1)
    return L1


def _laguerre_pair(n: int, a: float, b: float, x):
    """(L_{n-1}^(a)(x), L_n^(b)(x)), with L_{-1} = 0, from one loop that
    runs the recurrence of laguerre for both (unchecked: integer n >= 0,
    a, b > -1).

    Each value goes through the operations of laguerre in the same order,
    so both are bit-identical to separate calls; a degree below 1 gives
    the scalar 0.0 or 1.0.  A float or 0-d x runs on Python floats.
    """
    if type(x) is not float:
        import numpy as np
        x = np.asarray(x)
        if not x.ndim:
            x = x.item()
    if n == 0:
        return 0.0, 1.0
    L0, L1, M0, M1 = 1.0, 1 + a - x, 1.0, 1 + b - x
    for k in range(1, n):
        if k < n - 1:                   # L stops at degree n - 1
            L0, L1 = L1, ((2*k + 1 + a - x)*L1 - (k + a)*L0)/(k + 1)
        M0, M1 = M1, ((2*k + 1 + b - x)*M1 - (k + b)*M0)/(k + 1)
    return (L1 if n > 1 else L0), M1


@functools.lru_cache(maxsize=1024)
def _legendre_column(l: int, ma: int):
    """Coefficients of the normalized column recurrence of order ma up to
    degree l: the start value Pbar_ma^ma / u^ma and the pairs (a_d, b_d)
    for d = ma + 1 .. l (see spherical_harmonics), memoized per (l, |m|)."""
    p = 1.0/math.sqrt(4*math.pi)
    for i in range(1, ma + 1):
        p *= -math.sqrt((2*i + 1)/(2*i))
    return p, tuple((math.sqrt((4*d*d - 1)/(d*d - ma*ma)),
                     math.sqrt(((d - 1)**2 - ma*ma)/(4*(d - 1)**2 - 1)))
                    for d in range(ma + 1, l + 1))


def spherical_harmonics(degrees, m: int, theta, phi) -> list:
    """[Y_l^m(theta, phi) for l in degrees]: harmonics of one integer order
    m at nonnegative integer degrees from a single pass of the normalized
    column recurrence; 0 where l < |m|.

    Y_l^m = Pbar_l^m(cos theta) e^{i m phi} for m >= 0, where Pbar_l^m is
    the associated Legendre function with sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!)
    and the (-1)^m phase folded in.  It comes from the normalized forward
    column recurrence with the factor sin^m theta held out until the end
    (Holmes & Featherstone, J. Geodesy 76, 279, 2002):

        Pbar_m^m / u^m = -sqrt((2m+1)/(2m)) Pbar_{m-1}^{m-1} / u^{m-1},
                         Pbar_0^0 = 1/sqrt(4 pi),   u = |sin theta|
        Pbar_l^m       = a_lm (x Pbar_{l-1}^m - b_lm Pbar_{l-2}^m),
                         x = cos theta,   Pbar_{m-1}^m = 0
        a_lm = sqrt((4l^2-1)/(l^2-m^2)),  b_lm = sqrt(((l-1)^2-m^2)/(4(l-1)^2-1)).

    No factorials or gamma functions appear, so high degrees stay finite.
    Negative orders via Y_l^{-m} = (-1)^m conj(Y_l^m).  theta and phi
    broadcast; when both are 0-d the recurrence runs on Python floats and
    each value is a Python complex.
    """
    ma = abs(m)
    point = isinstance(theta, (int, float)) and isinstance(phi, (int, float))
    if not point:
        import numpy as np
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        point = theta.ndim == phi.ndim == 0
    if point:
        theta, phi = float(theta), float(phi)
        x, u = math.cos(theta), abs(math.sin(theta))
        t = 0.0 + ma*phi                # as in 1j*m*phi: no -0.0
        e = complex(math.cos(t), math.sin(t))
        zero = 0j
    else:
        x, u = np.cos(theta), np.abs(np.sin(theta))
        e = np.exp(1j*ma*phi)
        zero = np.zeros(np.broadcast_shapes(theta.shape, phi.shape),
                        dtype=complex)
    p, table = _legendre_column(max(degrees), ma)
    column = [p]                    # Pbar_l^m / u^m for l = ma, ma + 1, ...
    p0 = 0.0
    for a, b in table:
        p0, p = p, a*(x*p - b*p0)
        column.append(p)
    out = []
    for l in degrees:
        if l < ma:
            out.append(zero)
            continue
        y = column[l - ma]*u**ma*e
        if m < 0:
            y = (-1)**ma*y.conjugate()
        out.append(y)
    return out


def spherical_harmonic(l: int, m: int, theta, phi):
    """Orthonormal spherical harmonic Y_l^m(theta, phi), Condon-Shortley
    phase, from the column recurrence of spherical_harmonics.

    Requires integers l >= 0 and |m| <= l; theta and phi broadcast.
    """
    if l != int(l) or l < 0:
        raise ValueError(f"l must be a nonnegative integer, got {l!r}")
    if m != int(m) or abs(m) > l:
        raise ValueError(f"order must be an integer with |m| <= l, got {m!r}")
    return spherical_harmonics((int(l),), int(m), theta, phi)[0]


def quadrature_sphere(f, n_theta: int = 64, n_phi: int = 128):
    """Integrate f(theta, phi) over the unit sphere.

    Product rule: Gauss-Legendre in cos(theta) (n_theta nodes) times the
    uniform rule in phi (n_phi nodes, exact for trigonometric polynomials up
    to degree n_phi - 1).  f must broadcast over meshgrid arrays.
    """
    import numpy as np
    x, w = leggauss(n_theta)
    theta = np.arccos(x)
    phi = 2*np.pi*np.arange(n_phi)/n_phi
    TH, PH = np.meshgrid(theta, phi, indexing="ij")
    vals = f(TH, PH)
    return (2*np.pi/n_phi)*np.sum(np.asarray(vals)*w[:, None])


@functools.lru_cache(maxsize=128)
def leggauss(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], memoized per node count
    (read-only arrays: callers share them)."""
    import numpy as np
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre_nodes(n: int, lo: float, hi: float):
    """Gauss-Legendre nodes and weights mapped to [lo, hi]."""
    x, w = leggauss(n)
    half = 0.5*(hi - lo)
    return lo + half*(x + 1), half*w


def gauss_laguerre_nodes(n: int, alpha: float):
    """Generalized Gauss-Laguerre nodes and log weights for the weight
    x^alpha e^{-x} on [0, inf); exact for polynomials of degree <= 2n - 1.

    The nodes are the eigenvalues of the Golub-Welsch Jacobi matrix
    (diagonal 2i + alpha + 1, off-diagonal sqrt(i (i + alpha))).  The weights
    are Gamma(n+alpha+1) x_j / (n! (n+1)^2 L_{n+1}^{(alpha)}(x_j)^2), returned
    as logs: they underflow at the far nodes for large n, and eigenvector-
    based weights lose their relative accuracy there.
    """
    if n != int(n) or n < 1:
        raise ValueError(f"node count must be a positive integer, got {n!r}")
    if not alpha > -1:
        raise ValueError(f"superscript must exceed -1, got {alpha!r}")
    n = int(n)
    import numpy as np
    i = np.arange(1, n)
    off = np.sqrt(i*(i + alpha))
    jacobi = (np.diag(2*np.arange(n) + alpha + 1.0)
              + np.diag(off, 1) + np.diag(off, -1))
    x = np.linalg.eigvalsh(jacobi)
    log_w = (math.lgamma(n + alpha + 1) - math.lgamma(n + 1)
             - 2*math.log(n + 1) + np.log(x)
             - 2*np.log(np.abs(laguerre(n + 1, alpha, x))))
    return x, log_w
