"""Special functions and quadratures used by the spinor and atom modules.

Generalized Laguerre polynomials come from the stable three-term recurrence
(the superscript must accept non-integer real values, since the radial
solutions use 2s +- 1 with irrational s).  Spherical harmonics are built on
the associated Legendre function with explicit orthonormalization and the
Condon-Shortley phase; negative orders go through the conjugation symmetry.
Sphere integrals use a Gauss-Legendre x uniform product rule.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, lpmv

__all__ = [
    "laguerre", "spherical_harmonic", "quadrature_sphere",
    "gauss_legendre_nodes",
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
    x = np.asarray(x)
    L0 = np.ones_like(x)
    if n == 0:
        return L0 if L0.ndim else L0[()]
    L1 = 1 + alpha - x
    for k in range(1, n):
        L0, L1 = L1, ((2*k + 1 + alpha - x)*L1 - (k + alpha)*L0)/(k + 1)
    return L1 if np.ndim(L1) else np.asarray(L1)[()]


def spherical_harmonic(l: int, m: int, theta, phi):
    """Orthonormal spherical harmonic Y_l^m(theta, phi), Condon-Shortley phase.

    Y_l^m = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!) P_l^m(cos theta) e^{i m phi}
    for m >= 0 (lpmv already carries the (-1)^m phase); negative orders via
    Y_l^{-m} = (-1)^m conj(Y_l^m).  theta and phi broadcast.
    """
    if l != int(l) or l < 0:
        raise ValueError(f"l must be a nonnegative integer, got {l!r}")
    if m != int(m) or abs(m) > l:
        raise ValueError(f"order must be an integer with |m| <= l, got {m!r}")
    l, m = int(l), int(m)
    ma = abs(m)
    norm = math.sqrt((2*l + 1)/(4*math.pi)
                     * math.exp(gammaln(l - ma + 1) - gammaln(l + ma + 1)))
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    y = norm*lpmv(ma, l, np.cos(theta))*np.exp(1j*ma*phi)
    if m < 0:
        y = (-1)**ma*np.conj(y)
    return y if np.ndim(y) else np.asarray(y)[()]


def quadrature_sphere(f, n_theta: int = 64, n_phi: int = 128):
    """Integrate f(theta, phi) over the unit sphere.

    Product rule: Gauss-Legendre in cos(theta) (n_theta nodes) times the
    uniform rule in phi (n_phi nodes, exact for trigonometric polynomials up
    to degree n_phi - 1).  f must broadcast over meshgrid arrays.
    """
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    phi = 2*np.pi*np.arange(n_phi)/n_phi
    TH, PH = np.meshgrid(theta, phi, indexing="ij")
    vals = f(TH, PH)
    return (2*np.pi/n_phi)*np.sum(np.asarray(vals)*w[:, None])


def gauss_legendre_nodes(n: int, lo: float, hi: float):
    """Gauss-Legendre nodes and weights mapped to [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5*(hi - lo)
    return lo + half*(x + 1), half*w
