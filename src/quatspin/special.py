"""Special functions and quadratures used by the spinor and atom modules.

Generalized Laguerre polynomials come from the stable three-term recurrence
(the superscript must accept non-integer real values, since the radial
solutions use 2s +- 1 with irrational s); one run also gives L_{n-1} of the
superscript two above.  Spherical harmonics come from the fully normalized
associated-Legendre recurrence with the Condon-Shortley phase; negative
orders go through the conjugation symmetry; a spinor's density runs the
real columns alone (_columns).  Gauss-Legendre rules come from Newton's
method on the Legendre recurrence, on Python floats (the Golub-Welsch
eigenvalues of the Jacobi matrix are their oracle in verify).  Sphere
integrals use a Gauss-Legendre x uniform product rule.
Nothing here imports scipy; numpy is imported by the calls that use arrays.
"""

from __future__ import annotations

import functools
import math

__all__ = [
    "laguerre", "spherical_harmonic", "spherical_harmonics",
    "quadrature_sphere",
    "leggauss", "gauss_legendre_nodes",
]


def laguerre(n: int, alpha: float, x):
    """Generalized Laguerre polynomial L_n^(alpha)(x).

    Three-term recurrence (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}
    upward from L_0 = 1, L_1 = 1 + alpha - x.  Requires integer n >= 0 and
    real alpha > -1; x may be a scalar or array (any dtype numpy accepts,
    so the radial module can differentiate through it).  A Python int or
    float x runs on Python floats, with no numpy, and gives a Python float.
    """
    if n != int(n) or n < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {n!r}")
    if not alpha > -1:
        raise ValueError(f"superscript must exceed -1, got {alpha!r}")
    n = int(n)
    if isinstance(x, (int, float)):
        if n == 0:
            return 1.0
        return _laguerre_run(_laguerre_steps(n, alpha), alpha, float(x))[0]
    import numpy as np
    x = np.asarray(x)
    if n == 0:
        L0 = np.ones_like(x)
        return L0 if L0.ndim else L0.item()
    # a 0-d array becomes a Python number, and so does the result: scalar
    # steps (single density points) then skip numpy's per-operation overhead
    x = x if x.ndim else x.item()
    return _laguerre_run(_laguerre_steps(n, alpha), alpha, x)[0]


def _laguerre_steps(n: int, a: float):
    """Coefficients (2k + 1 + a, k + a, k + 1) of the steps k = 1 .. n - 1
    of the recurrence of laguerre, one at a time.  The divisor k + 1 is a
    float: it converts exactly, so the bits are those of an int divisor,
    and numpy divides an array by a Python float faster than by an int."""
    return ((2*k + 1 + a, k + a, float(k + 1)) for k in range(1, n))


def _laguerre_run(steps, a: float, x):
    """(L_n^(a)(x), L_{n-1}^(a+2)(x)) for n >= 1 (unchecked) from
    steps = _laguerre_steps(n, a) or a tuple of it: the one loop of the
    recurrence.  Each step rounds as the written-out recurrence does, so
    held steps give the same bits.

    The second value comes from the sum identity L_m^(a+1) = sum_{j<=m}
    L_j^(a) (Abramowitz & Stegun, ch. 22) applied twice:
    L_{n-1}^(a+2) = sum_{j<n} (n - j) L_j^(a), kept as two running sums.
    """
    L0, L1 = 1.0, 1 + a - x
    S1 = S2 = 1.0                       # sums of L_0 and of S1 so far
    for p, q, d in steps:
        S1 += L1
        S2 += S1
        L0, L1 = L1, ((p - x)*L1 - q*L0)/d
    return L1, S2


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


def _columns(degrees, orders, theta) -> list:
    """Pbar_l^ma(cos theta) sin^ma theta (0.0 where l < ma) for each
    (ma, column) in orders and each l in degrees, order by order, from
    column = _legendre_column(L, ma), L >= max(degrees).  The one loop of
    the column recurrence: a run resumes up to the next degree asked for,
    and keeps those values alone; a lower degree starts the run over, which
    gives the same bits.  A SpinorFunction asks for its one degree l, where
    its runs end.  On Python floats or arrays as theta."""
    if type(theta) is float:
        x, u = math.cos(theta), abs(math.sin(theta))
    else:
        import numpy as np
        x, u = np.cos(theta), np.abs(np.sin(theta))
    out = []
    for ma, (start, table) in orders:
        um = u**ma
        p0, p, d = 0.0, start, ma   # Pbar_{d-1}^ma, Pbar_d^ma over u^ma
        for l in degrees:
            if l < ma:
                out.append(0.0)
            else:
                if l < d:
                    p0, p, d = 0.0, start, ma
                for a, b in table[d - ma:l - ma]:
                    p0, p = p, a*(x*p - b*p0)
                d = l
                out.append(p*um)
    return out


def _harmonics(degrees, m: int, column, theta, phi) -> list:
    """[Y_l^m(theta, phi) for l in degrees] from column =
    _legendre_column(max(degrees), |m|): the real columns (_columns) times
    e^{i m phi}; zero where l < |m|.  A Python-float theta (phi one too)
    gives Python complex values, float arrays give arrays."""
    ma = abs(m)
    if type(theta) is float:
        t = 0.0 + ma*phi                # e^{i ma phi} with no -0.0
        e, zero = complex(math.cos(t), math.sin(t)), 0j
    else:
        import numpy as np
        e = np.exp(1j*ma*phi)
        zero = np.zeros(np.broadcast(theta, phi).shape, dtype=complex)
    out = []
    for l, p in zip(degrees, _columns(degrees, ((ma, column),), theta)):
        y = p*e
        out.append(zero if l < ma else (-1)**ma*y.conjugate() if m < 0 else y)
    return out


def _angles(theta, phi) -> tuple:
    """(theta, phi) for _harmonics: two Python floats when both are 0-d
    (Python numbers, numpy scalars, 0-d arrays), else two float arrays."""
    if not (isinstance(theta, (int, float)) and isinstance(phi, (int, float))):
        import numpy as np
        theta, phi = np.asarray(theta, float), np.asarray(phi, float)
        if theta.ndim or phi.ndim:
            return theta, phi
    return float(theta), float(phi)


def spherical_harmonics(degrees, m: int, theta, phi) -> list:
    """[Y_l^m(theta, phi) for l in degrees]: harmonics of one integer order
    m at nonnegative integer degrees from a single pass of the normalized
    column recurrence (ascending degrees; see _columns); 0 where l < |m|.

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
    return _harmonics(degrees, m, _legendre_column(max(degrees), abs(m)),
                      *_angles(theta, phi))


def spherical_harmonic(l: int, m: int, theta, phi):
    """Orthonormal spherical harmonic Y_l^m(theta, phi), Condon-Shortley
    phase, from the column recurrence of spherical_harmonics.

    Requires integers l >= 0 and |m| <= l; theta and phi broadcast.
    """
    if l != int(l) or l < 0:
        raise ValueError(f"l must be a nonnegative integer, got {l!r}")
    if m != int(m) or abs(m) > l:
        raise ValueError(f"order must be an integer with |m| <= l, got {m!r}")
    l, m = int(l), int(m)
    return _harmonics((l,), m, _legendre_column(l, abs(m)),
                      *_angles(theta, phi))[0]


def quadrature_sphere(f):
    """Integrate f(theta, phi) over the unit sphere.

    Product rule: Gauss-Legendre in cos(theta) (64 nodes) times the
    uniform rule in phi (128 nodes, exact for trigonometric polynomials up
    to degree 127).  f must broadcast over meshgrid arrays.
    """
    import numpy as np
    x, w = map(np.array, leggauss(64))
    theta = np.arccos(x)
    phi = 2*np.pi*np.arange(128)/128
    TH, PH = np.meshgrid(theta, phi, indexing="ij")
    vals = f(TH, PH)
    return (2*np.pi/128)*np.sum(np.asarray(vals)*w[:, None])


# the first zeros of the Bessel function J_0 (Abramowitz & Stegun, table 9.5)
_J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911013,
             11.79153443901428, 14.93091770848779)


@functools.lru_cache(maxsize=128)
def leggauss(n: int) -> tuple:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1] for n >= 1
    nodes, as two tuples of Python floats, memoized per node count.

    Newton's method on P_n, one node x >= 0 at a time (the rest by
    symmetry), from asymptotic first guesses: the Bessel-zero form
    theta = psi + (psi cot psi - 1)/(8 psi rho^2), psi = j_{0,i}/rho,
    rho = n + 1/2, for the five nodes nearest 1, and Tricomi's expansion
    x = (1 - (n - 1)/(8n^3) - (39 - 28/sin^2 t)/(384 n^4)) cos t,
    t = pi (4i - 1)/(4n + 2), elsewhere.  P_n comes from the three-term
    recurrence in difference form, D_k = P_k - P_{k-1} with u = 1 - x,

        D_{k+1} = (k D_k - (2k + 1) u P_k)/(k + 1),   P_{k+1} = P_k + D_{k+1},

    which does not cancel near x = 1 (as Reinsch's modification of the
    Clenshaw sum), and P_n' = n (u P_n - D_n)/(1 - x^2).  The steps stop
    once n^2 dx^2 <= 2^-56 (1 - x^2) for the Newton step dx = P_n/P_n',
    where the terms of second order in dx drop below a quarter ulp: that
    last step then corrects the node, to x - dx, and, to first order, the
    weight 2/((1 - x^2) P_n'^2).  Nodes land within an ulp of the root and
    weights within 1e-14 relative, the edge ones included (against 40
    digits, n <= 240); O(n^2) float operations, no eigen-solve, no numpy.
    """
    if n != int(n) or n < 1:
        raise ValueError(f"node count must be a positive integer, got {n!r}")
    n = int(n)
    ratios = tuple((k/(k + 1), (2*k + 1)/(k + 1)) for k in range(1, n))
    rho = n + 0.5
    xs, ws = [], []
    for i in range(1, (n + 1)//2 + 1):     # the nodes in [0, 1), largest first
        if 2*i - 1 == n:
            x = 0.0
        elif i <= len(_J0_ZEROS):
            psi = _J0_ZEROS[i - 1]/rho
            x = math.cos(psi + (psi/math.tan(psi) - 1)/(8*psi*rho*rho))
        else:
            t = math.pi*(4*i - 1)/(4*n + 2)
            x = (1 - (n - 1)/(8*n**3)
                 - (39 - 28/math.sin(t)**2)/(384*n**4))*math.cos(t)
        for _ in range(8):          # 1 to 3 steps from these guesses
            u = 1.0 - x
            p, d = x, -u            # P_1 and D_1
            for b, c in ratios:
                d = b*d - c*u*p
                p += d
            one = u*(1.0 + x)       # 1 - x^2
            dp = n*(u*p - d)/one
            dx = p/dp
            if n*n*dx*dx <= 2.0**-56*one:
                break
            x -= dx
        xs.append(x - dx if x else x)       # the middle node is 0 exactly
        ws.append(2.0/(one*dp*dp)*(1.0 + 2.0*x*dx/one))
    m = n//2                        # the mirrored nodes; 0.0 - x keeps +0.0
    return (tuple([0.0 - x for x in xs] + xs[:m][::-1]),
            tuple(ws + ws[:m][::-1]))


def gauss_legendre_nodes(n: int, lo: float, hi: float) -> tuple:
    """Gauss-Legendre nodes and weights mapped to [lo, hi], as two lists of
    Python floats."""
    x, w = leggauss(n)
    half = 0.5*(hi - lo)
    return [lo + half*(t + 1) for t in x], [half*v for v in w]
