"""Relativistic one-electron atom: bound-state energies, radial functions,
quaternionic wavefunction, and probability densities.

Internal units are natural (hbar = c = m = 1): lengths in Compton wavelengths,
energies in units of the electron rest energy mc^2.  Public radial arguments
are in Bohr radii (r_natural = r_bohr / alpha); energies convert to eV via
mc^2 = 510998.95 eV.

The quantum numbers (n, k, m_j, Z), the Sommerfeld energy E and the
level's radial parameters (levels._level: s, E, 1 - E, C = sqrt(1 - E^2),
s - k, W = (s - kE)/C, Z alpha = za) live in levels, which needs no numpy;
every function here reads them from that one record.  With rho = C r, the
radial pair

    F(rho) = A rho^s e^{-rho} [ za 2rho L_{n_r-1}^{(2s+1)}(2rho)
                                + (s - k) W L_{n_r}^{(2s-1)}(2rho) ]
    G(rho) = -A rho^s e^{-rho} [ (s - k) 2rho L_{n_r-1}^{(2s+1)}(2rho)
                                 + za W L_{n_r}^{(2s-1)}(2rho) ]

(large and small components; degree -1 Laguerre terms are zero) satisfies the
coupled first-order system

    F' + (k/r) F - (1 + E + za/r) G = 0
    G' - (k/r) G + (E - 1 + za/r) F = 0

One run of the Laguerre recurrence gives both polynomials of the pair, and
the normalization A has a closed form (Laguerre orthogonality).  Their
second routes live in verify: the finite-difference residual check
(ode_residual), the exact Gauss-Laguerre sum of the norm and the
independent two-sided shooting eigensolver (shoot_eigenvalue).  The
wavefunction of a state qn attaches the total-angular-momentum spinor y_up
of degree l_up = l(k) (k for k > 0, -k - 1 otherwise) to F, and the
Pauli-quaternion product y_low = -(sigma . r_hat) y_up (verify's
spinor-parity-map) to G.
With the real unit quaternion N = i sigma . r_hat = n_z e1 + n_y e2 + n_x e3,

    Psi = (A/r) (F y_up + i G y_low) = (A/r) (F - G N) y_up,

y_up as a biquaternion a q_up + b q_down.  The probability density is the
scalar part of Psi conj_both(Psi), i.e. norm_sq(Psi).  The reversed
product conj_both(Psi) Psi has the same scalar part, its e2/e3 parts
cancel identically, and it equals density times (e0 - i e1).  Paired
harmonics share their order m, so the F G cross term vanishes, and
sigma . r_hat is unitary, so density = (A/r)^2 (F^2 + G^2) |y_up|^2: the
radial factor on the radii, y_up's SpinorFunction.density on the angles,
and one product at full size.  A WaveFunction holds only radial tables.

numpy is imported by the calls that take arrays, and by
probability_in_region, which runs its nodes as arrays; scipy never is, and
biquaternion only where Psi is formed (psi).  The density table and the
shell probabilities of the command line run the same kernels node by node
on Python floats (_shell_probability with floats=True).
"""

from __future__ import annotations

import functools
import math
import operator

from ._record import Record
from .levels import ALPHA_FS, QuantumNumbers, _level, _Level
from .special import _laguerre_run, _laguerre_steps, leggauss
from .spinor import SpinorFunction, spinor_as_biquaternion

__all__ = ["WaveFunction", "assemble_wavefunction", "probability_in_region"]


def __getattr__(name):
    # perfbench/ is the only reader of these four names, as hy.*: the level
    # algebra from levels, the shooting solver from verify (imported here,
    # on first access: verify imports this module, and numpy), and a no-op
    # for the memo the solver no longer has.  The roadmap item "Repair the
    # layer tracer" points perfbench at the homes and removes this hook
    if name in ("energy", "radial_parameters"):
        from . import levels
        return getattr(levels, name)
    if name == "shoot_eigenvalue":
        from . import verify
        return verify.shoot_eigenvalue
    if name == "clear_shooting_cache":
        return lambda: None
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _steps(lv: _Level):
    """The steps of L_{n_r}^{(2s-1)}, lazily (see special._laguerre_steps);
    the same run gives L_{n_r-1}^{(2s+1)} (special._laguerre_run)."""
    return _laguerre_steps(lv.n - abs(lv.k), 2*lv.s - 1)


def _brackets(lv: _Level, x, steps):
    """Laguerre brackets (P, Q) at x = 2 rho, so that F = rho^s e^{-rho} P
    and G = -rho^s e^{-rho} Q; polynomials of degree n_r in x, from
    L_{n_r-1}^{(2s+1)} and L_{n_r}^{(2s-1)}, both from one run of
    steps = _steps(lv), lazy or held as a tuple.  Degree 0 needs no run:
    L_{-1} = 0, L_0 = 1."""
    L2, L1 = (_laguerre_run(steps, 2*lv.s - 1, x) if lv.n - abs(lv.k)
              else (1.0, 0.0))
    return lv.za*x*L1 + lv.sk*lv.W*L2, lv.sk*x*L1 + lv.za*lv.W*L2


def _radial_kernel(lv: _Level, A: float, log_a: float, rho, steps,
                   bounds=()):
    """(F, G) times A, log_a = log A, at rho >= 0: a Python float gives
    Python floats, a float array arrays; steps as for _brackets.  At
    rho = inf (F, G) is the limit 0: e^{-rho} beats every power of rho.
    A Python float never touches numpy.  bounds, if given, are the least
    and greatest rho of an array, bit for bit, so that no reduction runs
    (density and psi take them from r's, probability_in_region from its
    extreme nodes).  At n_r = 0 the brackets are the constants (s - k) W
    and za W, Python floats that pref multiplies: no array arithmetic
    forms the zero term of L_{-1}.

    The prefactor is (A rho^s) e^{-rho}: the argument of e^{-rho} is exact,
    so this rounds to a few eps wherever A rho^s, e^{-rho} and the product
    are normal floats.  Elsewhere (large |k|, far tails) it is the single
    exponential exp(log A + s log rho - rho), which stays finite where
    rho^s alone leaves the float range.
    """
    if type(rho) is float:              # one point runs on Python floats
        if rho == math.inf:
            return 0.0, 0.0
        lo = hi = rho
        exp = math.exp
    else:
        import numpy as np
        lo, hi = bounds or ((rho.min(), rho.max()) if rho.size
                            else (0.0, 0.0))
        if hi == math.inf:
            finite = rho < hi
            F, G = _radial_kernel(lv, A, log_a, np.where(finite, rho, 0.0),
                                  steps)
            return np.where(finite, F, 0.0), np.where(finite, G, 0.0)
        exp = np.exp
    s = lv.s
    # degree 0 does not read x (its L_{-1} term is 0 at every finite x)
    P, Q = _brackets(lv, 2*rho if lv.n - abs(lv.k) else 0.0, steps)
    # each condition of _split_ok is monotone or concave in rho, so it holds
    # on every node when it holds at both ends
    if (lo > 0 and _split_ok(log_a, s*math.log(lo), lo)
            and (hi == lo or _split_ok(log_a, s*math.log(hi), hi))):
        pref = A*rho**s*exp(-rho)
    elif type(rho) is float:            # the limit 0 at rho = 0
        try:
            pref = math.exp(log_a + s*math.log(rho) - rho) if rho else 0.0
        except OverflowError:
            pref = math.inf
    else:
        with np.errstate(divide="ignore", over="ignore", under="ignore",
                         invalid="ignore"):  # rho = 0 gives exp(-inf) = 0
            log_rs = s*np.log(rho)
            pref = np.where(_split_ok(log_a, log_rs, rho),
                            A*rho**s*np.exp(-rho),
                            np.exp(log_a + log_rs - rho))
    return pref*P, -pref*Q


def _split_ok(log_a, log_rs, rho):
    """True where A, rho^s, A rho^s, e^{-rho} and the product all lie well
    inside the normal float range (logs within +-700)."""
    log_p = log_a + log_rs
    return ((abs(log_a) < 700) & (abs(log_rs) < 700) & (log_p < 700)
            & (rho < 700) & (log_p - rho > -700))


def _trim(a: np.ndarray) -> np.ndarray:
    """a cut to length 1 along every axis on which it is constant.

    Exact: the comparison is of bytes (signed zeros and NaN payloads count
    as values), and broadcasting against the other arguments restores the
    cut axes.  An axis is constant when its last slice equals its first
    and its slices 1.. equal its slices ..-1, byte for byte; the second
    test copies blocks of at most _TRIM_BLOCK elements at a time.  tobytes
    is the only numpy call: no ufunc, no reduction."""
    for axis in range(a.ndim):
        m = a.shape[axis]
        if m > 1:
            at = (slice(None),)*axis
            first = a[at + (slice(0, 1),)]
            if first.tobytes() == a[at + (slice(m - 1, m),)].tobytes():
                x, y = a[at + (slice(1, None),)], a[at + (slice(None, -1),)]
                rows = max(1, _TRIM_BLOCK*len(x)//max(x.size, 1))
                if all(x[i:i + rows].tobytes() == y[i:i + rows].tobytes()
                       for i in range(0, len(x), rows)):
                    a = first
    return a


# elements per copy of _trim, in blocks of x's and y's leading axis:
# 64 KB of doubles, which the allocator reuses.  On the R of a 512 x 256
# meshgrid the whole-array compare takes about 480 minor page faults and
# 1.1 ms, the blocks none and 0.14 ms (getrusage; 2-vCPU x86_64 host)
_TRIM_BLOCK = 8192


def _log_norm_sq(lv: _Level) -> float:
    """Log of the integral of F^2 + G^2 over r in natural units, in closed
    form.

    With x = 2 rho = 2 C r the integrand is 2^{-2s} x^{2s} e^{-x} (P^2 + Q^2)
    and dr = dx/(2C).  Laguerre orthogonality, int x^{a+1} e^{-x}
    [L_n^(a)]^2 dx = Gamma(n + a + 1)(2n + a + 1)/n!, and the cross term
    from L_n^(2s-1) = L_n^(2s+1) - 2 L_{n-1}^(2s+1) + L_{n-2}^(2s+1)
    (Abramowitz & Stegun, ch. 22) give, with g = n_r (n_r + 2s),

        2^{-2s-1}/C Gamma(n_r + 2s)/n_r!
            [(za^2 + (s - k)^2)(2 n_r + 2s)(g + W^2) - 8 za (s - k) W g],

    taken in logs: for large |k| the integral leaves the float range.
    """
    n_r, s = lv.n - abs(lv.k), lv.s
    g = n_r*(n_r + 2*s)
    bracket = ((lv.za*lv.za + lv.sk*lv.sk)*(2*n_r + 2*s)*(g + lv.W*lv.W)
               - 8*lv.za*lv.sk*lv.W*g)
    return (math.lgamma(n_r + 2*s) - math.lgamma(n_r + 1) + math.log(bracket)
            - (2*s + 1)*math.log(2.0) - math.log(lv.C))


def _arguments(r_au, theta, phi):
    """(shape, r, theta, phi, r_ends) of psi and density.  For one point
    shape is None and the three are Python floats (ints, numpy scalars and
    0-d arrays are converted).  Otherwise shape is the broadcast shape and
    each argument is a float array cut by _trim, except that a 0-d r, and a
    0-d theta with a 0-d phi, run as Python floats; a Python-float phi, as
    in every density_grid call, is taken as it is.  r_ends is (least r,
    greatest r) of a nonempty argument other than one point, else ().
    Raises ValueError unless r > 0 (NaN r included) and theta, phi are
    finite (_ends); empty arrays pass."""
    shape, r_ends = None, ()
    r_lo, t_lo, t_hi, p_lo, p_hi = r_au, theta, theta, phi, phi
    if not type(r_au) is type(theta) is type(phi) is float:
        import numpy as np
        r_au = np.asarray(r_au, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if type(phi) is not float:
            phi = np.asarray(phi, dtype=float)
            phi = phi if phi.ndim else float(phi)
        if r_au.ndim or theta.ndim or type(phi) is not float:
            shape = np.broadcast(r_au, theta, phi).shape
            r_au, theta = _trim(r_au), _trim(theta)
            phi = phi if type(phi) is float else _trim(phi)
        if not r_au.ndim:
            r_au = float(r_au)
        if not theta.ndim and type(phi) is float:
            theta = float(theta)
        (r_lo, r_hi), (t_lo, t_hi), (p_lo, p_hi) = map(_ends,
                                                       (r_au, theta, phi))
        if r_lo <= r_hi:
            r_ends = r_lo, r_hi
    if not r_lo > 0:
        raise ValueError("r must be > 0")
    if not (-math.inf < t_lo and t_hi < math.inf
            and -math.inf < p_lo and p_hi < math.inf):
        raise ValueError("theta and phi must be finite")
    return shape, r_au, theta, phi, r_ends


def _ends(a) -> tuple:
    """(least, greatest) value of a Python float or a float array, as
    Python floats, from np.minimum.reduce and np.maximum.reduce: NaN when a
    holds one (both propagate it), -inf or inf at the ends, and their
    identities (inf, -inf) when a is empty, so that an empty array passes
    every check of _arguments."""
    if type(a) is float:
        return a, a
    import numpy as np
    return (float(np.minimum.reduce(a, axis=None, initial=math.inf)),
            float(np.maximum.reduce(a, axis=None, initial=-math.inf)))


def _full(a, shape):
    """a as a fresh array of the broadcast shape."""
    if a.shape == shape:
        return a
    import numpy as np
    return np.broadcast_to(a, shape).copy()


class WaveFunction(Record):
    """Normalized bound-state wavefunction Psi = (A/r)(F - G N) y_up of a
    valid state qn, N = i sigma . r_hat.  Its level, A and y_up are derived
    fields; A^2 int (F^2 + G^2) dr = 1 (y_up is sphere-normalized) in the
    closed form of _log_norm_sq, whose oracle is the exact Gauss-Laguerre
    sum in verify.  Raises ValueError where A leaves the float range."""

    qn: QuantumNumbers
    level: _Level
    A: float
    spinor_upper: SpinorFunction

    # the radial tables of psi and density, built by __init__; not a
    # field, so no part of ==, hash or repr
    __slots__ = ("_tables",)

    def __init__(self, qn: QuantumNumbers):
        lv = _level(qn)
        A = math.exp(-0.5*_log_norm_sq(lv))
        d = self.__dict__
        d["qn"], d["level"], d["A"] = qn, lv, A
        d["spinor_upper"] = SpinorFunction(qn.l_upper, qn.j, qn.m_j)
        if not 0.0 < A < math.inf:          # also refuses NaN
            raise ValueError(f"normalization of n={qn.n}, k={qn.k} is out of "
                             f"the float range")
        # log A and the Laguerre steps of the radial pair
        object.__setattr__(self, "_tables", (math.log(A), tuple(_steps(lv))))

    def __reduce__(self):
        # copies and pickles carry qn alone; __init__ derives the rest
        return type(self), (self.qn,)

    @property
    def energy(self) -> float:
        return self.level.E

    @property
    def s(self) -> float:
        return self.level.s

    @property
    def C(self) -> float:
        return self.level.C

    def _radial(self, r, r_ends=()) -> tuple:
        """(f, h) at r (Bohr, > 0): f = (alpha/r) A F and h = (alpha/r) A G.
        A Python float gives Python floats, an array arrays.  r_ends, the
        least and greatest r of an array (_ends), give _radial_kernel its
        bounds: rho = C r/alpha is monotone and rounds alike on both."""
        lv = self.level
        F, G = _radial_kernel(lv, self.A, self._tables[0], lv.C*r/ALPHA_FS,
                              self._tables[1], r_ends
                              and (lv.C*r_ends[0]/ALPHA_FS,
                                   lv.C*r_ends[1]/ALPHA_FS))
        pref = ALPHA_FS/r
        return pref*F, pref*G

    def _psi(self, r, theta, phi, r_ends) -> tuple:
        """Psi's coefficients f u_i - h (N u)_i, u = y_up: _radial(r, r_ends)
        on r's axes, u and the real N u on the angles' (|sin theta| as in
        _columns), then one expression each, so that numpy reuses the
        temporaries."""
        from .biquaternion import _bq, mul
        f, h = self._radial(r, r_ends)
        u = spinor_as_biquaternion(self.spinor_upper, theta, phi)
        if type(theta) is float:
            cos, sin = math.cos, math.sin
        else:
            import numpy as np
            cos, sin = np.cos, np.sin
        s = abs(sin(theta))
        v = mul(_bq(0.0, cos(theta), s*sin(phi), s*cos(phi)), u)
        return (f*u.q0 - h*v.q0, f*u.q1 - h*v.q1, f*u.q2 - h*v.q2,
                f*u.q3 - h*v.q3)

    def psi(self, r_au, theta, phi) -> Biquaternion:
        """Wavefunction value as a biquaternion, (A/r)(F - G N) y_up.

        r (Bohr, > 0), theta and phi (finite) broadcast; array arguments
        give a biquaternion with fresh array coefficients of the broadcast
        shape, and one point gives Python complex coefficients.  Three
        Python floats stay Python floats throughout (no numpy call); ints,
        numpy scalars and 0-d arrays are converted to them first.  Each
        array argument is first cut to length 1 along every axis on which
        it is constant (a meshgrid R varies along one axis only), so F and
        G are evaluated once per distinct radius and y_up and N y_up once per
        distinct angle; only the final combination is formed at full size.
        """
        from .biquaternion import _bq
        shape, r, theta, phi, r_ends = _arguments(r_au, theta, phi)
        q = self._psi(r, theta, phi, r_ends)
        return _bq(*q) if shape is None else _bq(*[_full(c, shape) for c in q])

    def density(self, r_au, theta, phi):
        """Probability density per Bohr radius cubed, Sc(Psi conj_both(Psi)).

        r (Bohr, > 0), theta and phi (finite) broadcast.  The limit at
        r -> 0 is +inf for |k| = 1 and 0 otherwise, and r = inf gives the
        limit 0; r <= 0, NaN r and a non-finite angle raise ValueError.

        One real kernel, _density, for a point and for arrays (trimmed as
        in psi), with no Psi and no complex value; it does not depend on phi.
        """
        shape, r, theta, _, r_ends = _arguments(r_au, theta, phi)
        f, h = self._radial(r, r_ends)
        d = _density(f*f + h*h, self.spinor_upper.density(theta))
        return d if shape is None else _full(d, shape)

    def density_grid(self, r_au, theta):
        """density() on broadcastable (r, theta) arrays; it does not depend
        on phi."""
        return self.density(r_au, theta, 0.0)

    def _density_table(self, r_au: list, theta: list) -> list:
        """density_grid on every pair of r_au (Bohr, > 0) and theta, two
        lists of Python floats, r outer, as one flat list of Python floats.
        It runs node by node on Python floats whatever the process has
        imported: each entry is the bits of the point density."""
        radial = [f*f + h*h for f, h in map(self._radial, r_au)]
        angular = [self.spinor_upper.density(t) for t in theta]
        return [_density(a, b) for a in radial for b in angular]


def _density(q, b):
    """(f^2 + h^2) |y_up|^2/alpha^3 from q = f^2 + h^2 (_radial) and
    b = spinor_upper.density(theta), which is also |y_low|^2 (verify's
    spinor-parity-map).  The one expression of every route; alpha^3
    divides last, to underflow as norm_sq(psi)/alpha^3 does in far tails,
    and in place, so that a grid allocates one full-size array."""
    d = q*b
    d /= ALPHA_FS**3
    return d


def assemble_wavefunction(qn: QuantumNumbers) -> WaveFunction:
    """WaveFunction(qn), the normalized wavefunction of a valid state."""
    return WaveFunction(qn)


def _shell_rules(nodes: int, rule=leggauss) -> tuple:
    """The Gauss-Legendre rules of nodes and nodes + nodes//4 points on
    [0, 1] for probability_in_region: their nodes concatenated (both rules
    in one evaluation) and the two weight vectors, as lists of Python
    floats, from rule(n), the n-point rule on [-1, 1]."""
    (x_c, w_c), (x_f, w_f) = rule(nodes), rule(nodes + nodes//4)
    return ([0.5*(x + 1) for x in x_c + x_f], [0.5*v for v in w_c],
            [0.5*v for v in w_f])


@functools.lru_cache(maxsize=64)
def _shell_arrays(nodes: int) -> tuple:
    """_shell_rules(nodes) as read-only numpy arrays, and the least and
    greatest node as two Python floats, memoized per node count, from
    leggauss unmemoized: its memo would hold the rules twice.  They are
    also the ends of the nodes + nodes//4 rule alone, since the largest
    zero of P_n grows with n."""
    import numpy as np
    rules = _shell_rules(nodes, leggauss.__wrapped__)
    arrays = tuple(map(np.array, rules))
    for a in arrays:
        a.flags.writeable = False
    return arrays + ((min(rules[0]), max(rules[0])),)


def _shell_terms(w: WaveFunction, lo: float, hi: float, t, t_ends=()):
    """The integrand 2 (hi - lo) t (F^2 + G^2) of probability_in_region at
    r = lo + (hi - lo) t^2 (natural units), dr = 2 (hi - lo) t dt; a Python
    float t gives a Python float, an array an array, whose least and
    greatest node t_ends gives the bounds of rho: the map is monotone in t
    and rounds alike on floats and arrays."""
    lv = w.level
    rho, *bounds = [lv.C*(lo + (hi - lo)*x*x) for x in (t, *t_ends)]
    F, G = _radial_kernel(lv, w.A, w._tables[0], rho, w._tables[1], bounds)
    return 2.0*(hi - lo)*t*(F*F + G*G)


def probability_in_region(w: WaveFunction, r_lo: float, r_hi: float,
                          return_error: bool = False):
    """Probability of finding the electron in the radial shell [r_lo, r_hi].

    Radii in Bohr; r_hi may be inf.  The angular integral is exactly 1, so
    this reduces to the radial Born integral of A^2 (F^2 + G^2), done by a
    fixed Gauss-Legendre rule in t with r = lo + (hi - lo) t^2, which
    clusters the nodes at the lower end (the r^{2s} start at the origin,
    the decaying tail of an outer shell).  The value is the rule with
    N + N/4 nodes, N = max(100, 4n + 60).  The rule with N nodes runs only
    for return_error: the error estimate is its difference from the value,
    or (N + N/4) eps times the value, the rounding bound of its sum, if
    larger.  Where the value or the error leaves the float range (from
    n = 235 at k = -1, Z = 1, where the brackets overflow at the cap) this
    raises ValueError.  The nodes run as numpy arrays, under np.errstate,
    which keeps numpy's overflow warnings from that ValueError; the command
    line runs them one by one on Python floats, which agree to a few eps.
    """
    return _shell_probability(w, r_lo, r_hi, return_error, floats=False)


def _shell_probability(w: WaveFunction, r_lo: float, r_hi: float,
                       return_error: bool, floats: bool):
    """probability_in_region on Python floats if floats, else on arrays;
    the command line runs it on floats, which load no numpy."""
    if not 0.0 <= r_lo < r_hi:
        raise ValueError(f"need 0 <= r_lo < r_hi, got [{r_lo!r}, {r_hi!r}]")
    nodes = int(max(100, 4*w.qn.n + 60))
    # the cap at rho = N lies past the outermost Laguerre node (~4n); the
    # tail beyond it is < 1e-50 of the total (checked for n <= 60)
    cap = nodes/w.C
    lo, hi = float(min(r_lo/ALPHA_FS, cap)), float(min(r_hi/ALPHA_FS, cap))
    if hi <= lo:
        return (0.0, 0.0) if return_error else 0.0
    # the N-node rule, t[:nodes], serves the error estimate alone
    first = 0 if return_error else nodes
    if floats:
        t, w_c, w_f = _shell_rules(nodes)
        terms = [_shell_terms(w, lo, hi, x) for x in t[first:]]
        val = sum(map(operator.mul, w_f, terms[nodes - first:]))
        if return_error:
            coarse = sum(map(operator.mul, w_c, terms))
    else:
        import numpy as np
        t, w_c, w_f, t_ends = _shell_arrays(nodes)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = _shell_terms(w, lo, hi, t[first:], t_ends)
            val = float(np.dot(w_f, terms[nodes - first:]))
            if return_error:
                coarse = float(np.dot(w_c, terms[:nodes]))
    err = (max(abs(val - coarse), (nodes + nodes//4)*2.0**-52*val)  # eps
           if return_error else val)
    if not math.isfinite(err):          # also refuses a NaN val
        raise ValueError(f"shell probability of n={w.qn.n}, k={w.qn.k} is "
                         f"out of the float range")
    return (val, err) if return_error else val
