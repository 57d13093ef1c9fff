"""Settings and references shared by the test modules.

Hypothesis draws the same examples on every run (derandomize) and keeps no
example database, so a pass or a failure of the tier-1 run repeats.
"""

import types

import pytest
from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def exact():
    """50-digit mpmath references of a level's radial pair.

    brackets(lv, x) gives the Laguerre brackets (P, Q) of hydrogen._brackets
    at one x, and log_norm_sq(lv) the closed-form log of the integral of
    F^2 + G^2 over r (hydrogen._log_norm_sq).  The record's floats (za, s,
    sk, W, C) are taken as exact, so the references measure the rounding
    of the float routes, not the digits of the level itself.  mpmath is
    imported here, so that no import of quatspin sees it.
    """
    import mpmath

    def brackets(lv, x):
        with mpmath.workdps(50):
            n_r, s, x = lv.n - abs(lv.k), mpmath.mpf(lv.s), mpmath.mpf(x)
            za, sk, W = map(mpmath.mpf, (lv.za, lv.sk, lv.W))
            L1 = mpmath.laguerre(n_r - 1, 2*s + 1, x) if n_r else 0
            L2 = mpmath.laguerre(n_r, 2*s - 1, x)
            return +(za*x*L1 + sk*W*L2), +(sk*x*L1 + za*W*L2)

    def log_norm_sq(lv):
        with mpmath.workdps(50):
            n_r, s = lv.n - abs(lv.k), mpmath.mpf(lv.s)
            za, sk, W, C = map(mpmath.mpf, (lv.za, lv.sk, lv.W, lv.C))
            g = n_r*(n_r + 2*s)
            bracket = ((za**2 + sk**2)*(2*n_r + 2*s)*(g + W**2)
                       - 8*za*sk*W*g)
            return +(mpmath.loggamma(n_r + 2*s) - mpmath.loggamma(n_r + 1)
                     + mpmath.log(bracket) - (2*s + 1)*mpmath.log(2)
                     - mpmath.log(C))

    return types.SimpleNamespace(brackets=brackets, log_norm_sq=log_norm_sq)
