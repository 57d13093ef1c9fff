"""The level record: one home for s, E, 1 - E, C, s - k and W."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from quatspin import hydrogen as hy, verify
from quatspin.levels import (
    ALPHA_FS, MC2_EV, QuantumNumbers, _is_int, _level, binding_energy_ev,
    energy, radial_parameters, sommerfeld_energy,
)


def _states():
    """n <= 60, the k strata {+-1, +-n/2, -n} where valid, Z in {1, 20, 92}."""
    for n in range(1, 61):
        ks = {k for k in (1, -1, n//2, -(n//2), -n)
              if k and abs(k) <= n and not (k == n and k > 0)}
        for k in sorted(ks):
            for Z in (1, 20, 92):
                yield QuantumNumbers(n, k, 0.5, Z)


def _bits(values):
    return [v if isinstance(v, int) else float(v).hex() for v in values]


def test_fields_are_the_inline_expressions_bitwise():
    count = 0
    for qn in _states():
        n, k, Z = qn.n, qn.k, qn.Z
        # the expressions the radial functions used to evaluate inline
        za = Z*ALPHA_FS
        s = math.sqrt(k*k - za*za)
        E = sommerfeld_energy(n, k, Z)
        W = (s - k*E)/math.sqrt(1.0 - E*E)
        want = (n, k, za, s, E, 1.0 - E, math.sqrt(1.0 - E*E), s - k, W)
        lv = _level(qn)
        assert _bits(lv) == _bits(want), qn
        # the binding energy E - 1 is -eps, bitwise, in either unit
        for scale in (1.0, MC2_EV):
            assert (-lv.eps*scale).hex() == ((E - 1.0)*scale).hex()
        count += 1
    assert count > 700


def test_explicit_energy_is_the_off_shell_probe():
    qn = QuantumNumbers(3, -2, 0.5, 20)
    E = energy(qn)*(1 + 1e-7)
    lv = _level(qn, E)
    assert lv.E == E and lv.eps == 1.0 - E
    assert lv.C == math.sqrt(1.0 - E*E)
    assert lv.W == (lv.s - qn.k*E)/lv.C
    assert lv.s == _level(qn).s


def test_consumers_read_the_record():
    for qn in (QuantumNumbers(1, -1), QuantumNumbers(7, 3, 0.5, 20),
               QuantumNumbers(40, -40, 0.5, 92)):
        lv = _level(qn)
        assert radial_parameters(qn) == (lv.s, lv.C, lv.C/ALPHA_FS)
        assert binding_energy_ev(qn) == -lv.eps*MC2_EV
        w = hy.assemble_wavefunction(qn)
        assert w.level == lv
        assert (w.energy, w.s, w.C) == (lv.E, lv.s, lv.C)


@pytest.mark.parametrize("E", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_energy_outside_the_bound_range_raises(E):
    qn = QuantumNumbers(2, -1)
    msg = "bound state requires 0 < E < mc"
    with pytest.raises(ValueError, match=msg):
        _level(qn, E)
    with pytest.raises(ValueError, match=msg):
        verify.ode_residual(qn, E, [1.0, 2.0])
    with pytest.raises(ValueError, match=msg):
        verify.system_residual(qn, E, lambda r: (abs(r), abs(r)), [1.0, 2.0])


@pytest.mark.parametrize("value", [
    3, 3.0, np.int64(3), np.int32(3), np.float64(3.0), np.float32(3.0),
    Fraction(3), Fraction(6, 2)])
def test_integral_numbers_of_any_real_type_are_integers(value):
    assert _is_int(value)
    assert QuantumNumbers(value, -1, 0.5, value).n == 3


@pytest.mark.parametrize("value", [
    True, False, np.bool_(True), math.nan, math.inf, -math.inf,
    np.float64("nan"), np.float64("inf"), 3.5, Fraction(7, 2),
    np.float64(3.5), 3 + 0j, Decimal(3), "3", None])
def test_bools_non_finite_and_fractional_values_are_not_integers(value):
    assert not _is_int(value)
    with pytest.raises(ValueError, match="n must be a positive integer"):
        QuantumNumbers(value, -1)
