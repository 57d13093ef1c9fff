"""The value-type contract shared by the nine record types: construction by
position and keyword with defaults, the Name(field=value, ...) repr with
derived fields, == and hash on the field tuple within one class, no
assignment or deletion, and pickle/copy/deepcopy round-trips."""

import copy
import math
import pickle

import pytest

from quatspin.biquaternion import Biquaternion
from quatspin.hydrogen import WaveFunction, assemble_wavefunction
from quatspin.levels import QuantumNumbers
from quatspin.pauli_dirac import DiracMatrix, PauliAlgebraElement, gamma
from quatspin.spin import RotationOperator, SpinState, rotation, spin_up
from quatspin.spinor import SpinorFunction
from quatspin.verify import CheckResult

_UP = "Biquaternion((0.7071067811865476+0j), -0.7071067811865476j, 0j, 0j)"

# (a factory that builds a fresh value, its repr)
CASES = {
    "QuantumNumbers": (lambda: QuantumNumbers(2, -1),
                       "QuantumNumbers(n=2, k=-1, m_j=0.5, Z=1)"),
    "Biquaternion": (lambda: Biquaternion(1, 2.5j),
                     "Biquaternion((1+0j), 2.5j, 0j, 0j)"),
    "SpinState": (spin_up, f"SpinState(value={_UP})"),
    "RotationOperator": (
        lambda: rotation("z", 0.5),
        "RotationOperator(axis=(0.0, 0.0, 1.0), angle=0.5, "
        "value=Biquaternion((0.9689124217106447+0j), "
        "(-0.24740395925452294+0j), (-0+0j), (-0+0j)))"),
    "SpinorFunction": (
        lambda: SpinorFunction(1, 0.5, -0.5),
        "SpinorFunction(l=1, j=0.5, m_j=-0.5, c1=-0.816496580927726, "
        "c2=0.5773502691896257)"),
    "PauliAlgebraElement": (
        lambda: PauliAlgebraElement(1.0, q7=2.0),
        "PauliAlgebraElement(q0=1.0, q1=0.0, q2=0.0, q3=0.0, q4=0.0, "
        "q5=0.0, q6=0.0, q7=2.0)"),
    "DiracMatrix": (
        lambda: DiracMatrix(gamma(1).blocks),
        "DiracMatrix(blocks=((Biquaternion(0j, 0j, 0j, 0j), "
        "Biquaternion((-0-0j), (-0-1j), (-0-0j), (-0-0j))), "
        "(Biquaternion(0j, 1j, 0j, 0j), Biquaternion(0j, 0j, 0j, 0j))))"),
    "CheckResult": (
        lambda: CheckResult("hamilton-table", "algebra", 0.0, 1e-15),
        "CheckResult(name='hamilton-table', suite='algebra', max_dev=0.0, "
        "tol=1e-15, passed=True, detail='')"),
}


def _wavefunction():
    return assemble_wavefunction(QuantumNumbers(2, 1, 0.5, 20))


def test_wavefunction_repr():
    w = _wavefunction()
    assert repr(w.spinor_upper) == (
        "SpinorFunction(l=1, j=0.5, m_j=0.5, c1=-0.5773502691896257, "
        "c2=0.816496580927726)")
    assert repr(w) == (
        f"WaveFunction(qn=QuantumNumbers(n=2, k=1, m_j=0.5, Z=20), "
        f"level={w.level!r}, A={w.A!r}, spinor_upper={w.spinor_upper!r})")


ALL = {**{name: make for name, (make, _) in CASES.items()},
       "WaveFunction": _wavefunction}


@pytest.mark.parametrize("name", list(CASES))
def test_repr(name):
    make, text = CASES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", list(ALL))
def test_equality_and_hash(name):
    a, b = ALL[name](), ALL[name]()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert a != object() and a != tuple(vars(a).values())
    assert len({a, b}) == 1


def test_equality_is_on_the_fields():
    fields = {name: tuple(vars(make()).values()) for name, make in ALL.items()
              if name != "Biquaternion"}
    for name, key in fields.items():
        assert hash(ALL[name]()) == hash(key)
    assert QuantumNumbers(2, -1) != QuantumNumbers(2, -1, -0.5)
    assert SpinorFunction(1, 0.5, 0.5) != SpinorFunction(1, 1.5, 0.5)
    assert rotation("z", 0.5) != rotation("x", 0.5)
    # Biquaternion compares its coefficients, and hashes their tuple
    assert hash(Biquaternion(1, 2.5j)) == hash(((1+0j), 2.5j, 0j, 0j))
    assert Biquaternion(1) == Biquaternion(1.0, 0, 0, 0)
    assert Biquaternion(1) != Biquaternion(1, 1e-300)


@pytest.mark.parametrize("name", list(ALL))
def test_frozen(name):
    value = ALL[name]()
    field = next(iter(vars(value)))
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == ALL[name]()


@pytest.mark.parametrize("name", list(ALL))
def test_pickle_and_copy_round_trip(name):
    value = ALL[name]()
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                 copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)
        with pytest.raises(AttributeError):
            setattr(twin, next(iter(vars(value))), 0)


def test_keyword_construction_and_defaults():
    assert QuantumNumbers(n=2, k=-1) == QuantumNumbers(2, -1, 0.5, 1)
    assert QuantumNumbers(3, k=2, Z=20, m_j=-1.5).Z == 20
    assert Biquaternion() == Biquaternion(0, 0, 0, 0)
    assert Biquaternion(q2=1).coefficients() == (0j, 0j, 1+0j, 0j)
    assert SpinState(value=spin_up().value) == spin_up()
    r = RotationOperator(axis=(0.0, 0.0, 1.0), angle=0.5)
    assert r == rotation("z", 0.5)
    assert SpinorFunction(m_j=-0.5, j=0.5, l=1) == SpinorFunction(1, 0.5, -0.5)
    assert PauliAlgebraElement() == PauliAlgebraElement(*[0.0]*8)
    assert PauliAlgebraElement(q7=2.0, q0=1.0) == CASES[
        "PauliAlgebraElement"][0]()
    d = DiracMatrix(blocks=gamma(1).blocks)
    assert d == gamma(1)
    c = CheckResult(name="x", suite="s", max_dev=0.0, tol=1.0)
    assert c.detail == "" and c == CheckResult("x", "s", 0.0, 1.0, "")
    # passed is derived from max_dev and tol; a NaN deviation fails
    assert c.passed is True
    assert CheckResult("x", "s", 2.0, 1.0).passed is False
    assert CheckResult("x", "s", math.nan, 1.0).passed is False
    w = _wavefunction()
    assert WaveFunction(qn=w.qn) == WaveFunction(w.qn) == w
    for twin in (copy.copy(w), pickle.loads(pickle.dumps(w))):
        assert WaveFunction(twin.qn) == twin == w


def test_construction_errors():
    with pytest.raises(TypeError):
        QuantumNumbers(2)                       # k is required
    with pytest.raises(TypeError):
        QuantumNumbers(2, -1, 0.5, 1, 0)        # too many arguments
    with pytest.raises(TypeError):
        QuantumNumbers(2, -1, n=2)              # n twice
    with pytest.raises(TypeError):
        QuantumNumbers(2, -1, spin=0.5)         # no such field
    with pytest.raises(TypeError):              # derived fields are not
        SpinorFunction(1, 0.5, 0.5, c1=1.0)     # constructor arguments
    with pytest.raises(TypeError):
        CheckResult("x", "s", 0.0, 1.0, passed=True)
    w = _wavefunction()
    with pytest.raises(TypeError):
        WaveFunction(w.qn, w.level)
    with pytest.raises(TypeError):
        RotationOperator((0.0, 0.0, 1.0), 0.5, Biquaternion(1))
    # validation runs on every construction path
    with pytest.raises(ValueError):
        QuantumNumbers(n=1, k=1)
    with pytest.raises(ValueError):
        SpinState(value=Biquaternion(2))
    with pytest.raises(ValueError):
        RotationOperator(axis=(1.0, 1.0, 0.0), angle=0.5)
    with pytest.raises(ValueError):
        SpinorFunction(l=1, j=2.5, m_j=0.5)
