"""Biquaternion algebra, spin-1/2 representation, and the relativistic one-electron atom.

Everything is built on one value type, the complex-coefficient quaternion
(biquaternion), and every algebraic identity the package relies on is
cross-checked against an independent 2x2 complex-matrix representation.

Importing the package loads no submodule: a public name (or a submodule)
is imported on first access, so code that uses only the spin-1/2 algebra
or the level energies never loads numpy.
"""

import importlib

# submodule -> the public names it defines, in the order of __all__
_EXPORTS = {
    "biquaternion": (
        "Biquaternion", "E0", "E1", "E2", "E3", "mul", "decompose",
        "conj_vec", "conj_complex", "conj_both", "norm_sq", "quadratic_form",
        "inverse", "is_zero_divisor", "allclose"),
    "matrices": (
        "to_matrix_linear", "to_matrix_paper", "to_matrix_ks", "from_matrix",
        "ket_to_vector", "bra_to_vector",
        "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "IDENTITY2"),
    "spin": (
        "HBAR", "SpinState", "RotationOperator",
        "pauli_quaternion", "spin_operator", "spin_up", "spin_down",
        "superposition", "apply", "bra", "inner", "outer",
        "outer_reconstruct", "rotation", "dagger", "rotate_operator",
        "rotated_pauli", "ladder"),
    "special": ("laguerre", "spherical_harmonic", "quadrature_sphere"),
    "spinor": (
        "SpinorFunction", "clebsch_coefficients", "spinor_as_vector",
        "spinor_as_biquaternion", "measure_probability"),
    "levels": (
        "ALPHA_FS", "MC2_EV", "QuantumNumbers", "sommerfeld_energy",
        "energy", "binding_energy_ev", "radial_parameters"),
    "hydrogen": (
        "WaveFunction", "assemble_wavefunction", "probability_in_region"),
    "pauli_dirac": (
        "PauliAlgebraElement", "DiracMatrix", "embed",
        "pauli_element_matrix", "hodge", "gamma", "verify_clifford"),
    "verify": ("shoot_eigenvalue",),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = [*_HOME, "verify"]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                    name)
    globals()[name] = value         # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
