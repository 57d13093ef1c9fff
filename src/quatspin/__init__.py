"""Biquaternion algebra, spin-1/2 representation, and the relativistic one-electron atom.

Everything is built on one value type, the complex-coefficient quaternion
(biquaternion), and every algebraic identity the package relies on is
cross-checked against an independent 2x2 complex-matrix representation.
"""

from .biquaternion import (
    Biquaternion,
    E0,
    E1,
    E2,
    E3,
    mul,
    decompose,
    conj_vec,
    conj_complex,
    conj_both,
    norm_sq,
    quadratic_form,
    inverse,
    is_zero_divisor,
    allclose,
)
from .matrices import (
    to_matrix_linear,
    to_matrix_paper,
    to_matrix_ks,
    from_matrix,
    ket_to_vector,
    bra_to_vector,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    IDENTITY2,
)
from .spin import (
    HBAR,
    SpinState,
    SpinOperator,
    RotationOperator,
    pauli_quaternion,
    spin_operator,
    spin_up,
    spin_down,
    superposition,
    apply,
    bra,
    inner,
    outer,
    outer_reconstruct,
    rotation,
    dagger,
    rotate_operator,
    rotated_pauli,
    ladder,
)
from .special import (
    laguerre,
    spherical_harmonic,
    quadrature_sphere,
)
from .spinor import (
    SpinorFunction,
    clebsch_coefficients,
    spinor_as_vector,
    spinor_as_biquaternion,
    measure_probability,
)
from .hydrogen import (
    ALPHA_FS,
    MC2_EV,
    QuantumNumbers,
    WaveFunction,
    sommerfeld_energy,
    energy,
    energy_ev,
    binding_energy_ev,
    radial_parameters,
    radial_F,
    radial_G,
    ode_residual,
    system_residual,
    shoot_eigenvalue,
    assemble_wavefunction,
    probability_in_region,
)
from .pauli_dirac import (
    PauliAlgebraElement,
    DiracMatrix,
    embed,
    pauli_element_matrix,
    hodge,
    gamma,
    verify_clifford,
)
from . import verify

__all__ = [
    "Biquaternion", "E0", "E1", "E2", "E3",
    "mul", "decompose", "conj_vec", "conj_complex", "conj_both",
    "norm_sq", "quadratic_form", "inverse", "is_zero_divisor", "allclose",
    "to_matrix_linear", "to_matrix_paper", "to_matrix_ks", "from_matrix",
    "ket_to_vector", "bra_to_vector",
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "IDENTITY2",
    "HBAR", "SpinState", "SpinOperator", "RotationOperator",
    "pauli_quaternion", "spin_operator", "spin_up", "spin_down", "superposition",
    "apply", "bra", "inner", "outer", "outer_reconstruct",
    "rotation", "dagger", "rotate_operator", "rotated_pauli", "ladder",
    "laguerre", "spherical_harmonic", "quadrature_sphere",
    "SpinorFunction", "clebsch_coefficients", "spinor_as_vector",
    "spinor_as_biquaternion", "measure_probability",
    "ALPHA_FS", "MC2_EV", "QuantumNumbers", "WaveFunction",
    "sommerfeld_energy", "energy", "energy_ev", "binding_energy_ev",
    "radial_parameters", "radial_F", "radial_G",
    "ode_residual", "system_residual", "shoot_eigenvalue",
    "assemble_wavefunction", "probability_in_region",
    "PauliAlgebraElement", "DiracMatrix", "embed", "pauli_element_matrix",
    "hodge", "gamma", "verify_clifford",
    "verify",
]

__version__ = "0.1.0"
