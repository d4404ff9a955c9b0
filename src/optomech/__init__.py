"""Nonlinear optomechanical evolution with time-dependent mechanical squeezing.

The quadratic (squeezing) sector is solved as a parametric-oscillator
problem; the nonlinear light-matter sector decouples into an ordered product
of generator exponentials whose scalar coefficients follow from quadrature.
The evolved state's moments, covariance matrix and relative-entropy
non-Gaussianity come out in closed form up to those one-dimensional
integrals, and a truncated-Fock brute-force oracle independently validates
the whole chain on small parameters.
"""

from .decoupling import (
    DecouplingCoefficients,
    DecouplingTables,
    constant_coefficients,
    number_displacement_sq_constant,
    number_displacement_sq_resonant,
    resonant_coefficients,
)
from .engine import StateRecord, evaluate_point, evaluate_trajectory, quadrature_trajectory
from .errors import (
    ConfigError,
    ConvergenceError,
    CutoffInsufficientError,
    DomainError,
    OptomechError,
    SingularFactorError,
    UnsupportedRegimeError,
    ValidationError,
    ValidityWarning,
)
from .moments import (
    CovarianceMatrix,
    InitialState,
    MomentSet,
    covariance,
    displacement_amplitudes,
    kick_overlap,
    moments,
)
from .nongauss import (
    NonGaussianityReport,
    araki_lieb_bounds,
    classify_regime,
    mode_entropy,
    non_gaussianity,
    subsystem_eigenvalues,
    symplectic_eigenvalues,
)
from .profiles import (
    ConstantSqueezing,
    Coupling,
    ModulatedSqueezing,
    SqueezingProfile,
    SystemParams,
    TabulatedSignal,
)
from .squeezing import (
    QuadraticSolution,
    constant_bogoliubov,
    constant_solution,
    mathieu_params,
    rwa_mode,
    solve_quadratic,
    two_scale_solution,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConstantSqueezing",
    "ConvergenceError",
    "Coupling",
    "CovarianceMatrix",
    "CutoffInsufficientError",
    "DecouplingCoefficients",
    "DecouplingTables",
    "DomainError",
    "InitialState",
    "ModulatedSqueezing",
    "MomentSet",
    "NonGaussianityReport",
    "OptomechError",
    "QuadraticSolution",
    "SingularFactorError",
    "SqueezingProfile",
    "StateRecord",
    "SystemParams",
    "TabulatedSignal",
    "UnsupportedRegimeError",
    "ValidationError",
    "ValidityWarning",
    "araki_lieb_bounds",
    "classify_regime",
    "constant_bogoliubov",
    "constant_coefficients",
    "constant_solution",
    "covariance",
    "displacement_amplitudes",
    "evaluate_point",
    "evaluate_trajectory",
    "kick_overlap",
    "mathieu_params",
    "mode_entropy",
    "moments",
    "non_gaussianity",
    "number_displacement_sq_constant",
    "number_displacement_sq_resonant",
    "quadrature_trajectory",
    "resonant_coefficients",
    "rwa_mode",
    "solve_quadratic",
    "subsystem_eigenvalues",
    "symplectic_eigenvalues",
    "two_scale_solution",
]
