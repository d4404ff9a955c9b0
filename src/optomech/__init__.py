"""Nonlinear optomechanical evolution with time-dependent mechanical squeezing.

The quadratic (squeezing) sector is solved as a parametric-oscillator
problem; the nonlinear light-matter sector decouples into an ordered product
of generator exponentials whose scalar coefficients follow from quadrature.
The evolved state's moments, covariance matrix and relative-entropy
non-Gaussianity come out in closed form up to those one-dimensional
integrals, and a truncated-Fock brute-force oracle independently validates
the whole chain on small parameters.
"""

import os

# Every matrix here is small (2x2 Magnus steps, 4x4 covariances, one
# mechanical block per photon number), yet an idle OpenBLAS worker busy-waits
# beside the main thread: on 2 cores it burnt 0.05-0.18 s of CPU per CLI run,
# and in some processes a real 40x40 eigh took 16 ms instead of 0.23 ms.  With
# a timeout of 2^4 cycles idle workers sleep; the thread count stays.  Numpy
# first loads in the imports below, so the default is set here; a value the
# user set wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .decoupling import (
    DecouplingCoefficients,
    DecouplingTables,
    constant_coefficients,
    number_displacement_sq_resonant,
    resonant_coefficients,
)
from .engine import StateRecord, evaluate_point, evaluate_trajectory
from .errors import (
    ConfigError,
    ConvergenceError,
    CutoffInsufficientError,
    DomainError,
    NonFiniteError,
    OptomechError,
    SingularFactorError,
    ValidationError,
    ValidityWarning,
)
from .moments import (
    CovarianceExcess,
    CovarianceMatrix,
    InitialState,
    MomentSet,
    covariance,
    displacement_amplitudes,
    kick_overlap,
    moments,
    squeezing_frame_excess,
)
from .nongauss import (
    NonGaussianityReport,
    araki_lieb_bounds,
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
    "CovarianceExcess",
    "CovarianceMatrix",
    "CutoffInsufficientError",
    "DecouplingCoefficients",
    "DecouplingTables",
    "DomainError",
    "InitialState",
    "ModulatedSqueezing",
    "MomentSet",
    "NonFiniteError",
    "NonGaussianityReport",
    "OptomechError",
    "QuadraticSolution",
    "SingularFactorError",
    "SqueezingProfile",
    "StateRecord",
    "SystemParams",
    "TabulatedSignal",
    "ValidationError",
    "ValidityWarning",
    "araki_lieb_bounds",
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
    "number_displacement_sq_resonant",
    "resonant_coefficients",
    "rwa_mode",
    "solve_quadratic",
    "squeezing_frame_excess",
    "subsystem_eigenvalues",
    "symplectic_eigenvalues",
    "two_scale_solution",
]
