"""End-to-end evaluation pipeline.

Given system parameters and an initial coherent state, produce the
decoupling coefficients, Bogoliubov pair, moments, covariance matrix and
non-Gaussianity report on a time grid.  The coupling and drive are
constants; a static Hamiltonian (squeezing d2 or its modulation frequency
omega0 zero) takes the closed forms, and modulated squeezing runs through
the Magnus propagator and the running integrals of its solutions, on a grid
whose nodes include the output times, so both are read there by index.
Each stage runs once over the whole array of times, so a trajectory is one
record whose fields are arrays over tau.

The measure, its Araki-Lieb bounds and the subsystem eigenvalues all come
from one source, the closed-form covariance excess sigma - I in the
squeezing frame (alpha = 1, beta = 0).  The lab-frame mechanical mode is
the image of that frame's mode under the Bogoliubov map (alpha, beta), a
local Gaussian unitary, so both frames share their symplectic spectrum; but
the lab-frame entries grow like |beta|^2 under parametric resonance, and the
closed form keeps each squeezing-frame entry free of differences of large
moments.  The lab-frame moments are what the CLI reports; the lab-frame
covariance stays on the record.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .decoupling import (
    DecouplingCoefficients,
    DecouplingTables,
    constant_coefficients,
)
from .errors import NonFiniteError
from .moments import (
    InitialState,
    MomentSet,
    covariance,
    moments,
    squeezing_frame_excess,
)
from .nongauss import NonGaussianityReport, non_gaussianity
from .profiles import SystemParams
from .squeezing import constant_bogoliubov, solve_quadratic


class StateRecord(NamedTuple):
    """Everything the pipeline knows about the state, at one time or as
    arrays over a grid of times (``covariance`` then has shape (n, 4, 4)).
    ``tau`` is the one copy of the times."""

    tau: float
    coeffs: DecouplingCoefficients
    alpha: complex
    beta: complex
    moments: MomentSet
    covariance: np.ndarray
    report: NonGaussianityReport


def evaluate_trajectory(system: SystemParams, init: InitialState, taus) -> StateRecord:
    """Evaluate the full pipeline at the requested times, all at once; a 0-d
    ``taus`` gives scalar fields."""
    taus = np.asarray(taus, dtype=float)
    if np.any(taus < 0.0):
        raise ValueError("times must be non-negative")

    # past the float range the stages overflow in many places at once; the
    # check at the end reports it once, as NonFiniteError
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # these scale functions that vanish at tau = 0, where inf * 0 would
        # fault the finite initial state, so they are refused by name first
        g, d1 = system.coupling
        for name, value in (("g0^2", np.square(g)), ("|mu_c|^2", np.abs(init.mu_c) ** 2),
                            ("g0*d1", np.multiply(g, d1))):
            if not np.all(np.isfinite(value)):
                raise NonFiniteError(f"{name} overflows the float range")
        if system.is_time_independent:
            d2 = system.squeezing.d2
            coeffs = constant_coefficients(g, d2, taus, d1=d1)
            alpha, beta = constant_bogoliubov(d2, taus)
        else:
            sol = solve_quadratic(system.squeezing, taus)
            coeffs = DecouplingTables(sol, system.coupling).at(taus)
            alpha, beta = sol.bogoliubov(taus)
            del sol  # the grid-sized solution is not needed past this point

        m = moments(coeffs, alpha, beta, init)
        report = non_gaussianity(
            squeezing_frame_excess(coeffs, m),
            number_displacement=coeffs.number_displacement,
            mu_c=init.mu_c,
        )
        # finite entropies imply finite eigenvalues and a finite delta_min
        finite = np.isfinite(m.a) & np.isfinite(report.delta) & np.isfinite(report.delta_max)
        if not np.all(finite):
            first = np.atleast_1d(taus)[np.argmin(np.atleast_1d(finite))]
            raise NonFiniteError(f"non-finite moments or measure, first at tau = {first:.17g}")
        return StateRecord(taus, coeffs, alpha, beta, m, covariance(m), report)


def evaluate_point(system: SystemParams, init: InitialState, tau: float) -> StateRecord:
    """:func:`evaluate_trajectory` at one time, with scalar fields."""
    return evaluate_trajectory(system, init, float(tau))

