"""Accuracy sentinels: deterministic, untimed, computed in-process.

Every sentinel is lower-is-better.  Each reports ``max(measured, FLOOR)``:
the floor is the level at which the project treats the quantity as exact
(ROADMAP item 2's target for the g = 0 measure; a tenth of criterion c06's
1e-9 sandwich slack; a thousandth of the oracle's 1e-3 tolerance; a
relative Bogoliubov residual two orders above the solver's rtol).  Below it
the value is rounding noise, and a benchmark bound on noise would refuse
correct changes.  The unfloored value is kept in the run context.
"""

from __future__ import annotations

import math

import numpy as np

from optomech import (
    ConstantSqueezing,
    Coupling,
    InitialState,
    ModulatedSqueezing,
    OptomechError,
    SystemParams,
    evaluate_point,
    fock,
    solve_quadratic,
)

FLOOR = {
    "acc.g0_delta_20pi": 1e-10,
    "acc.g0_delta_30pi": 1e-10,
    "acc.bogoliubov_rel_residual_60pi": 1e-8,
    "acc.al_slack_c06": 1e-10,
    "acc.oracle_rel_err_c07": 1e-6,
}
UNIT = {
    "acc.g0_delta_20pi": "nats",
    "acc.g0_delta_30pi": "nats",
    "acc.bogoliubov_rel_residual_60pi": "ratio",
    "acc.al_slack_c06": "nats",
    "acc.oracle_rel_err_c07": "ratio",
}
MOMENTS = ("a", "b", "a2", "b2", "na", "nb", "ab", "ab_dag")
_INIT = InitialState(1.0, 0.0)


def g0_delta(tau: float) -> float:
    """The measure of a Gaussian evolution (g = 0); it should be 0."""
    system = SystemParams(1.0, Coupling(g=0.0), ModulatedSqueezing(0.1, 2.0))
    return float(evaluate_point(system, _INIT, tau).report.delta)


def bogoliubov_rel_residual(tau_max: float) -> float:
    """max over the grid of ||alpha|^2 - |beta|^2 - 1| / (|alpha|^2 + |beta|^2)."""
    sol = solve_quadratic(ModulatedSqueezing(0.1, 2.0), tau_max)
    alpha, beta = sol.bogoliubov(sol.tau)
    a2, b2 = np.abs(alpha) ** 2, np.abs(beta) ** 2
    return float(np.max(np.abs(a2 - b2 - 1.0) / (a2 + b2)))


def al_slack_c06() -> float:
    """Worst Araki-Lieb sandwich violation on the criterion-c06 grid (0 if none)."""
    worst = 0.0
    for g0 in np.linspace(0.1, 3.0, 10):
        for d2 in np.linspace(0.0, 2.0, 10):
            system = SystemParams(1.0, Coupling(g=g0), ConstantSqueezing(d2))
            for tau in np.linspace(2 * math.pi / 5, 2 * math.pi, 5):
                r = evaluate_point(system, _INIT, tau).report
                worst = max(worst, float(r.delta_min - r.delta), float(r.delta - r.delta_max))
    return worst


def oracle_rel_err_c07() -> float:
    """Worst relative moment error, analytic vs Fock, at the c07 point."""
    system = SystemParams(1.0, Coupling(g=0.5), ConstantSqueezing(0.3))
    tau = math.pi / 2
    rec = evaluate_point(system, _INIT, tau)
    final = fock.evolve(fock.product_coherent(_INIT, 16, 48), system, tau)
    measured = fock.measure_moments(final, system.omega_c, tau)
    worst = 0.0
    for name in MOMENTS:
        ana, orc = complex(getattr(rec.moments, name)), complex(getattr(measured, name))
        worst = max(worst, abs(ana - orc) / max(abs(orc), 1e-6))
    return worst


SENTINELS = {
    "acc.g0_delta_20pi": lambda: g0_delta(20 * math.pi),
    "acc.g0_delta_30pi": lambda: g0_delta(30 * math.pi),
    "acc.bogoliubov_rel_residual_60pi": lambda: bogoliubov_rel_residual(60 * math.pi),
    "acc.al_slack_c06": al_slack_c06,
    "acc.oracle_rel_err_c07": oracle_rel_err_c07,
}


def measure() -> tuple[dict[str, float], dict[str, str]]:
    """Unfloored sentinel values, and the errors behind any infinite ones.

    These are all valid inputs, so the program refusing one is the worst
    accuracy there is: it reads as infinite.
    """
    values, errors = {}, {}
    for name, sentinel in SENTINELS.items():
        try:
            values[name] = sentinel()
        except OptomechError as exc:
            values[name], errors[name] = math.inf, f"{type(exc).__name__}: {exc}"
    return values, errors


def reported(raw: dict[str, float]) -> dict[str, float]:
    return {name: max(value, FLOOR[name]) for name, value in raw.items()}
