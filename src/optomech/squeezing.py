"""Quadratic (squeezing) sector of the dynamics.

The mechanical quadratic Hamiltonian reduces to the parametric-oscillator
equation u'' + omega_sq(tau) * u = 0 with omega_sq = 1 + 4*D2(tau).  This
module produces its cosine-like solution (u(0)=1, u'(0)=0) and sine-like
solution (u(0)=0, u'(0)=1) on a dense grid, together with the complex mode
function and the Bogoliubov coefficients of the induced Gaussian evolution.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._interp import hermite_eval
from .errors import (
    DomainError,
    SingularFactorError,
    UnsupportedRegimeError,
    ValidityWarning,
)
from .profiles import ConstantSqueezing, SqueezingProfile

# Grid defaults: the fastest oscillation must stay well resolved because the
# decoupling quadrature reuses this grid.
_SAMPLES_PER_UNIT = 256.0
_MIN_SAMPLES_PER_UNIT = 16.0
_MIN_POINTS = 4096

_SPAN_SLACK = 1e-9


def oscillation_rate(profile: SqueezingProfile, tau_max: float) -> float:
    """Effective angular rate sqrt(1 + 4*max|D2|) used to size grids."""
    return float(np.sqrt(1.0 + 4.0 * profile.max_abs(tau_max)))


def zeta(d2: float) -> float:
    """Oscillation frequency sqrt(1 + 4*d2) of the constant-squeezing sector."""
    arg = 1.0 + 4.0 * d2
    if arg <= 0.0:
        raise UnsupportedRegimeError(
            f"constant squeezing d2={d2:g} gives a non-oscillatory sector (1 + 4*d2 <= 0)"
        )
    return float(np.sqrt(arg))


@dataclass(frozen=True, eq=False)
class QuadraticSolution:
    """Sampled fundamental solutions of the quadratic sector.

    ``cos_sol``/``sin_sol`` carry the cosine-like and sine-like solutions,
    ``cos_deriv``/``sin_deriv`` their derivatives, ``omega_sq`` the squared
    frequency 1 + 4*D2 on the grid, and ``omega_cos_integral`` the
    co-integrated quantity J = integral of omega_sq * cos_sol, which closes
    the symplectic identity cos_sol * sin_deriv + sin_sol * J = 1.
    """

    tau: np.ndarray
    cos_sol: np.ndarray
    cos_deriv: np.ndarray
    sin_sol: np.ndarray
    sin_deriv: np.ndarray
    omega_sq: np.ndarray
    omega_cos_integral: np.ndarray
    profile: SqueezingProfile

    @property
    def step(self) -> float:
        return float(self.tau[1] - self.tau[0])

    @property
    def tau_max(self) -> float:
        return float(self.tau[-1])

    def _check_span(self, tau) -> None:
        t = np.asarray(tau, dtype=float)
        if np.any(t < -_SPAN_SLACK) or np.any(t > self.tau_max + _SPAN_SLACK):
            raise DomainError(
                f"tau outside the solved span [0, {self.tau_max:g}]"
            )

    def mode(self, tau):
        """Complex mode function cos_sol(tau) - i * sin_sol(tau)."""
        self._check_span(tau)
        c = hermite_eval(self.step, self.cos_sol, self.cos_deriv, tau)
        s = hermite_eval(self.step, self.sin_sol, self.sin_deriv, tau)
        return c - 1j * s

    def mode_deriv(self, tau):
        """Derivative of the mode function, interpolated from stored derivative
        channels (their own derivatives follow from the equation of motion)."""
        self._check_span(tau)
        dc = hermite_eval(self.step, self.cos_deriv, -self.omega_sq * self.cos_sol, tau)
        ds = hermite_eval(self.step, self.sin_deriv, -self.omega_sq * self.sin_sol, tau)
        return dc - 1j * ds

    def bogoliubov(self, tau):
        """Bogoliubov coefficients (alpha, beta) of the quadratic evolution."""
        xi = self.mode(tau)
        dxi = self.mode_deriv(tau)
        alpha = 0.5 * (xi + 1j * dxi)
        beta = 0.5 * (np.conj(xi) + 1j * np.conj(dxi))
        return alpha, beta

    def identity_residual(self) -> np.ndarray:
        """|cos_sol * sin_deriv + sin_sol * J - 1| on the grid."""
        return np.abs(
            self.cos_sol * self.sin_deriv + self.sin_sol * self.omega_cos_integral - 1.0
        )

    def bogoliubov_residual(self) -> np.ndarray:
        """| |alpha|^2 - |beta|^2 - 1 | on the grid."""
        xi = self.cos_sol - 1j * self.sin_sol
        dxi = self.cos_deriv - 1j * self.sin_deriv
        alpha = 0.5 * (xi + 1j * dxi)
        beta = 0.5 * (np.conj(xi) + 1j * np.conj(dxi))
        return np.abs(np.abs(alpha) ** 2 - np.abs(beta) ** 2 - 1.0)


def _grid(tau_max: float, resolution: float) -> np.ndarray:
    n = max(int(np.ceil(resolution * tau_max)) + 1, _MIN_POINTS)
    return np.linspace(0.0, tau_max, n)


def solve_quadratic(
    profile: SqueezingProfile,
    tau_max: float,
    resolution: float | None = None,
    *,
    method: str = "auto",
    rtol: float = 1e-10,
    atol: float = 1e-10,
) -> QuadraticSolution:
    """Solve the quadratic sector on [0, tau_max].

    Parameters
    ----------
    profile:
        Squeezing profile D2(tau).
    tau_max:
        End of the solved span; must be positive.
    resolution:
        Samples per unit tau.  Defaults to 256 per unit of the effective
        oscillation rate, with a floor of 4096 total points.
    method:
        "auto" uses the closed form for constant profiles and an adaptive
        integrator otherwise; "numeric" forces the integrator (useful as an
        independent cross-check of the closed form).
    """
    if tau_max <= 0.0:
        raise DomainError("tau_max must be positive")
    profile.require_span(tau_max)

    rate = oscillation_rate(profile, tau_max)
    if isinstance(profile, ConstantSqueezing):
        zeta(profile.d2)  # reject the inverted-potential regime up front
    if resolution is None:
        resolution = _SAMPLES_PER_UNIT * rate
    elif resolution < _MIN_SAMPLES_PER_UNIT * rate:
        raise ValueError(
            f"resolution {resolution:g} under-resolves the fastest oscillation "
            f"(minimum {_MIN_SAMPLES_PER_UNIT * rate:g} samples per unit tau)"
        )
    grid = _grid(tau_max, resolution)

    if method == "auto" and isinstance(profile, ConstantSqueezing):
        z = zeta(profile.d2)
        zt = z * grid
        cos_sol = np.cos(zt)
        sin_sol = np.sin(zt) / z
        return QuadraticSolution(
            tau=grid,
            cos_sol=cos_sol,
            cos_deriv=-z * np.sin(zt),
            sin_sol=sin_sol,
            sin_deriv=np.cos(zt),
            omega_sq=np.full_like(grid, z * z),
            omega_cos_integral=z * np.sin(zt),
            profile=profile,
        )
    if method not in ("auto", "numeric"):
        raise ValueError(f"unknown method {method!r}")
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        w = 1.0 + 4.0 * float(profile.d2_at(t))
        # y = (cos_sol, cos_deriv, sin_sol, sin_deriv, J)
        return (y[1], -w * y[0], y[3], -w * y[2], w * y[0])

    sol = solve_ivp(
        rhs,
        (0.0, tau_max),
        [1.0, 0.0, 0.0, 1.0, 0.0],
        method="DOP853",
        dense_output=True,
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:  # pragma: no cover - DOP853 does not fail on these systems
        raise UnsupportedRegimeError(f"integration failed: {sol.message}")
    ys = sol.sol(grid)
    return QuadraticSolution(
        tau=grid,
        cos_sol=ys[0],
        cos_deriv=ys[1],
        sin_sol=ys[2],
        sin_deriv=ys[3],
        omega_sq=1.0 + 4.0 * np.asarray(profile.d2_at(grid), dtype=float),
        omega_cos_integral=ys[4],
        profile=profile,
    )


def constant_solution(d2: float, tau):
    """Closed-form (cosine-like, sine-like) solutions for constant squeezing."""
    z = zeta(d2)
    t = np.asarray(tau, dtype=float)
    return np.cos(z * t), np.sin(z * t) / z


def constant_bogoliubov(d2: float, tau):
    """Closed-form Bogoliubov coefficients for constant squeezing."""
    z = zeta(d2)
    zt = np.asarray(tau, dtype=float) * z
    alpha = np.cos(zt) - 0.5j * (z + 1.0 / z) * np.sin(zt)
    beta = -2j * (d2 / z) * np.sin(zt)
    return alpha, beta


def _two_scale_warn(d2: float, tau) -> None:
    stretch = abs(d2) * np.cosh(d2 * np.max(np.asarray(tau, dtype=float)))
    if stretch > 0.1:
        warnings.warn(
            f"two-scale form stretched beyond its validity (d2*cosh(d2*tau) = {stretch:.3g})",
            ValidityWarning,
            stacklevel=3,
        )


def two_scale_solution(d2: float, tau):
    """Perturbative (cosine-like, sine-like) solutions at parametric resonance.

    Valid for small d2; warns once d2*cosh(d2*tau) exceeds 0.1.
    """
    if d2 == 1.0:
        raise SingularFactorError("two-scale sine-like solution is singular at d2 = 1")
    _two_scale_warn(d2, tau)
    t = np.asarray(tau, dtype=float)
    ch = np.cosh(d2 * t)
    sh = np.sinh(d2 * t)
    cos_like = np.cos(t) * ch - np.sin(t) * sh
    sin_like = -(np.cos(t) * sh - np.sin(t) * ch) / (1.0 - d2)
    return cos_like, sin_like


def rwa_mode(d2: float, tau):
    """Rotating-wave mode function exp(-i tau) cosh(d2 tau) + i exp(i tau) sinh(d2 tau).

    Equals the two-scale mode function once the 1/(1 - d2) factor is replaced
    by unity, which is consistent at the order the two-scale form is valid.
    """
    t = np.asarray(tau, dtype=float)
    return np.exp(-1j * t) * np.cosh(d2 * t) + 1j * np.exp(1j * t) * np.sinh(d2 * t)


def mathieu_params(d2: float, omega0: float):
    """Map the modulated sector onto the canonical Mathieu parameters (a, q)."""
    if omega0 == 0.0:
        raise DomainError("modulation frequency omega0 must be nonzero")
    return 4.0 / omega0**2, -8.0 * d2 / omega0**2
