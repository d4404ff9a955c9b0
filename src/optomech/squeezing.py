"""Quadratic (squeezing) sector of the dynamics.

The mechanical quadratic Hamiltonian reduces to the parametric-oscillator
equation u'' + omega_sq(tau) * u = 0 with omega_sq = 1 + 4*D2(tau).  This
module produces its cosine-like solution (u(0)=1, u'(0)=0) and sine-like
solution (u(0)=0, u'(0)=1) on a dense grid, together with the complex mode
function and the Bogoliubov coefficients of the induced Gaussian evolution.
Constant-squeezing closed forms go through the Stumpff functions of
x = (1 + 4*d2)*tau^2, one form for the oscillating, free and inverted sectors.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from ._interp import hermite_eval
from .errors import DomainError, SingularFactorError, ValidityWarning
from .profiles import SqueezingProfile

# Grid: the fastest oscillation must stay well resolved because the
# decoupling quadrature reuses this grid.  A modulated pass peaks near 115 B
# per node, so the largest grid affordable is about 1 GB.
_SAMPLES_PER_UNIT = 256.0
_MIN_POINTS = 4096
_MAX_POINTS = 2**23
# times this far past either end of the solved span still count as inside it
_SPAN_SLACK = 1e-9

# Gauss-Legendre nodes of a unit interval
_GAUSS = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0

# series of the Stumpff functions: 1/(2j + k)! for c_k (row k) and (-x)^j, j < 10
_STUMPFF_SERIES = np.array([[1.0 / math.factorial(2 * j + k) for j in range(10)] for k in range(4)])


def oscillation_rate(profile: SqueezingProfile) -> float:
    """Effective angular rate sqrt(1 + 4*max|D2|) used to size grids; d2 is
    the amplitude of either profile."""
    return float(np.sqrt(1.0 + 4.0 * abs(profile.d2)))


def stumpff(d2: float, tau):
    """Stumpff functions c_k(x) = sum_j (-x)^j / (2j + k)!, k = 0..3, at
    x = (1 + 4*d2)*tau^2 (Danby, Fundamentals of Celestial Mechanics, 1988,
    sec. 6.9): c0 = cos sqrt(x) and c1 = sin sqrt(x)/sqrt(x), cosh and sinh for
    x < 0, c2 = (1 - c0)/x, c3 = (1 - c1)/x; for |x| < 1 the ten-term series
    gives all four, so nothing cancels near x = 0."""
    t = np.asarray(tau, dtype=float)
    w = 1.0 + 4.0 * d2
    x = w * t.ravel() ** 2
    small = np.abs(x) < 1.0
    r = np.where(small, 1.0, np.sqrt(abs(w)) * t.ravel())  # placeholders where the series is used
    xb = np.where(small, 1.0, x)
    c0, c1 = (np.cosh(r), np.sinh(r) / r) if w < 0.0 else (np.cos(r), np.sin(r) / r)
    c = np.stack((c0, c1, (1.0 - c0) / xb, (1.0 - c1) / xb))
    powers = np.cumprod(np.repeat(-x[None, small], 9, axis=0), axis=0)  # (-x)^1..(-x)^9
    c[:, small] = _STUMPFF_SERIES[:, :1] + _STUMPFF_SERIES[:, 1:] @ powers
    return tuple(f[()] for f in c.reshape(4, *t.shape))


class QuadraticSolution(NamedTuple):
    """Sampled fundamental solutions of the quadratic sector.

    ``cos_sol``/``sin_sol`` carry the cosine-like and sine-like solutions,
    ``cos_deriv``/``sin_deriv`` their derivatives and ``omega_sq`` the
    squared frequency 1 + 4*D2 on the grid.
    """

    tau: np.ndarray
    cos_sol: np.ndarray
    cos_deriv: np.ndarray
    sin_sol: np.ndarray
    sin_deriv: np.ndarray
    omega_sq: np.ndarray

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


def solve_quadratic(profile: SqueezingProfile, tau_max: float) -> QuadraticSolution:
    """Solve the quadratic sector on [0, tau_max], a positive span.

    One fourth-order Magnus step per grid interval (Blanes et al., Phys. Rep.
    470, 151 (2009)); their prefix product, a Hillis-Steele scan (Commun. ACM
    29, 1170 (1986)) over the four matrix entries, gives the solution at every
    node.  The grid is fixed: 256 nodes per unit tau and per unit of the
    effective oscillation rate, at least 4096 in all.  A finer one gains
    nothing, since past about twice that density the rounding of the
    sequential step product outgrows the truncation error.  A span that
    needs more than _MAX_POINTS nodes is refused before any is allocated.
    """
    if tau_max <= 0.0:
        raise DomainError("tau_max must be positive")
    # a float count, so that no span overflows it
    nodes = np.ceil(_SAMPLES_PER_UNIT * oscillation_rate(profile) * tau_max) + 1.0
    if nodes > _MAX_POINTS:
        raise DomainError(
            f"tau_max {tau_max:g} needs {nodes:.3g} solver grid points, "
            f"past the limit of {_MAX_POINTS}"
        )
    grid = np.linspace(0.0, tau_max, max(int(nodes), _MIN_POINTS))

    # Magnus exponent [[c, h], [lower, -c]] of y' = [[0, 1], [-w, 0]] y from the
    # two Gauss points; being traceless, exp = even*I + odd*exponent with
    # s^2 = -det: cosh and sinh(s)/s for s^2 > 0, cos and sinc otherwise
    h = grid[1] - grid[0]
    w = 1.0 + 4.0 * np.asarray(profile.d2_at(grid[:-1, None] + h * _GAUSS), dtype=float)
    c = np.sqrt(3.0) / 12.0 * h * h * (w[:, 1] - w[:, 0])
    lower = -0.5 * h * (w[:, 0] + w[:, 1])
    s2 = c * c + h * lower
    s = np.sqrt(np.abs(s2))
    even = np.where(s2 > 0.0, np.cosh(s), np.cos(s))
    odd = np.where(s2 > 0.0, np.sinh(s) / np.where(s > 0.0, s, 1.0), np.sinc(s / np.pi))

    # the steps' four entries as 1-d arrays, the identity first; an inclusive
    # prefix product in log2(n) passes, elementwise, leaves
    # m[j] = M[j-1] @ ... @ M[0]
    m00 = np.concatenate(([1.0], even + odd * c))
    m01 = np.concatenate(([0.0], odd * h))
    m10 = np.concatenate(([0.0], odd * lower))
    m11 = np.concatenate(([1.0], even - odd * c))
    del w, c, lower, s2, s, even, odd  # free the step intermediates before the scan
    k = 1
    while k < grid.size:
        p00, p01, p10, p11 = m00[:-k], m01[:-k], m10[:-k], m11[:-k]
        m00[k:], m01[k:], m10[k:], m11[k:] = (
            m00[k:] * p00 + m01[k:] * p10,
            m00[k:] * p01 + m01[k:] * p11,
            m10[k:] * p00 + m11[k:] * p10,
            m10[k:] * p01 + m11[k:] * p11,
        )
        k *= 2
    return QuadraticSolution(
        tau=grid,
        cos_sol=m00,
        cos_deriv=m10,
        sin_sol=m01,
        sin_deriv=m11,
        omega_sq=1.0 + 4.0 * np.asarray(profile.d2_at(grid), dtype=float),
    )


def constant_bogoliubov(d2: float, tau):
    """Closed-form Bogoliubov coefficients for constant squeezing:
    alpha = c0 - i(1 + 2*d2)*tau*c1 and beta = -2i*d2*tau*c1."""
    c0, c1, _, _ = stumpff(d2, tau)
    s = np.asarray(tau, dtype=float) * c1
    return c0 - 1j * (1.0 + 2.0 * d2) * s, -2j * d2 * s


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


def mathieu_params(d2: float, omega0: float):
    """Map the modulated sector onto the canonical Mathieu parameters (a, q)."""
    if omega0 == 0.0:
        raise DomainError("modulation frequency omega0 must be nonzero")
    return 4.0 / omega0**2, -8.0 * d2 / omega0**2
