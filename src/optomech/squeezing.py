"""Quadratic (squeezing) sector of the dynamics.

The mechanical quadratic Hamiltonian reduces to the parametric-oscillator
equation u'' + omega_sq(tau) * u = 0 with omega_sq = 1 + 4*D2(tau).  This
module produces its cosine-like solution (u(0)=1, u'(0)=0) and sine-like
solution (u(0)=0, u'(0)=1) at the nodes of a dense grid laid through the
times asked for, so that the complex mode function and the Bogoliubov
coefficients of the induced Gaussian evolution are read at a node.
Constant-squeezing closed forms go through the Stumpff functions of
x = (1 + 4*d2)*tau^2, one form for the oscillating, free and inverted sectors.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SingularFactorError, ValidityWarning
from .profiles import ModulatedSqueezing

# Grid: the fastest oscillation must stay well resolved because the
# decoupling integrals step over this grid.  A modulated pass peaks near 115 B
# per node, so the largest uniform grid, with up to 2**20 asked times on top
# (the CLI's cap on outputs), stays near 1.1 GB.
_SAMPLES_PER_UNIT = 256.0
_MIN_POINTS = 4096
_MAX_POINTS = 2**23

# Gauss-Legendre nodes of a unit interval
_GAUSS = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0

# series of the Stumpff functions: 1/(2j + k)! for c_k (row k) and (-x)^j, j < 10
_STUMPFF_SERIES = np.array([[1.0 / math.factorial(2 * j + k) for j in range(10)] for k in range(4)])


def oscillation_rate(profile: ModulatedSqueezing) -> float:
    """Effective angular rate sqrt(1 + 4*max|D2|) used to size grids."""
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


def _magnus_step(profile: ModulatedSqueezing, start, length):
    """Entries (m00, m01, m10, m11) of the fourth-order Magnus step of
    y' = [[0, 1], [-w, 0]] y, w = 1 + 4*D2, from ``start`` over ``length``,
    elementwise (Blanes et al., Phys. Rep. 470, 151 (2009)).  The exponent
    [[c, length], [lower, -c]] comes from two Gauss points; being traceless,
    its exponential is even*I + odd*exponent with s^2 = -det: cosh and
    sinh(s)/s for s^2 > 0, cos and sinc otherwise.  Length 0 gives I exactly."""
    length = np.asarray(length, dtype=float)
    # one Gauss point at a time, each temporary freed once used: fewer grid-sized arrays
    w0, w1 = (1.0 + 4.0 * np.asarray(profile.d2_at(start + length * g), dtype=float)
              for g in _GAUSS)
    c = np.sqrt(3.0) / 12.0 * length * length * (w1 - w0)
    lower = -0.5 * length * (w0 + w1)
    del w0, w1
    s2 = c * c + length * lower
    s = np.sqrt(np.abs(s2))
    even = np.where(s2 > 0.0, np.cosh(s), np.cos(s))
    odd = np.where(s2 > 0.0, np.sinh(s) / np.where(s > 0.0, s, 1.0), np.sinc(s / np.pi))
    del s2, s
    return even + odd * c, odd * length, odd * lower, even - odd * c


class QuadraticSolution(NamedTuple):
    """Fundamental solutions of the quadratic sector at the nodes of a grid.

    ``cos_sol``/``sin_sol`` carry the cosine-like and sine-like solutions
    and ``cos_deriv``/``sin_deriv`` their derivatives at the nodes ``tau``,
    which include every time the solve was asked for; only those are read.
    """

    tau: np.ndarray
    cos_sol: np.ndarray
    cos_deriv: np.ndarray
    sin_sol: np.ndarray
    sin_deriv: np.ndarray

    def node(self, tau):
        """Index of the node at each time; a time that is not a node, such
        as one the solve was not asked for or a negative one, is refused."""
        t = np.asarray(tau, dtype=float)
        j = np.minimum(np.searchsorted(self.tau, t), self.tau.size - 1)
        missed = self.tau[j] != t
        if np.any(missed):
            raise DomainError(f"tau {np.extract(missed, t)[0]:g} was not solved for")
        return j

    def mode(self, tau):
        """Complex mode function cos_sol(tau) - i * sin_sol(tau)."""
        j = self.node(tau)
        return self.cos_sol[j] - 1j * self.sin_sol[j]

    def bogoliubov(self, tau):
        """Bogoliubov coefficients (alpha, beta) of the quadratic evolution,
        from the mode function xi = c - i*s and its derivative."""
        j = self.node(tau)
        xi = self.cos_sol[j] - 1j * self.sin_sol[j]
        dxi = self.cos_deriv[j] - 1j * self.sin_deriv[j]
        alpha = 0.5 * (xi + 1j * dxi)
        beta = 0.5 * (np.conj(xi) + 1j * np.conj(dxi))
        return alpha, beta


def solve_quadratic(profile: ModulatedSqueezing, taus) -> QuadraticSolution:
    """Solve the quadratic sector at ``taus``, one finite non-negative time
    or an array of them in any order, repeats allowed, on nodes that include
    them: a uniform grid over [0, max(taus)] joined with the times (times
    all 0 give the one node 0 and the identity).

    One fourth-order Magnus step per interval, over its own length; their
    prefix product, a Hillis-Steele scan (Commun. ACM 29, 1170 (1986)) over
    the four matrix entries, gives the solution at every node.  The uniform
    grid has 256 nodes per unit tau and per unit of the effective
    oscillation rate, at least 4096 in all.  A finer one gains nothing:
    there the rounding of the step product already matches the truncation
    error, as it does where asked times crowd the grid.  A span whose
    uniform grid needs more than _MAX_POINTS nodes is refused before any is
    allocated, naming the largest time asked for.
    """
    taus = np.asarray(taus, dtype=float)
    if not np.all((0.0 <= taus) & (taus < np.inf)):
        raise DomainError("times must be non-negative and finite")
    tau_max = float(np.max(taus, initial=0.0))
    # a float count, so that no span overflows it
    nodes = np.ceil(_SAMPLES_PER_UNIT * oscillation_rate(profile) * tau_max) + 1.0
    if nodes > _MAX_POINTS:
        raise DomainError(f"tau {tau_max:g} needs more than {_MAX_POINTS} solver grid points")
    # sorted, each value once; np.union1d would import numpy.ma, 13 ms a run
    grid = np.sort(np.concatenate((np.linspace(0.0, tau_max, max(int(nodes), _MIN_POINTS)),
                                   taus.ravel())))
    grid = grid[np.diff(grid, prepend=-1.0) > 0.0]
    steps = _magnus_step(profile, grid[:-1], np.diff(grid))

    # the steps' four entries as 1-d arrays, the identity first; an inclusive
    # prefix product in log2(n) passes, elementwise, leaves
    # m[j] = M[j-1] @ ... @ M[0]
    m00, m01, m10, m11 = (np.concatenate(([e], m)) for e, m in zip((1.0, 0.0, 0.0, 1.0), steps))
    del steps  # free the step entries before the scan
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
    return QuadraticSolution(tau=grid, cos_sol=m00, cos_deriv=m10, sin_sol=m01, sin_deriv=m11)


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
    square = omega0 * omega0
    if square in (0.0, math.inf):
        raise DomainError("modulation frequency omega0 must have a nonzero, finite square")
    return 4.0 / square, -8.0 * d2 / square
