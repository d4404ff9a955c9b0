"""Scalar coefficients of the decoupled evolution operator.

The nonlinear part of the evolution factors into an ordered product of
exponentials of six fixed generators: the photon number operator N, its
square N^2, the mechanical position and momentum generators x = b + b^dag
and p = i(b^dag - b), and their photon-number-conditioned versions N*x and
N*p.  Each exponential carries a real scalar coefficient: the constant
coupling g and drive d1 scale one of three unit functions (g = 1, no drive),
integrals of the mode function u of the quadratic sector.  Quadrature tables
give them on the solver grid; for constant squeezing they close through its
Stumpff functions, for any real squeezing strength.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._interp import hermite_eval
from .profiles import Coupling
from .squeezing import QuadraticSolution, stumpff


class DecouplingCoefficients(NamedTuple):
    """Coefficients of the six decoupling generators at one time, or arrays
    of them over a grid of times (a field that vanishes at every time may
    stay the scalar 0).

    ``num`` and ``num_sq`` multiply N and N^2; ``pos``/``mom`` multiply the
    bare position/momentum generators, and ``num_pos``/``num_mom`` their
    photon-number-conditioned counterparts.  All six vanish at tau = 0.
    """

    num: float
    num_sq: float
    pos: float
    mom: float
    num_pos: float
    num_mom: float
    tau: float

    @property
    def displacement(self) -> complex:
        """Mechanical displacement amplitude driven by the linear term."""
        return self.mom + 1j * self.pos

    @property
    def number_displacement(self) -> complex:
        """Mechanical displacement amplitude per cavity photon."""
        return self.num_mom + 1j * self.num_pos

    @property
    def kerr_phase(self) -> float:
        """Kerr-like phase advance of the optical amplitude per cavity photon."""
        return 2.0 * (self.num_sq + self.num_pos * self.num_mom)

    @property
    def coherent_phase(self) -> float:
        """Overall phase accumulated by the optical coherent amplitude."""
        return self.num + self.num_sq + 2.0 * self.num_pos * self.mom


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Running Simpson integral of samples y on a uniform grid of step h: even
    intervals use the parabola through the samples ahead, odd intervals and
    the last one the parabola through the samples behind."""
    lo, mid, hi = y[:-2:2], 8.0 * y[1:-1:2], y[2::2]
    out = np.zeros(y.size)
    out[1:-1:2] = 5.0 * lo + mid - hi  # interval 2j from samples 2j..2j+2
    out[2::2] = -lo + mid + 5.0 * hi  # interval 2j+1 from samples 2j..2j+2
    out[-1] = -y[-3] + 8.0 * y[-2] + 5.0 * y[-1]
    out[1:] *= h / 12.0
    np.cumsum(out[1:], out=out[1:])
    return out


def _scaled(g, d1: float, u_pos, u_mom, u_sq, tau) -> DecouplingCoefficients:
    """The six coefficients from the three unit functions (g = 1, no drive):
    num_pos = g*u_pos, num_mom = g*u_mom, num_sq = g^2*u_sq, pos = -d1*u_pos,
    mom = -d1*u_mom and num = -2*g*d1*u_sq.  Without a drive num, pos and mom
    stay the scalar 0.  ``g`` may be an array that broadcasts against the
    unit functions."""
    num = pos = mom = 0.0
    if d1 != 0.0:
        num, pos, mom = -2.0 * g * d1 * u_sq, -d1 * u_pos, -d1 * u_mom
    return DecouplingCoefficients(
        num=num, num_sq=g**2 * u_sq, pos=pos, mom=mom, num_pos=g * u_pos, num_mom=g * u_mom,
        tau=tau,
    )


class DecouplingTables:
    """Cumulative quadrature tables of the three unit functions.

    The nested double integral reuses the cumulative inner integral across
    the outer sweep, so building the tables costs O(grid) and evaluation at
    any tau is an interpolation, scaled by the coupling and drive.  The
    quadrature grid is the solution grid; the solver resolution is the
    single accuracy knob.
    """

    def __init__(self, sol: QuadraticSolution, coupling: Coupling):
        self._sol = sol
        self._step = sol.step
        self._coupling = coupling

        re = sol.cos_sol
        im = -sol.sin_sol  # imaginary part of the mode function
        cum_re = _cumulative_simpson(re, self._step)
        sq_rate = 2.0 * im * cum_re
        # (values, derivative-on-grid) pairs for Hermite interpolation, in
        # the order u_pos, u_mom, u_sq
        self._tables = (
            (-cum_re, -re),
            (_cumulative_simpson(im, self._step), im),
            (_cumulative_simpson(sq_rate, self._step), sq_rate),
        )

    def at(self, tau) -> DecouplingCoefficients:
        """Coefficients at one time or, elementwise, at an array of times."""
        self._sol._check_span(tau)
        units = (hermite_eval(self._step, y, dy, tau) for y, dy in self._tables)
        return _scaled(*self._coupling, *units, tau)


def constant_coefficients(g0, d2: float, tau, *, d1: float = 0.0) -> DecouplingCoefficients:
    """Closed-form coefficients for constant squeezing, coupling and drive.

    With the Stumpff functions c_k of x = (1 + 4*d2)*tau^2 the unit functions
    are u_pos = -tau*c1, u_mom = -tau^2*c2 and u_sq = -4*tau^3*c3(4x) =
    -tau^3*(c2 + c0*c3) by the duplication identity.  ``tau`` may be a scalar
    or an array, and ``g0`` an array that broadcasts against it.
    """
    c0, c1, c2, c3 = stumpff(d2, tau)
    t = np.asarray(tau, dtype=float)
    return _scaled(g0, d1, -t * c1, -t**2 * c2, -t**3 * (c2 + c0 * c3), t)
