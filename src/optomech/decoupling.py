"""Scalar coefficients of the decoupled evolution operator.

The nonlinear part of the evolution factors into an ordered product of
exponentials of six fixed generators: the photon number operator N, its
square N^2, the mechanical position and momentum generators x = b + b^dag
and p = i(b^dag - b), and their photon-number-conditioned versions N*x and
N*p.  Each exponential carries a real scalar coefficient obtained from
definite integrals of the coupling profiles weighted by the complex mode
function of the quadratic sector; for constant squeezing, coupling and drive
they close through its Stumpff functions, for any real squeezing strength.
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


class DecouplingTables:
    """Cumulative quadrature tables for the decoupling coefficients.

    The nested double integrals reuse one cumulative inner integral across the
    outer sweep, so building the tables costs O(grid) and evaluation at any
    tau is an interpolation.  The quadrature grid is the solution grid; the
    solver resolution is the single accuracy knob.
    """

    def __init__(self, sol: QuadraticSolution, coupling: Coupling):
        coupling.require_span(sol.tau_max)
        self._sol = sol
        self._step = sol.step

        grid = sol.tau
        g = np.asarray(coupling.g_at(grid), dtype=float)
        re = sol.cos_sol
        im = -sol.sin_sol  # imaginary part of the mode function

        g_re = g * re
        g_im = g * im

        def cum(y):
            return _cumulative_simpson(y, self._step)

        cum_g_re = cum(g_re)
        num_sq_rate = 2.0 * g_im * cum_g_re

        # (values, derivative-on-grid) pairs for Hermite interpolation; the
        # drive's three tables are identically zero without a drive
        self._tables = {
            "num_sq": (cum(num_sq_rate), num_sq_rate),
            "num_pos": (-cum_g_re, -g_re),
            "num_mom": (cum(g_im), g_im),
        }
        if not coupling.drive_is_zero:
            d1 = np.asarray(coupling.drive_at(grid), dtype=float)
            d_re = d1 * re
            d_im = d1 * im
            cum_d_re = cum(d_re)
            num_rate = -2.0 * (d_im * cum_g_re + g_im * cum_d_re)
            self._tables.update(
                num=(cum(num_rate), num_rate),
                pos=(cum_d_re, d_re),
                mom=(-cum(d_im), -d_im),
            )

    def at(self, tau) -> DecouplingCoefficients:
        """Coefficients at one time or, elementwise, at an array of times."""
        self._sol._check_span(tau)
        vals = {"num": 0.0, "pos": 0.0, "mom": 0.0}
        for name, (y, dy) in self._tables.items():
            vals[name] = hermite_eval(self._step, y, dy, tau)
        return DecouplingCoefficients(tau=tau, **vals)


def constant_coefficients(
    g0: float, d2: float, tau, *, d1: float = 0.0
) -> DecouplingCoefficients:
    """Closed-form coefficients for constant squeezing, coupling and drive.

    With the Stumpff functions c_k of x = (1 + 4*d2)*tau^2: num_pos = -g0*tau*c1,
    num_mom = -g0*tau^2*c2 and num_sq = -4*g0^2*tau^3*c3(4x) = -g0^2*tau^3*(c2 +
    c0*c3) by the duplication identity; the drive gives pos = d1*tau*c1,
    mom = d1*tau^2*c2 and num = 2*g0*d1*tau^3*(c2 + c0*c3).  Without a drive
    num, pos and mom stay the scalar 0.  ``tau`` may be a scalar or an array.
    """
    c0, c1, c2, c3 = stumpff(d2, tau)
    t = np.asarray(tau, dtype=float)
    num = pos = mom = 0.0
    if d1 != 0.0:
        num = 2.0 * g0 * d1 * t**3 * (c2 + c0 * c3)
        pos, mom = d1 * t * c1, d1 * t**2 * c2
    return DecouplingCoefficients(
        num=num,
        num_sq=-(g0**2) * t**3 * (c2 + c0 * c3),
        pos=pos,
        mom=mom,
        num_pos=-g0 * t * c1,
        num_mom=-g0 * t**2 * c2,
        tau=t,
    )
