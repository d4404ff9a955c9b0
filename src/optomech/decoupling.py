"""Scalar coefficients of the decoupled evolution operator.

The nonlinear part of the evolution factors into an ordered product of
exponentials of six fixed generators: the photon number operator N, its
square N^2, the mechanical position and momentum generators x = b + b^dag
and p = i(b^dag - b), and their photon-number-conditioned versions N*x and
N*p.  Each exponential carries a real scalar coefficient: the constant
coupling g and drive d1 scale one of three unit functions (g = 1, no drive),
integrals of the mode function u of the quadratic sector.  The two-point
Hermite rule gives them at the solver's nodes, which include the times
asked for; for constant squeezing they close through its Stumpff functions,
for any real squeezing strength.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .profiles import Coupling
from .squeezing import QuadraticSolution, stumpff


class DecouplingCoefficients(NamedTuple):
    """Coefficients of the six decoupling generators at one time, or arrays
    of them over a grid of times (a field that vanishes at every time may
    stay the scalar 0); the times themselves are the caller's.

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


def _hermite_rule(h, ya, yb, dya, dyb):
    """Integral of y over an interval of length h from its values and
    derivatives at the two ends, h/2*(ya + yb) + h^2/12*(dya - dyb): the
    two-point Hermite rule, exact for cubics."""
    return 0.5 * h * (ya + yb) + h * h / 12.0 * (dya - dyb)


def _scaled(g, d1: float, u_pos, u_mom, u_sq) -> DecouplingCoefficients:
    """The six coefficients from the three unit functions (g = 1, no drive):
    num_pos = g*u_pos, num_mom = g*u_mom, num_sq = g^2*u_sq, pos = -d1*u_pos,
    mom = -d1*u_mom and num = -2*g*d1*u_sq.  Without a drive num, pos and mom
    stay the scalar 0.  ``g`` may be an array that broadcasts against the
    unit functions.  The factor 2 applies last (the same rounding), so num is 0
    where u_sq is for any finite g*d1."""
    num = pos = mom = 0.0
    if d1 != 0.0:
        num, pos, mom = -2.0 * (g * d1 * u_sq), -d1 * u_pos, -d1 * u_mom
    return DecouplingCoefficients(
        num=num, num_sq=np.square(g) * u_sq, pos=pos, mom=mom, num_pos=g * u_pos, num_mom=g * u_mom
    )


class DecouplingTables:
    """Running integrals C = int c, S = int s and Q = int s*C of the
    cosine- and sine-like solutions at their nodes, by the two-point Hermite
    rule over each interval on the solution's own values and derivatives
    ((s*C)' = s'*C + s*c).  The unit functions at a node are -C, -S and -2Q,
    scaled by the coupling and drive.
    """

    def __init__(self, sol: QuadraticSolution, coupling: Coupling):
        self._node = sol.node
        self._coupling = coupling
        c, dc, s, ds = sol.cos_sol, sol.cos_deriv, sol.sin_sol, sol.sin_deriv
        h = np.diff(sol.tau)

        def running(y, dy):
            out = np.zeros(y.size)
            np.cumsum(_hermite_rule(h, y[:-1], y[1:], dy[:-1], dy[1:]), out=out[1:])
            return out

        self._int_c = running(c, dc)
        self._int_s = running(s, ds)
        self._int_sc = running(s * self._int_c, ds * self._int_c + s * c)

    def at(self, tau) -> DecouplingCoefficients:
        """Coefficients at one solved time or, elementwise, at an array of them."""
        j = self._node(tau)
        return _scaled(*self._coupling, -self._int_c[j], -self._int_s[j], -2.0 * self._int_sc[j])


def constant_coefficients(g0, d2: float, tau, *, d1: float = 0.0) -> DecouplingCoefficients:
    """Closed-form coefficients for constant squeezing, coupling and drive.

    With the Stumpff functions c_k of x = (1 + 4*d2)*tau^2 the unit functions
    are u_pos = -tau*c1, u_mom = -tau^2*c2 and u_sq = -4*tau^3*c3(4x) =
    -tau^3*(c2 + c0*c3) by the duplication identity.  ``tau`` may be a scalar
    or an array, and ``g0`` an array that broadcasts against it.
    """
    c0, c1, c2, c3 = stumpff(d2, tau)
    t = np.asarray(tau, dtype=float)
    return _scaled(g0, d1, -t * c1, -t**2 * c2, -t**3 * (c2 + c0 * c3))
