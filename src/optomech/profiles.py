"""Time-dependence profiles and system parameters.

Everything is dimensionless: time is measured in units of the inverse
mechanical frequency (tau = omega_m * t) and all couplings in units of
omega_m.  Profile objects are immutable NamedTuples.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class ModulatedSqueezing(NamedTuple):
    """Squeezing strength D2(tau) = d2 * cos(omega0 * tau); omega0 = 0 is
    constant squeezing."""

    d2: float
    omega0: float

    def d2_at(self, tau):
        return self.d2 * np.cos(self.omega0 * np.asarray(tau, dtype=float))


def ConstantSqueezing(d2: float) -> ModulatedSqueezing:
    """Constant squeezing strength D2(tau) = d2: the modulation at omega0 = 0."""
    return ModulatedSqueezing(d2, 0.0)


class Coupling(NamedTuple):
    """Constant light-matter coupling g and linear mechanical drive.

    The analytic pipeline also takes g as an array shaped like the times, as
    ``sweep`` passes it along a g0 axis; the Fock oracle needs floats, and
    ``oracle-check`` passes floats."""

    g: float = 0.0
    drive: float = 0.0


class SystemParams(NamedTuple):
    """Dimensionless parameters of the two-mode system.

    omega_c is the cavity frequency in units of the mechanical frequency;
    the interaction and drive live in ``coupling`` and the mechanical
    squeezing term in ``squeezing``.
    """

    omega_c: float = 1.0
    coupling: Coupling = Coupling()
    squeezing: ModulatedSqueezing = ModulatedSqueezing(0.0, 0.0)

    @property
    def is_time_independent(self) -> bool:
        """A static Hamiltonian (the coupling and drive always are; the
        squeezing is when d2 or omega0 is 0): the closed forms and the
        oracle's single exponential apply."""
        return self.squeezing.d2 == 0 or self.squeezing.omega0 == 0
