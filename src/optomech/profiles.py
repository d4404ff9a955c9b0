"""Time-dependence profiles and system parameters.

Everything is dimensionless: time is measured in units of the inverse
mechanical frequency (tau = omega_m * t) and all couplings in units of
omega_m.  Profile objects are never modified after construction, so they are
safe to share across threads.
"""

from __future__ import annotations

from typing import NamedTuple, Union

import numpy as np

from .errors import DomainError

_SPAN_SLACK = 1e-9


class ConstantSqueezing(NamedTuple):
    """Constant squeezing strength D2(tau) = d2."""

    d2: float

    def d2_at(self, tau):
        return np.full(np.shape(np.asarray(tau, dtype=float)), float(self.d2))

    def max_abs(self, tau_max: float) -> float:
        return abs(self.d2)

    def require_span(self, tau_max: float) -> None:
        pass


class ModulatedSqueezing(NamedTuple):
    """Sinusoidally modulated squeezing D2(tau) = d2 * cos(omega0 * tau)."""

    d2: float
    omega0: float

    def d2_at(self, tau):
        return self.d2 * np.cos(self.omega0 * np.asarray(tau, dtype=float))

    def max_abs(self, tau_max: float) -> float:
        return abs(self.d2)

    def require_span(self, tau_max: float) -> None:
        pass


class TabulatedSignal:
    """A real signal sampled on a strictly increasing time grid, usable as a
    squeezing profile or as a coupling/drive signal.

    Values between samples come from a monotone piecewise-cubic (PCHIP)
    interpolant, which does not overshoot the tabulated range.
    """

    def __init__(self, tau, values):
        from scipy.interpolate import PchipInterpolator

        tau = np.asarray(tau, dtype=float)
        values = np.asarray(values, dtype=float)
        if tau.ndim != 1 or values.shape != tau.shape or tau.size < 2:
            raise DomainError("tabulated signal needs matching 1-d arrays with >= 2 samples")
        if not np.all(np.isfinite(tau)) or not np.all(np.isfinite(values)):
            raise DomainError("tabulated signal contains non-finite entries")
        if np.any(np.diff(tau) <= 0):
            raise DomainError("tabulated signal times must be strictly increasing")
        self.tau = tau
        self.values = values
        self._interp = PchipInterpolator(tau, values, extrapolate=False)

    def at(self, tau):
        t = np.asarray(tau, dtype=float)
        if np.any(t < self.tau[0] - _SPAN_SLACK) or np.any(t > self.tau[-1] + _SPAN_SLACK):
            raise DomainError("requested time outside the tabulated signal span")
        return self._interp(np.clip(t, self.tau[0], self.tau[-1]))

    d2_at = at

    def max_abs(self, tau_max: float) -> float:
        return float(np.max(np.abs(self.values)))

    def require_span(self, tau_max: float) -> None:
        if self.tau[0] > _SPAN_SLACK or self.tau[-1] < tau_max - _SPAN_SLACK:
            raise DomainError(
                f"tabulated signal covers [{self.tau[0]:g}, {self.tau[-1]:g}], "
                f"needed [0, {tau_max:g}]"
            )


SqueezingProfile = Union[ConstantSqueezing, ModulatedSqueezing, TabulatedSignal]


Signal = Union[float, TabulatedSignal]


def _signal_at(sig: Signal, tau):
    if isinstance(sig, TabulatedSignal):
        return sig.at(tau)
    return np.broadcast_to(float(sig), np.shape(np.asarray(tau, dtype=float)))


class Coupling(NamedTuple):
    """Light-matter coupling g and linear mechanical drive, each either a
    constant or a :class:`TabulatedSignal`."""

    g: Signal = 0.0
    drive: Signal = 0.0

    def g_at(self, tau):
        return _signal_at(self.g, tau)

    def drive_at(self, tau):
        return _signal_at(self.drive, tau)

    @property
    def is_constant(self) -> bool:
        return not isinstance(self.g, TabulatedSignal) and not isinstance(
            self.drive, TabulatedSignal
        )

    @property
    def drive_is_zero(self) -> bool:
        return not isinstance(self.drive, TabulatedSignal) and float(self.drive) == 0.0

    def g_max(self, tau_max: float) -> float:
        if isinstance(self.g, TabulatedSignal):
            return self.g.max_abs(tau_max)
        return abs(float(self.g))

    def require_span(self, tau_max: float) -> None:
        for sig in (self.g, self.drive):
            if isinstance(sig, TabulatedSignal):
                sig.require_span(tau_max)


class SystemParams(NamedTuple):
    """Dimensionless parameters of the two-mode system.

    omega_c is the cavity frequency in units of the mechanical frequency;
    the interaction and drive live in ``coupling`` and the mechanical
    squeezing term in ``squeezing``.
    """

    omega_c: float = 1.0
    coupling: Coupling = Coupling()
    squeezing: SqueezingProfile = ConstantSqueezing(0.0)
