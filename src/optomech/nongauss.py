"""Relative-entropy non-Gaussianity of the evolved state.

For a pure global state the measure is the von Neumann entropy of the
Gaussian reference sharing the state's first and second moments, computed
from the symplectic eigenvalues of the covariance matrix.  Subsystem
eigenvalues give computable lower/upper bounds through the Araki-Lieb
inequality.  Symplectic eigenvalues, and so the measure and its bounds, do
not change under local Gaussian unitaries, so the covariance may be taken
in any frame that differs from the lab frame by a local Bogoliubov map.

The measure works on e = nu^2 - 1 throughout: the two-mode spectrum comes
from the trace invariants of sigma - I in closed form, elementwise over
tau, with no eigenvalue solver, and the subsystem values e_op and e_me that
the bounds need come from the same excess.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError, ValidationError
from .moments import CovarianceExcess

_CLAMP = 1e-6
# relative to the bound (absolute below 1): the measure reaches tens of nats
_BOUND_SLACK = 1e-9


class NonGaussianityReport(NamedTuple):
    """Non-Gaussianity measure with its Araki-Lieb bounds and the symplectic
    eigenvalues it was computed from, at one time or as arrays over tau.

    ``nu_full`` (last axis of length 2) is 1 for a Gaussian evolution and
    above 1 otherwise, with ``delta`` the sum of their mode entropies (the
    global state is pure)."""

    delta: float
    delta_min: float
    delta_max: float
    nu_full: np.ndarray
    nu_op: float
    nu_me: float


def _require_physical(nu) -> None:
    if np.any(nu < 1.0 - _CLAMP):
        raise DomainError(f"symplectic eigenvalue below 1 - {_CLAMP:g}: {np.min(nu):.9g}")


def _entropy(up, dn):
    # up*log(up) - dn*log(dn) with up = dn + 1, free of cancellation at large nu;
    # the placeholder 1 keeps the dn = 0 term exactly 0
    out = np.log(up) + dn * np.log1p(1.0 / np.where(dn > 0.0, dn, 1.0))
    return float(out) if out.ndim == 0 else out


def mode_entropy(nu):
    """Entropy of a bosonic mode with symplectic eigenvalue nu, in nats.

    Values in [1 - 1e-6, 1) are clamped to 1; smaller values are rejected as
    unphysical.
    """
    x = np.asarray(nu, dtype=float)
    _require_physical(x)
    x = np.maximum(x, 1.0)
    return _entropy(0.5 * (x + 1.0), 0.5 * (x - 1.0))


def _excess_entropy(e):
    """:func:`mode_entropy` of nu = sqrt(1 + e), with (nu - 1)/2 taken as
    e / (2(nu + 1)) so that nu - 1 is never formed by subtraction."""
    e = np.asarray(e, dtype=float)
    nu = np.sqrt(1.0 + np.maximum(e, -1.0))
    _require_physical(nu)
    nu = np.maximum(nu, 1.0)
    return _entropy(0.5 * (nu + 1.0), 0.5 * np.maximum(e, 0.0) / (nu + 1.0))


def _two_mode_excess(excess: CovarianceExcess, e_op, e_me):
    """The two-mode spectrum e_1 >= e_2 (e_k = nu_k^2 - 1) of sigma = I + E.

    With K = diag(1, 1, -1, -1), M = (K sigma)^2 - I = E + KEK + (KE)^2 has
    eigenvalues e_1 and e_2, each twice, so e_1 + e_2 = tr M / 2 and
    e_1 e_2 = ((tr M)^2 - 2 tr M^2) / 8.  In 2x2 blocks
    E = [[A, B], [conj B, conj A]], M = [[X, Y], [conj Y, conj X]] with
    X = 2A + A^2 - B conj(B) Hermitian and Y = A B - B conj(A)
    antisymmetric, so these invariants are tr X and det X + |Y_12|^2.  The
    diagonal of X is the subsystem excess e_op or e_me plus
    |s12|^2 - |s14|^2, so the given cancellation-free subsystem values enter
    in place of the raw squares; where s12 and s14 vanish the spectrum is
    {e_op, e_me}.
    """
    s12, s13, s14 = excess.s12, excess.s13, excess.s14
    cross = abs(s12) ** 2 - abs(s14) ** 2
    x12 = (2.0 + excess.e11 + excess.e22) * s12 - s13 * np.conj(s14) - s14 * np.conj(excess.s24)
    y12 = (excess.e11 - excess.e22) * s14 + s12 * excess.s24 - s13 * np.conj(s12)
    off = abs(x12) ** 2 - abs(y12) ** 2
    total = e_op + e_me + 2.0 * cross
    product = (e_op + cross) * (e_me + cross) - off
    # total^2 - 4 product, with the common |s12|^2 - |s14|^2 cancelled exactly
    big = 0.5 * (total + np.sqrt(np.maximum((e_op - e_me) ** 2 + 4.0 * off, 0.0)))
    small = product / np.where(big > 0.0, big, 1.0)
    return big, small


def non_gaussianity(
    excess: CovarianceExcess,
    *,
    number_displacement: complex,
    mu_c: complex,
) -> NonGaussianityReport:
    """Measure of non-Gaussianity with Araki-Lieb bounds from sigma - I, at
    one time or as arrays over tau.

    Any frame related to the lab frame by a local Gaussian unitary gives the
    same report; the engine passes the closed-form squeezing frame.  The
    mechanical subsystem excess is 4 |k|^2 |mu_c|^2 in every frame; the
    optical one is read from the optical block and may not exceed that of
    the fully dephased mode, 4 n_c (1 + n_c) with n_c = |mu_c|^2.
    """
    nc = abs(complex(mu_c)) ** 2
    e_op = excess.e11 * (excess.e11 + 2.0) - abs(excess.s13) ** 2
    e_me = 4.0 * abs(number_displacement) ** 2 * nc
    bound = 4.0 * nc * (1.0 + nc)
    if np.any(e_op - bound > _BOUND_SLACK * max(bound, 1.0)):
        raise ValidationError(f"optical excess {np.max(e_op):.12g} exceeds its bound {bound:.12g}")
    e_full = np.stack(_two_mode_excess(excess, e_op, e_me), axis=-1)
    delta = np.sum(_excess_entropy(e_full), axis=-1)
    s_op = _excess_entropy(e_op)
    s_me = _excess_entropy(e_me)
    delta_min, delta_max = abs(s_op - s_me), s_op + s_me

    escape = np.maximum(delta_min - delta, delta - delta_max)
    if np.any(escape > _BOUND_SLACK * np.maximum(delta_max, 1.0)):
        raise ValidationError(f"measure escapes its bounds by {np.max(escape):.3g}")
    return NonGaussianityReport(
        delta=delta,
        delta_min=delta_min,
        delta_max=delta_max,
        nu_full=np.sqrt(1.0 + e_full),
        nu_op=np.sqrt(1.0 + e_op),
        nu_me=np.sqrt(1.0 + e_me),
    )
