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

from .errors import DomainError
from .moments import CovarianceExcess

_CLAMP = 1e-6


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


def _entropy(dn):
    # (dn + 1)*log(dn + 1) - dn*log(dn), free of cancellation at large nu and of
    # the rounding of dn + 1 at small dn; the placeholder 1 keeps the dn = 0
    # term exactly 0 and the dn = inf term inf
    out = np.log1p(dn) + dn * np.log1p(1.0 / np.where((dn > 0.0) & (dn < np.inf), dn, 1.0))
    return float(out) if out.ndim == 0 else out


def mode_entropy(nu):
    """Entropy of a bosonic mode with symplectic eigenvalue nu, in nats.

    Values in [1 - 1e-6, 1) are clamped to 1; smaller values are rejected as
    unphysical.  An infinite nu has infinite entropy.
    """
    x = np.asarray(nu, dtype=float)
    if np.any(x < 1.0 - _CLAMP):
        raise DomainError(f"symplectic eigenvalue below 1 - {_CLAMP:g}: {np.min(x):.9g}")
    x = np.maximum(x, 1.0)
    return _entropy(0.5 * (x - 1.0))


def _excess_entropy(e):
    """:func:`mode_entropy` of nu = sqrt(1 + e), with (nu - 1)/2 taken as
    e / (2(nu + 1)) so that nu - 1 is never formed by subtraction; nu is
    clamped to 1 from below, as the engine's own excess rounds there."""
    e = np.asarray(e, dtype=float)
    nu = np.maximum(np.sqrt(1.0 + np.maximum(e, -1.0)), 1.0)
    return _entropy(0.5 * np.maximum(e, 0.0) / (nu + 1.0))


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
    optical one is read from the optical block.  For every state it stays
    within that of the fully dephased mode, 4 n_c (1 + n_c) with
    n_c = |mu_c|^2, and delta within [delta_min, delta_max]; neither is
    re-checked here, and the engine's property test holds both.
    """
    nc = np.abs(complex(mu_c)) ** 2
    e_op = excess.e11 * (excess.e11 + 2.0) - abs(excess.s13) ** 2
    e_me = 4.0 * abs(number_displacement) ** 2 * nc
    e_full = np.stack(_two_mode_excess(excess, e_op, e_me), axis=-1)
    delta = np.sum(_excess_entropy(e_full), axis=-1)
    s_op = _excess_entropy(e_op)
    s_me = _excess_entropy(e_me)
    delta_min, delta_max = abs(s_op - s_me), s_op + s_me
    return NonGaussianityReport(
        delta=delta,
        delta_min=delta_min,
        delta_max=delta_max,
        nu_full=np.sqrt(1.0 + e_full),
        nu_op=np.sqrt(1.0 + e_op),
        nu_me=np.sqrt(1.0 + e_me),
    )
