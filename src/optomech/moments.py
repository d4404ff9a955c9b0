"""First and second moments of the evolved two-mode state.

All optical moments are reported in the frame co-rotating with the cavity;
``evolve --lab_frame`` in the CLI restores the cavity phase of <a>.
The covariance matrix uses the complex basis (a, b, a^dag, b^dag) with the
vacuum normalized to the identity.  Every function works elementwise: given
coefficients and a Bogoliubov pair that are arrays over tau, it returns
moments and covariance matrices over the same times.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .decoupling import DecouplingCoefficients
from .errors import ValidationError

# relative to |alpha|^2 + |beta|^2, which grows without bound at resonance
_BOGOLIUBOV_TOL = 1e-6


class InitialState(NamedTuple):
    """Coherent amplitudes of the optical and mechanical modes at tau = 0."""

    mu_c: complex
    mu_m: complex = 0.0


class MomentSet(NamedTuple):
    """All first and second moments at one time (or arrays of them over
    tau), plus the auxiliaries entering them: the drive-induced
    displacement, the per-photon displacement, and the overlap factor of the
    photon-conditioned mechanical kicks.  The photon number ``na`` is
    conserved, so it stays a scalar."""

    a: complex
    b: complex
    a2: complex
    b2: complex
    ab: complex
    ab_dag: complex
    na: float
    nb: float
    drive_shift: complex
    photon_shift: complex
    kick_overlap: complex
    tau: float


def displacement_amplitudes(alpha, beta, coeffs: DecouplingCoefficients):
    """Drive-induced and per-photon mechanical displacement amplitudes.

    The Heisenberg-picture mechanical mode reads
    b(tau) = alpha*b + beta*b^dag + drive_shift + photon_shift * N.
    """
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    residual = abs(abs(alpha) ** 2 - abs(beta) ** 2 - 1.0)
    if np.any(residual > _BOGOLIUBOV_TOL * norm):
        raise ValidationError(
            f"Bogoliubov identity violated by {np.max(residual / norm):.3g} relative; "
            "alpha/beta inconsistent"
        )
    plus = alpha + beta
    minus = alpha - beta
    drive_shift = plus * coeffs.mom - 1j * minus * coeffs.pos
    photon_shift = plus * coeffs.num_mom - 1j * minus * coeffs.num_pos
    return drive_shift, photon_shift


def kick_overlap(coeffs: DecouplingCoefficients, mu_m: complex):
    """Expectation of the ordered photon-conditioned displacement product.

    Follows from composing the two Weyl displacement operators; its squared
    magnitude is exp(-|number_displacement|^2) independently of mu_m.
    """
    k_n = coeffs.number_displacement
    exponent = 0.5 * (
        -abs(k_n) ** 2
        - 2j * coeffs.num_mom * coeffs.num_pos
        - 2.0 * mu_m * k_n
        + 2.0 * np.conj(mu_m) * np.conj(k_n)
    )
    return np.exp(exponent)


def moments(coeffs: DecouplingCoefficients, alpha, beta, init: InitialState) -> MomentSet:
    """Assemble all eight moments of the evolved state.

    N is conserved and Poisson with mean nbar = |mu_c|^2, and given N the
    mechanics is Gaussian: the (alpha, beta) image of a coherent state,
    shifted by P N.  So, with P = photon_shift, k = number_displacement and
    theta = kerr_phase, in cumulant form
    <b^2> = <b>^2 + nbar P^2 + alpha beta, <b^dag b> = |<b>|^2 + nbar |P|^2
    + |beta|^2 and <a b> = <a> (<b> + (1 + nbar (e^{-i theta} - 1)) P - beta k).
    """
    mu_c = complex(init.mu_c)
    mu_m = complex(init.mu_m)
    nc = abs(mu_c) ** 2

    drive_shift, photon_shift = displacement_amplitudes(alpha, beta, coeffs)
    overlap = kick_overlap(coeffs, mu_m)
    k_n = coeffs.number_displacement

    theta = coeffs.kerr_phase
    phi = coeffs.coherent_phase
    eth = np.exp(-1j * theta)
    # <a N> / <a> - nbar
    dephase = 1.0 + nc * (eth - 1.0)

    a = np.exp(-1j * phi) * np.exp(nc * (eth - 1.0)) * overlap * mu_c
    b = alpha * mu_m + beta * np.conj(mu_m) + (drive_shift + photon_shift * nc)
    a2 = (
        np.exp(-2j * phi)
        * mu_c**2
        * eth
        * np.exp(nc * (np.exp(-2j * theta) - 1.0))
        * np.exp(-abs(k_n) ** 2)
        * overlap**2
    )
    b2 = b * b + photon_shift**2 * nc + alpha * beta
    nb = abs(b) ** 2 + abs(photon_shift) ** 2 * nc + abs(beta) ** 2
    ab = a * (b + dephase * photon_shift - beta * k_n)
    ab_dag = a * (np.conj(b) + dephase * np.conj(photon_shift) - np.conj(alpha) * k_n)

    return MomentSet(
        a=a,
        b=b,
        a2=a2,
        b2=b2,
        ab=ab,
        ab_dag=ab_dag,
        na=nc,
        nb=nb,
        drive_shift=drive_shift,
        photon_shift=photon_shift,
        kick_overlap=overlap,
        tau=coeffs.tau,
    )


class CovarianceExcess(NamedTuple):
    """The six independent entries of sigma - I, in the basis and layout of
    :class:`CovarianceMatrix`: the real diagonal excesses ``e11`` and ``e22``
    (sigma_11 - 1, sigma_22 - 1) and the complex entries ``s12``, ``s13``,
    ``s14``, ``s24``; every other entry follows from Hermitian symmetry and
    the (a, a^dag) pairing.  Fields are arrays over tau or scalars."""

    e11: float
    e22: float
    s12: complex
    s13: complex
    s14: complex
    s24: complex


def squeezing_frame_excess(coeffs: DecouplingCoefficients, m: MomentSet) -> CovarianceExcess:
    """Closed-form sigma - I in the squeezing frame (alpha = 1, beta = 0).

    ``m`` may come from any frame: ``a``, ``a2`` and ``na`` do not depend on
    the Bogoliubov pair.  In this frame the mechanical mode is
    b + conj(displacement) + conj(k) N with k the per-photon displacement,
    so each entry is a Poisson average over the photon number in closed
    form, with no subtraction of large moments.
    """
    nc = m.na
    a = m.a
    k = coeffs.number_displacement
    k_sq = abs(k) ** 2
    theta = coeffs.kerr_phase
    half_sin_sq = np.sin(0.5 * theta) ** 2
    eps = -2.0 * half_sin_sq - 1j * np.sin(theta)  # exp(-i theta) - 1
    # <a^2> / <a>^2 = exp(z); where exp(z) overflows, <a> may underflow, so
    # the difference is taken from the moments themselves
    z = -1j * theta - k_sq + nc * eps**2
    big = z.real > 1.0
    s13 = np.where(big, 2.0 * (m.a2 - a * a), 2.0 * a * a * np.expm1(np.where(big, 0.0, z)))
    return CovarianceExcess(
        e11=-2.0 * nc * np.expm1(-4.0 * nc * half_sin_sq - k_sq),
        e22=2.0 * k_sq * nc,
        s12=2.0 * a * k * nc * eps,
        s13=s13,
        s14=2.0 * a * np.conj(k) * (1.0 + nc * eps),
        s24=2.0 * np.conj(k) ** 2 * nc,
    )


class CovarianceMatrix(NamedTuple):
    """4x4 Hermitian second-moment matrix in the basis (a, b, a^dag, b^dag),
    plus the first-moment vector; the vacuum gives the identity.  Over a
    grid of times ``sigma`` has shape (n, 4, 4) and ``d`` shape (n, 4)."""

    sigma: np.ndarray
    d: np.ndarray


def covariance(m: MomentSet) -> CovarianceMatrix:
    """Covariance matrix from a moment set.

    Entries follow sigma_nm = <{X_n, X_m^dag}> - 2 <X_n><X_m^dag>; the
    remaining elements are filled by Hermitian symmetry.
    """
    a, b = m.a, m.b
    s11 = 1.0 + 2.0 * m.na - 2.0 * abs(a) ** 2
    s22 = 1.0 + 2.0 * m.nb - 2.0 * abs(b) ** 2
    s13 = 2.0 * m.a2 - 2.0 * a * a
    s24 = 2.0 * m.b2 - 2.0 * b * b
    s12 = 2.0 * m.ab_dag - 2.0 * a * np.conj(b)
    s14 = 2.0 * m.ab - 2.0 * a * b

    sigma = np.array(
        [
            [s11, s12, s13, s14],
            [np.conj(s12), s22, s14, s24],
            [np.conj(s13), np.conj(s14), s11, np.conj(s12)],
            [np.conj(s14), np.conj(s24), s12, s22],
        ],
        dtype=complex,
    )
    d = np.array([a, b, np.conj(a), np.conj(b)], dtype=complex)
    # entries carry the time axis last; move it to the front
    sigma = np.moveaxis(sigma, (0, 1), (-2, -1))
    d = np.moveaxis(d, 0, -1)
    return CovarianceMatrix(sigma=sigma, d=d)
