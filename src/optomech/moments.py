"""First and second moments of the evolved two-mode state.

All optical moments are reported in the frame co-rotating with the cavity;
<a> e^{-i omega_c tau} is the lab-frame amplitude.  ``MomentSet`` is the one
record of the eight moments: the analytic chain returns it, and so does the
truncated-Fock oracle, which measures the same eight.
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
    """The eight first and second moments at one time, or arrays of them
    over tau, in the row order of ``oracle-check``.  The photon number
    ``na`` is conserved, so the analytic chain keeps it a scalar.
    ``displacement_amplitudes`` and ``kick_overlap`` give the auxiliaries
    that enter them."""

    a: complex
    b: complex
    a2: complex
    b2: complex
    na: float
    nb: float
    ab: complex
    ab_dag: complex


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
    magnitude is exp(-|number_displacement|^2) independently of mu_m, which
    enters as the phase -2i Im(mu_m k).  Kept apart from the decay, that
    phase cannot round it away at large |mu_m|.
    """
    k_n = coeffs.number_displacement
    phase = coeffs.num_mom * coeffs.num_pos + 2.0 * np.imag(mu_m * k_n)
    return np.exp(-0.5 * abs(k_n) ** 2 - 1j * phase)


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
    nc = np.abs(mu_c) ** 2

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
        * np.square(mu_c)
        * eth
        * np.exp(nc * (np.exp(-2j * theta) - 1.0))
        * np.exp(-abs(k_n) ** 2)
        * overlap**2
    )
    b2 = b * b + photon_shift**2 * nc + alpha * beta
    nb = abs(b) ** 2 + abs(photon_shift) ** 2 * nc + abs(beta) ** 2
    ab = a * (b + dephase * photon_shift - beta * k_n)
    ab_dag = a * (np.conj(b) + dephase * np.conj(photon_shift) - np.conj(alpha) * k_n)

    return MomentSet(a=a, b=b, a2=a2, b2=b2, na=nc, nb=nb, ab=ab, ab_dag=ab_dag)


class CovarianceExcess(NamedTuple):
    """The six independent entries of sigma - I, in the basis and layout of
    :func:`covariance`: the real diagonal excesses ``e11`` and ``e22``
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
    form, with no subtraction of large moments.  Factors 2 and 4 apply last
    (the same rounding), so every entry is 0 at tau = 0 for any finite n_c.
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
    s13 = np.where(big, 2.0 * (m.a2 - a * a), 2.0 * (a * a * np.expm1(np.where(big, 0.0, z))))
    return CovarianceExcess(
        e11=-2.0 * (nc * np.expm1(-4.0 * (nc * half_sin_sq) - k_sq)),
        e22=2.0 * k_sq * nc,
        s12=2.0 * a * k * nc * eps,
        s13=s13,
        s14=2.0 * a * np.conj(k) * (1.0 + nc * eps),
        s24=2.0 * np.conj(k) ** 2 * nc,
    )


def covariance(m: MomentSet) -> np.ndarray:
    """The 4x4 Hermitian covariance matrix sigma of a moment set, in the
    basis (a, b, a^dag, b^dag); the vacuum gives the identity.  Over a grid
    of times it has shape (n, 4, 4).

    Entries follow sigma_nm = <{X_n, X_m^dag}> - 2 <X_n><X_m^dag>; the
    remaining elements are filled by Hermitian symmetry.  The diagonal takes
    the variance before the vacuum term, so a bright coherent state keeps it.
    """
    a, b = m.a, m.b
    s11 = 1.0 + 2.0 * (m.na - abs(a) ** 2)
    s22 = 1.0 + 2.0 * (m.nb - abs(b) ** 2)
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
    # entries carry the time axis last; move it to the front
    return np.moveaxis(sigma, (0, 1), (-2, -1))
