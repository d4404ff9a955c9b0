"""Relative-entropy non-Gaussianity of the evolved state.

For a pure global state the measure is the von Neumann entropy of the
Gaussian reference sharing the state's first and second moments, computed
from the symplectic eigenvalues of the covariance matrix.  Subsystem
eigenvalues give computable lower/upper bounds through the Araki-Lieb
inequality.  Symplectic eigenvalues, and so the measure and its bounds, do
not change under local Gaussian unitaries, so the covariance may be taken
in any frame that differs from the lab frame by a local Bogoliubov map.
All functions accept stacks of covariance matrices (shape (..., 2n, 2n)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoupling import DecouplingCoefficients
from .errors import DomainError, ValidationError

_CLAMP = 1e-6
_BOUND_SLACK = 1e-9
_HERMITIAN_TOL = 1e-8


@dataclass(frozen=True)
class NonGaussianityReport:
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
    regime: str


def _symplectic_form(n_modes: int) -> np.ndarray:
    # basis (a_1..a_N, a_1^dag..a_N^dag)
    return np.diag([-1j] * n_modes + [1j] * n_modes)


def symplectic_eigenvalues(sigma: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues |eig(i Omega sigma)|, sorted descending along
    the last axis; ``sigma`` may be one matrix or a stack of them.

    Each eigenvalue of i*Omega*sigma appears twice up to sign; degenerate
    pairs are averaged.  Physical covariance matrices give values >= 1.
    """
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.ndim < 2 or sigma.shape[-1] != sigma.shape[-2] or sigma.shape[-1] % 2:
        raise ValidationError("covariance matrix must be square with even dimension")
    scale = np.maximum(np.max(np.abs(sigma), axis=(-2, -1)), 1.0)
    defect = np.max(np.abs(sigma - np.conj(np.swapaxes(sigma, -1, -2))), axis=(-2, -1))
    if np.any(defect > _HERMITIAN_TOL * scale):
        raise ValidationError(f"covariance matrix not Hermitian (defect {np.max(defect):.3g})")
    n = sigma.shape[-1] // 2
    lam = np.linalg.eigvals(1j * _symplectic_form(n) @ sigma)
    nus = np.sort(np.abs(lam), axis=-1)[..., ::-1]
    return 0.5 * (nus[..., 0::2] + nus[..., 1::2])


def mode_entropy(nu):
    """Entropy of a bosonic mode with symplectic eigenvalue nu, in nats.

    Values in [1 - 1e-6, 1) are clamped to 1; smaller values are rejected as
    unphysical.
    """
    x = np.asarray(nu, dtype=float)
    if np.any(x < 1.0 - _CLAMP):
        raise DomainError(f"symplectic eigenvalue below 1 - {_CLAMP:g}: {np.min(x):.9g}")
    x = np.maximum(x, 1.0)
    up = 0.5 * (x + 1.0)
    dn = 0.5 * (x - 1.0)
    # up*log(up) - dn*log(dn) with up = dn + 1, free of cancellation at large nu;
    # the placeholder 1 keeps the dn = 0 term exactly 0
    out = np.log(up) + dn * np.log1p(1.0 / np.where(dn > 0.0, dn, 1.0))
    return float(out) if out.ndim == 0 else out


def araki_lieb_bounds(nu_op: float, nu_me: float) -> tuple[float, float]:
    """Lower/upper bounds on the measure from the subsystem entropies."""
    s_op = mode_entropy(nu_op)
    s_me = mode_entropy(nu_me)
    return abs(s_op - s_me), s_op + s_me


def subsystem_eigenvalues(coeffs: DecouplingCoefficients, mu_c: complex) -> tuple[float, float]:
    """Closed-form symplectic eigenvalues of the optical and mechanical
    subsystems for an initially coherent state.

    Both are independent of the mechanical coherent amplitude.
    """
    nc = abs(complex(mu_c)) ** 2
    k_sq = abs(coeffs.number_displacement) ** 2
    theta = coeffs.kerr_phase

    nu_me = np.sqrt(1.0 + 4.0 * k_sq * nc)

    decay = np.exp(-4.0 * nc * np.sin(0.5 * theta) ** 2) * np.exp(-k_sq)
    cross = np.real(
        np.exp(1j * theta)
        * np.exp(nc * (np.exp(2j * theta) - 1.0))
        * np.exp(2.0 * nc * (np.exp(-1j * theta) - 1.0))
    )
    nu_op_sq = (
        1.0
        + 4.0 * nc * (1.0 - decay)
        + 4.0
        * nc**2
        * (
            1.0
            - 2.0 * decay
            - np.exp(-4.0 * k_sq) * np.exp(-4.0 * nc * np.sin(theta) ** 2)
            + 2.0 * np.exp(-3.0 * k_sq) * cross
        )
    )
    nu_op = np.sqrt(np.maximum(nu_op_sq, 0.0))

    bound = np.sqrt(1.0 + 4.0 * nc + 4.0 * nc**2)
    if np.any(nu_op > bound + _BOUND_SLACK):
        raise ValidationError(
            f"optical eigenvalue {np.max(nu_op):.12g} exceeds its bound {bound:.12g}"
        )
    return nu_op, nu_me


def classify_regime(number_displacement_mag, mu_c_mag: float):
    """Coarse regime tag from |per-photon displacement| against 2|mu_c|,
    elementwise over an array of displacements.

    Within a factor of 2 the two scales are comparable ("balanced");
    otherwise the smaller-displacement side leaves the optical subsystem
    dominating the measure and vice versa.  The asymptotic closed forms for
    the dominated regimes only become quantitative once the separation
    reaches a factor of about 5.
    """
    k = np.abs(number_displacement_mag)
    two_mu = 2.0 * abs(mu_c_mag)
    if two_mu < 1e-12:
        tag = np.where(k < 1e-12, "balanced", "mechanical-dominated")
    else:
        ratio = k / two_mu
        tag = np.where(
            (0.5 <= ratio) & (ratio <= 2.0),
            "balanced",
            np.where(ratio < 1.0, "optical-dominated", "mechanical-dominated"),
        )
    return tag[()]


def non_gaussianity(
    sigma: np.ndarray,
    *,
    number_displacement: complex,
    mu_c: complex,
) -> NonGaussianityReport:
    """Measure of non-Gaussianity with Araki-Lieb bounds, from one 4x4
    covariance matrix or a stack of them (shape (n, 4, 4)).

    Any frame related to the lab frame by a local Gaussian unitary gives the
    same report; the engine passes the squeezing frame, whose entries stay
    of order one where the lab-frame entries grow like |beta|^2.
    """
    sigma = np.asarray(sigma, dtype=complex)
    nu_full = symplectic_eigenvalues(sigma)
    delta = np.sum(mode_entropy(nu_full), axis=-1)
    nu_op = symplectic_eigenvalues(sigma[..., ::2, ::2])[..., 0]
    nu_me = symplectic_eigenvalues(sigma[..., 1::2, 1::2])[..., 0]
    delta_min, delta_max = araki_lieb_bounds(nu_op, nu_me)

    excess = np.maximum(delta_min - delta, delta - delta_max)
    if np.any(excess > _BOUND_SLACK):
        raise ValidationError(f"measure escapes its bounds by {np.max(excess):.3g}")
    return NonGaussianityReport(
        delta=delta,
        delta_min=delta_min,
        delta_max=delta_max,
        nu_full=nu_full,
        nu_op=nu_op,
        nu_me=nu_me,
        regime=classify_regime(number_displacement, mu_c),
    )
