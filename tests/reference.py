"""Independent references that only the tests use, each a second route to something
the package computes, kept apart from the code it referees."""

import warnings
from typing import NamedTuple

import mpmath
import numpy as np

from optomech import (DecouplingCoefficients, InitialState, ValidationError, ValidityWarning,
                      moments, non_gaussianity, squeezing_frame_excess)
from optomech._interp import hermite_eval
from optomech.decoupling import _cumulative_simpson
from optomech.fock import FockState, coherent_amplitudes
from optomech.squeezing import stumpff

_HERMITIAN_TOL = 1e-8


class OffsetCosineSqueezing(NamedTuple):
    """D2(tau) = 0.35*cos(1.7*tau) + 0.05: a modulation about a nonzero mean,
    which neither package profile covers; ``d2`` bounds |D2| and so sizes the
    solver grid, as in the package profiles."""

    d2: float = 0.4

    def d2_at(self, tau):
        return 0.35 * np.cos(1.7 * np.asarray(tau, dtype=float)) + 0.05


def zero_coefficients() -> DecouplingCoefficients:
    """All six coefficients at tau = 0: the identity evolution."""
    return DecouplingCoefficients(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def constant_solution(d2: float, tau):
    """Closed-form (cosine-like, sine-like) solutions (c0, tau*c1) for constant squeezing."""
    c0, c1, _, _ = stumpff(d2, tau)
    return c0, np.asarray(tau, dtype=float) * c1


def identity_residual(sol) -> np.ndarray:
    """Relative Wronskian defect of a ``QuadraticSolution`` on its grid: |W - 1|
    over the magnitude of the two products in
    W = cos_sol * sin_deriv - sin_sol * cos_deriv."""
    direct = sol.cos_sol * sol.sin_deriv
    cross = sol.sin_sol * sol.cos_deriv
    return np.abs(direct - cross - 1.0) / (np.abs(direct) + np.abs(cross))


def bogoliubov_residual(sol) -> np.ndarray:
    """| |alpha|^2 - |beta|^2 - 1 | of a ``QuadraticSolution`` on its grid."""
    alpha, beta = sol.bogoliubov(sol.tau)
    return np.abs(np.abs(alpha) ** 2 - np.abs(beta) ** 2 - 1.0)


def rwa_mode(d2: float, tau):
    """Rotating-wave mode function exp(-i tau) cosh(d2 tau) + i exp(i tau) sinh(d2 tau).

    Equals the two-scale mode function once the 1/(1 - d2) factor is replaced
    by unity, which is consistent at the order the two-scale form is valid.
    """
    t = np.asarray(tau, dtype=float)
    return np.exp(-1j * t) * np.cosh(d2 * t) + 1j * np.exp(1j * t) * np.sinh(d2 * t)



class SixTables:
    """The six coefficients from six cumulative tables, each integrand
    multiplied by g or d1 before it is integrated: a second route to the
    (g, d1) scaling of the three unit tables in ``DecouplingTables``."""

    def __init__(self, sol, coupling):
        self._sol = sol
        self._step = sol.step

        g, d1 = map(float, coupling)
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
        if d1 != 0.0:
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

def _resonant_warn(d2: float, tau: float) -> None:
    stretch = abs(d2) * np.cosh(d2 * tau)
    if stretch > 0.1:
        warnings.warn(
            f"resonant closed forms stretched beyond their validity "
            f"(d2*cosh(d2*tau) = {stretch:.3g})",
            ValidityWarning,
            stacklevel=3,
        )


def resonant_coefficients(g0: float, d2: float, tau: float) -> DecouplingCoefficients:
    """Second-order-in-d2 coefficients for squeezing modulated at resonance.

    Polynomial-times-trigonometric forms; terms of order d2^3 are dropped.
    """
    _resonant_warn(d2, tau)
    t = float(tau)
    sin_t, cos_t = np.sin(t), np.cos(t)
    sin_2t, cos_2t = np.sin(2.0 * t), np.cos(2.0 * t)
    sin_half_sq = np.sin(0.5 * t) ** 2

    num_sq = g0**2 * t * (1.0 - d2) * (np.sinc(2.0 * t / np.pi) - 1.0) + 0.5 * g0**2 * d2**2 * (
        (2.0 * t**2 - 3.0) * sin_2t + 2.0 * t + 4.0 * t * cos_2t
    )
    num_pos = (
        -g0 * sin_t
        - g0 * d2 * (t * cos_t - sin_t)
        - 0.5 * g0 * d2**2 * ((t**2 - 2.0) * sin_t + 2.0 * t * cos_t)
    )
    num_mom = (
        -2.0 * g0 * sin_half_sq
        + g0 * d2 * (t * sin_t - 2.0 * sin_half_sq)
        + 0.5 * g0 * d2**2 * ((t**2 - 2.0) * cos_t - 2.0 * t * sin_t + 2.0)
    )
    return DecouplingCoefficients(
        num=0.0,
        num_sq=float(num_sq),
        pos=0.0,
        mom=0.0,
        num_pos=float(num_pos),
        num_mom=float(num_mom),
        tau=t,
    )


def number_displacement_sq_resonant(g0: float, d2: float, tau: float) -> float:
    """Closed form of |per-photon displacement|^2 at resonance, truncated at d2^2."""
    t = float(tau)
    sin_t, cos_t = np.sin(t), np.cos(t)
    sin_2t, cos_2t = np.sin(2.0 * t), np.cos(2.0 * t)
    sin_half_sq = np.sin(0.5 * t) ** 2
    value = (
        4.0 * g0**2 * sin_half_sq
        + g0**2 * d2**2 * (t**2 - 2.0 * (2.0 - t**2) * sin_half_sq)
        - 2.0
        * g0**2
        * d2
        * (t * (sin_t - sin_2t) + (cos_t - cos_2t) - 2.0 * sin_half_sq)
    )
    return float(value)


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


def optical_block(cm) -> np.ndarray:
    """The (a, a^dag) block of a :class:`CovarianceMatrix`."""
    return cm.sigma[..., ::2, ::2]


def mechanical_block(cm) -> np.ndarray:
    """The (b, b^dag) block of a :class:`CovarianceMatrix`."""
    return cm.sigma[..., 1::2, 1::2]


def hermiticity_defect(cm) -> float:
    return float(np.max(np.abs(cm.sigma - np.conj(np.swapaxes(cm.sigma, -1, -2)))))


def squeezing_frame_report(coeffs: DecouplingCoefficients, mu_c: complex):
    """The report on ``coeffs`` as the engine forms it, from the excess at
    alpha = 1, beta = 0 and an initial coherent state mu_c."""
    m = moments(coeffs, 1.0, 0.0, InitialState(mu_c, 0.0))
    return non_gaussianity(squeezing_frame_excess(coeffs, m),
                           number_displacement=coeffs.number_displacement, mu_c=mu_c)


def subsystem_eigenvalues_mp(coeffs: DecouplingCoefficients, mu_c: complex, dps: int = 60):
    """The closed-form subsystem eigenvalues (nu_op, nu_me) of an initially
    coherent state with n_c = |mu_c|^2, from the per-photon displacement k
    and the Kerr phase theta, in mpmath at ``dps`` digits."""
    fields = np.broadcast_arrays(coeffs.num_sq, coeffs.num_pos, coeffs.num_mom)
    nu_op, nu_me = np.empty(fields[0].shape), np.empty(fields[0].shape)
    with mpmath.workdps(dps):
        nc = abs(mpmath.mpc(complex(mu_c))) ** 2
        for i in np.ndindex(nu_op.shape):
            num_sq, num_pos, num_mom = (mpmath.mpf(float(f[i])) for f in fields)
            k_sq = num_pos**2 + num_mom**2
            theta = 2 * (num_sq + num_pos * num_mom)
            decay = mpmath.exp(-4 * nc * mpmath.sin(theta / 2) ** 2 - k_sq)
            cross = mpmath.re(mpmath.exp(1j * theta + nc * (mpmath.exp(2j * theta) - 1)
                                         + 2 * nc * (mpmath.exp(-1j * theta) - 1)))
            nu_op_sq = 1 + 4 * nc * (1 - decay) + 4 * nc**2 * (
                1 - 2 * decay - mpmath.exp(-4 * k_sq - 4 * nc * mpmath.sin(theta) ** 2)
                + 2 * mpmath.exp(-3 * k_sq) * cross
            )
            nu_op[i] = float(mpmath.sqrt(nu_op_sq))
            nu_me[i] = float(mpmath.sqrt(1 + 4 * k_sq * nc))
    return nu_op[()], nu_me[()]


def destroy(n: int) -> np.ndarray:
    """Annihilation operator on an n-dimensional truncated Fock space."""
    return np.diag(np.sqrt(np.arange(1.0, n)), 1)


def dense_block(w: np.ndarray, n: int) -> np.ndarray:
    """Dense H_n - omega_c*n, laid out from the (n_c, n_m, 5) stencil."""
    n_m = w.shape[1]
    rows = np.arange(n_m)[:, None]
    out = np.zeros((n_m, n_m + 4))
    out[rows, rows + np.arange(5)] = w[n]
    return out[:, 2:-2]


def photon_weights(state: FockState) -> np.ndarray:
    """Probability of each photon number (mechanical trace)."""
    return np.sum(np.abs(state.amplitudes) ** 2, axis=1)


def fidelity(s1: FockState, s2: FockState) -> float:
    """|<s1|s2>|^2 (insensitive to global phases)."""
    return float(abs(np.vdot(s1.amplitudes.reshape(-1), s2.amplitudes.reshape(-1))) ** 2)


def mechanical_purity(state: FockState) -> float:
    """Purity of the reduced mechanical density matrix (photon index traced out)."""
    a = state.amplitudes
    rho = np.einsum("nm,nk->mk", a, a.conj())
    return float(np.real(np.sum(np.abs(rho) ** 2)))


def squeeze_rotation_matrix(alpha: complex, beta: complex, n: int) -> np.ndarray:
    """Fock-space matrix of the Gaussian unitary with the given Bogoliubov pair.

    Any single-mode quadratic unitary is a squeeze times a rotation up to a
    global phase; the phase is common to every state the matrix acts on, so
    superpositions built with it carry consistent relative phases.
    """
    r = np.arccosh(max(abs(alpha), 1.0))
    theta = -np.angle(alpha)
    rot = np.diag(np.exp(-1j * theta * np.arange(n)))
    if abs(beta) < 1e-15 or r == 0.0:
        return rot
    phi = np.angle(-beta) - theta
    xi = r * np.exp(1j * phi)
    b = destroy(n)
    # exp(gen) for the anti-Hermitian gen = (conj(xi) b^2 - xi b^dag^2) / 2,
    # from the eigendecomposition of the Hermitian generator i*gen
    lam, vec = np.linalg.eigh(0.5j * (np.conj(xi) * (b @ b) - xi * (b.T @ b.T)))
    return (vec * np.exp(-1j * lam)) @ vec.conj().T @ rot


def analytic_ket(
    coeffs: DecouplingCoefficients,
    alpha: complex,
    beta: complex,
    init: InitialState,
    n_c: int,
    n_m: int,
    *,
    omega_c: float = 0.0,
) -> FockState:
    """Closed-form evolved ket built from the decoupling coefficients.

    Photon-number branches carry the decoupling phases and a mechanical
    squeezed coherent state displaced once per photon; pass the cavity
    frequency to obtain the lab-frame ket (fidelity against a lab-frame
    evolution), or leave it zero for rotating-frame moments.
    """
    tau = coeffs.tau
    k_conj = np.conj(coeffs.displacement)
    k_n_conj = np.conj(coeffs.number_displacement)
    mu_m = complex(init.mu_m)

    n = np.arange(n_c)
    weights = coherent_amplitudes(init.mu_c, n_c)
    phase_sq = np.exp(-1j * (coeffs.num_sq + coeffs.num_pos * coeffs.num_mom) * n**2)
    linear = (
        omega_c * tau
        + coeffs.num
        + coeffs.num_pos * coeffs.mom
        + coeffs.num_mom * coeffs.pos
        + np.imag(coeffs.number_displacement * mu_m)
    )
    phase_lin = np.exp(-1j * linear * n)
    global_phase = np.exp(
        -1j * (coeffs.pos * coeffs.mom + np.imag(coeffs.displacement * mu_m))
    )

    gauss = squeeze_rotation_matrix(alpha, beta, n_m)
    amplitudes = np.empty((n_c, n_m), dtype=complex)
    for k in range(n_c):
        branch = k_conj + k * k_n_conj + mu_m
        amplitudes[k] = (
            global_phase
            * weights[k]
            * phase_sq[k]
            * phase_lin[k]
            * (gauss @ coherent_amplitudes(branch, n_m))
        )
    state = FockState(amplitudes)
    state.require_tail_ok()
    return state
