"""Brute-force validator in a truncated two-mode Fock space.

The Hamiltonian conserves the photon number, so the state evolves as one
mechanical block per photon number n, with omega_c*n an exact phase.  A
time-independent system is propagated exactly from each block's
eigendecomposition; a time-dependent one by fourth-order commutator-free
Magnus steps (CF4): two exponentials per uniform step, of the Hamiltonian
mixed from its values at the two Gauss-Legendre nodes, each applied to all
blocks at once by a Taylor series of the pentadiagonal stencil.  The same
moments as the analytic pipeline are then measured.  Nothing here reads the
analytic chain beyond sizing the default cutoffs, so the oracle stays an
independent referee.  Only the small-parameter envelope is certified; large
couplings blow past any affordable cutoff.  Uses numpy alone.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .decoupling import DecouplingCoefficients
from .errors import ConvergenceError, CutoffInsufficientError, DomainError
from .moments import InitialState
from .profiles import SystemParams

_NORM_TOL = 1e-8
_TAIL_TOL = 1e-8
_TAIL_FRACTION = 0.1
_HALVING_TOL = 1e-4
# Taylor series: stop below this fraction of the state norm; substep so that
# dt times the largest Gershgorin magnitude stays within the reach (no term
# exceeds 8**8/8! ~ 416 times the state norm)
_TAYLOR_TOL = 1e-17
_TAYLOR_REACH = 8.0
# CF4 (Blanes & Moan 2006): a step t -> t + h applies exp(-i h (a2 H1 + a1 H2)),
# then exp(-i h (a1 H1 + a2 H2)), with H_j = H(t + c_j h) at the Gauss-Legendre
# nodes c_1,2 = 1/2 -+ sqrt(3)/6 and a_1,2 = (3 -+ 2 sqrt(3))/12.  As
# a1 + a2 = 1/2, each is an exponential over h/2 of an ordinary Hamiltonian at
# the scalars mixed by the rows of _CF4_MIX.
_CF4_NODES = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0
_CF4_A1, _CF4_A2 = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0, (3.0 + 2.0 * np.sqrt(3.0)) / 12.0
_CF4_MIX = 2.0 * np.array([[_CF4_A2, _CF4_A1], [_CF4_A1, _CF4_A2]])


class FockState(NamedTuple):
    """Two-mode amplitude tensor indexed as amplitudes[n_photons, n_phonons]."""

    amplitudes: np.ndarray

    @property
    def n_c(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def n_m(self) -> int:
        return self.amplitudes.shape[1]

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def tail_fractions(self) -> tuple[float, float]:
        """Occupation fraction in the top 10% of each index."""
        p = np.abs(self.amplitudes) ** 2
        total = max(np.sum(p), 1e-300)
        # the window always covers at least the last basis state
        c_edge = min(int(np.ceil((1.0 - _TAIL_FRACTION) * self.n_c)), self.n_c - 1)
        m_edge = min(int(np.ceil((1.0 - _TAIL_FRACTION) * self.n_m)), self.n_m - 1)
        return (
            float(np.sum(p[c_edge:, :]) / total),
            float(np.sum(p[:, m_edge:]) / total),
        )

    def require_tail_ok(self) -> None:
        c_tail, m_tail = self.tail_fractions()
        if c_tail > _TAIL_TOL or m_tail > _TAIL_TOL:
            raise CutoffInsufficientError(
                f"basis tail occupied (optical {c_tail:.3g}, mechanical {m_tail:.3g}); "
                f"increase the cutoffs ({self.n_c}, {self.n_m})",
                optical_tail=c_tail,
                mechanical_tail=m_tail,
                n_c=self.n_c,
                n_m=self.n_m,
            )


def coherent_amplitudes(mu: complex, n: int) -> np.ndarray:
    """Truncated Fock amplitudes of a coherent state (log-domain, overflow-safe)."""
    m = np.arange(n)
    mag = abs(mu)
    if mag == 0.0:
        out = np.zeros(n, dtype=complex)
        out[0] = 1.0
        return out
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, n)))))[:n]
    log_mag = -0.5 * mag**2 + m * np.log(mag) - 0.5 * log_factorial
    return np.exp(log_mag) * np.exp(1j * m * np.angle(mu))


def product_coherent(init: InitialState, n_c: int, n_m: int) -> FockState:
    """Separable coherent state |mu_c> x |mu_m>."""
    state = FockState(
        np.outer(coherent_amplitudes(init.mu_c, n_c), coherent_amplitudes(init.mu_m, n_m))
    )
    state.require_tail_ok()
    return state


def _ladder_roots(n: int) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(m+1) and sqrt((m+1)(m+2)): the entries of b and b^2 above the
    diagonal on an n-level truncation."""
    m = np.arange(1.0, n)
    return np.sqrt(m), np.sqrt(m[:-1] * m[1:])


class BlockHamiltonian:
    """The Hamiltonian at one instant, split by photon number.

    H commutes with the photon number, so H = sum_n |n><n| x H_n with the
    mechanical block H_n = omega_c*n + diag + lin[n]*X + d2*(b^2 + b^dag^2),
    X = b + b^dag.  Only the real pentadiagonal part H_n - omega_c*n is held:
    the cavity term is a phase on each block.  ``diag`` is N + d2 times the
    diagonal of the truncated X @ X (2m+1, and m at the last level), so every
    block equals the truncation of the full Hamiltonian.
    """

    def __init__(self, diag: np.ndarray, lin: np.ndarray, d2: float):
        self.diag = diag  # (n_m,)
        self.lin = lin  # (n_c,) linear coefficient d1 - g*n
        self.d2 = d2

    @property
    def n_m(self) -> int:
        return self.diag.size

    def block(self, n: int) -> np.ndarray:
        """Dense H_n - omega_c*n, laid out from the stencil."""
        rows = np.arange(self.n_m)[:, None]
        h = np.zeros((self.n_m, self.n_m + 4))
        h[rows, rows + np.arange(5)] = self.stencil[n]
        return h[:, 2:-2]

    @cached_property
    def stencil(self) -> np.ndarray:
        """(n_c, n_m, 5) weights: (H_n - omega_c*n) psi_n at level m is the sum
        over k of stencil[n, m, k] * psi_n[m + k - 2] (zero off the basis)."""
        root1, root2 = _ladder_roots(self.n_m)
        w = np.zeros((self.lin.size, self.n_m, 5))
        w[:, :, 2] = self.diag
        w[:, 1:, 1] = w[:, :-1, 3] = np.outer(self.lin, root1)
        w[:, 2:, 0] = w[:, :-2, 4] = self.d2 * root2
        return w

    def spectral_bounds(self) -> tuple[float, float]:
        """Gershgorin interval holding the spectrum of every H_n - omega_c*n."""
        radius = np.abs(self.stencil[:, :, [0, 1, 3, 4]]).sum(axis=2)
        return float(np.min(self.diag - radius)), float(np.max(self.diag + radius))


def build_hamiltonian(system: SystemParams, tau: float, n_c: int, n_m: int) -> BlockHamiltonian:
    """Photon-number blocks of the Hamiltonian at time tau on the truncated space."""
    return _blocks_at(
        float(system.squeezing.d2_at(tau)),
        float(system.coupling.g_at(tau)),
        float(system.coupling.drive_at(tau)),
        n_c,
        n_m,
    )


def _blocks_at(d2: float, g: float, d1: float, n_c: int, n_m: int) -> BlockHamiltonian:
    """The blocks at squeezing d2, coupling g and drive d1: each H_n is affine
    in the three scalars, with the mechanical number operator fixed."""
    if n_c < 2 or n_m < 2:
        raise DomainError("Fock cutoffs must be at least 2")
    m = np.arange(n_m, dtype=float)
    pos_sq_diag = 2.0 * m + 1.0
    pos_sq_diag[-1] = m[-1]
    return BlockHamiltonian(
        diag=m + d2 * pos_sq_diag,
        lin=d1 - g * np.arange(n_c, dtype=float),
        d2=d2,
    )


def default_dt(system: SystemParams, tau_final: float, n_c: int) -> float:
    """Fourth-order steps, 25 per period of the fastest mechanical scale,
    the squeezing modulation's included; the cavity frequency is applied
    exactly as a per-block phase and sets no step."""
    rate_sq = 1.0 + 4.0 * system.squeezing.max_abs(tau_final)
    g_scale = system.coupling.g_max(tau_final) * np.sqrt(n_c)
    omega0 = abs(getattr(system.squeezing, "omega0", 0.0))  # modulated profiles only
    return 2.0 * np.pi / (25.0 * max(rate_sq, g_scale, omega0, 1.0))


def _propagate_exact(psi: np.ndarray, h: BlockHamiltonian, tau: float) -> np.ndarray:
    """exp(-i (H_n - omega_c*n) tau) on each block, from one block's eigh at a
    time so that only one dense n_m x n_m array is alive."""
    out = np.empty_like(psi)
    for n in range(psi.shape[0]):
        lam, vec = np.linalg.eigh(h.block(n))
        # the real eigenvectors act on the (re, im) columns of the block
        coef = (vec.T @ psi[n].view(float).reshape(-1, 2)).view(complex)[:, 0]
        coef *= np.exp(-1j * lam * tau)
        out[n] = (vec @ coef.view(float).reshape(-1, 2)).view(complex)[:, 0]
    return out


def _taylor_step(psi: np.ndarray, h: BlockHamiltonian, dt: float) -> np.ndarray:
    """exp(-i (H_n - omega_c*n) dt) on every block at once, by a Taylor series
    of the stencil matvec about 0; the step is split into equal substeps
    wherever dt times the largest magnitude in the Gershgorin interval exceeds
    _TAYLOR_REACH, so no series term can grow large."""
    lo, hi = h.spectral_bounds()
    n_sub = max(int(np.ceil(dt * max(-lo, hi) / _TAYLOR_REACH)), 1)
    weights = (-1j * dt / n_sub) * h.stencil
    # two alternating term buffers and the running sum, each padded by two
    # zero levels on either side: the five neighbours of every level are one
    # strided view, and since the padding stays zero, norms, scalings and
    # sums can run over whole contiguous buffers
    n_c, n_m = psi.shape
    pads = np.zeros((3, n_c, n_m + 4), dtype=complex)
    windows = sliding_window_view(pads, 5, axis=2)
    levels = pads[:, :, 2:-2]
    total = pads[2]
    levels[2] = psi
    for _ in range(n_sub):
        floor = _TAYLOR_TOL**2 * np.vdot(total, total).real
        pads[0] = total
        k = 0
        while np.vdot(pads[k % 2], pads[k % 2]).real > floor:
            np.einsum("cmk,cmk->cm", windows[k % 2], weights, out=levels[(k + 1) % 2])
            k += 1
            pads[k % 2] *= 1.0 / k
            total += pads[k % 2]
    return levels[2].copy()


def _run_steps(psi: np.ndarray, system: SystemParams, tau_final: float,
               n_steps: int) -> np.ndarray:
    """n_steps CF4 steps, with each profile sampled at all 2*n_steps nodes in
    one call; the exponentials run in step order, two per step."""
    dt = tau_final / n_steps
    nodes = (np.arange(n_steps)[:, None] + _CF4_NODES) * dt
    scalars = [
        np.einsum("ki,ji->kj", at(nodes), _CF4_MIX).ravel()
        for at in (system.squeezing.d2_at, system.coupling.g_at, system.coupling.drive_at)
    ]
    for d2, g, d1 in zip(*scalars):
        psi = _taylor_step(psi, _blocks_at(d2, g, d1, *psi.shape), 0.5 * dt)
    return psi


def evolve(
    psi0: FockState,
    system: SystemParams,
    tau_final: float,
    dt: float | None = None,
    *,
    check_convergence: bool = True,
) -> FockState:
    """Evolve a truncated state to tau_final, one photon-number block at a time.

    omega_c*n is applied exactly, as the phase exp(-i omega_c n tau_final) on
    block n.  A time-independent system is propagated exactly from each
    block's eigendecomposition; ``dt`` and ``check_convergence`` do not apply
    to it.  Otherwise each uniform step is a fourth-order commutator-free
    Magnus step (two exponentials of the Hamiltonian mixed from its values at
    the two Gauss-Legendre nodes), and with ``check_convergence`` the run is
    repeated at half the step and the moments must agree to 1e-4 relative;
    the finer state is returned.  Norm drift or occupied basis tails raise
    flagged-run errors with diagnostics.
    """
    if tau_final < 0.0:
        raise DomainError("tau_final must be non-negative")
    n_c, n_m = psi0.n_c, psi0.n_m
    if tau_final == 0.0:
        return FockState(psi0.amplitudes.copy())

    psi0_amp = np.ascontiguousarray(psi0.amplitudes, dtype=complex)
    if system.is_time_independent:
        psi = _propagate_exact(psi0_amp, build_hamiltonian(system, 0.0, n_c, n_m), tau_final)
    else:
        if dt is None:
            dt = default_dt(system, tau_final, n_c)
        n_steps = max(int(np.ceil(tau_final / dt - 1e-12)), 1)
        psi = _run_steps(psi0_amp, system, tau_final, n_steps)
        if check_convergence:
            fine = _run_steps(psi0_amp, system, tau_final, 2 * n_steps)
            coarse = measure_moments(FockState(psi), 0.0, tau_final)
            refined = measure_moments(FockState(fine), 0.0, tau_final)
            for name in ("a", "b", "a2", "b2", "na", "nb", "ab", "ab_dag"):
                x, y = getattr(coarse, name), getattr(refined, name)
                drift = abs(x - y) / max(abs(y), 1e-6)
                if drift > _HALVING_TOL:
                    raise ConvergenceError(
                        f"moment {name} moved by {drift:.3g} under step halving",
                        moment=name,
                        drift=drift,
                        dt=tau_final / n_steps,
                    )
            psi = fine
    cavity = np.exp(-1j * system.omega_c * tau_final * np.arange(n_c))
    state = FockState(cavity[:, None] * psi)

    drift = abs(state.norm_sq() - 1.0)
    if drift > _NORM_TOL:
        raise ConvergenceError(
            f"norm drifted by {drift:.3g} during evolution", norm_drift=drift
        )
    state.require_tail_ok()
    return state


class MeasuredMoments(NamedTuple):
    """The eight moments measured from a Fock-space state (rotating frame)."""

    a: complex
    b: complex
    a2: complex
    b2: complex
    na: float
    nb: float
    ab: complex
    ab_dag: complex


def measure_moments(state: FockState, omega_c: float, tau: float) -> MeasuredMoments:
    """Measure all eight moments, removing the cavity rotation accumulated by
    a lab-frame evolution (pass omega_c = 0 for states built in the rotating
    frame).  Each ladder operator acts on the amplitude tensor as a shift of
    one index, weighted by sqrt(n)."""
    psi = state.amplitudes
    root_c, root2_c = _ladder_roots(state.n_c)
    root_m, root2_m = _ladder_roots(state.n_m)
    root_c, root2_c = root_c[:, None], root2_c[:, None]
    p = np.abs(psi) ** 2

    phase = np.exp(1j * omega_c * tau)
    a = complex(np.vdot(psi[:-1], root_c * psi[1:])) * phase
    b = complex(np.vdot(psi[:, :-1], root_m * psi[:, 1:]))
    a2 = complex(np.vdot(psi[:-2], root2_c * psi[2:])) * phase**2
    b2 = complex(np.vdot(psi[:, :-2], root2_m * psi[:, 2:]))
    na = float(np.arange(state.n_c) @ p.sum(axis=1))
    nb = float(p.sum(axis=0) @ np.arange(state.n_m))
    ab = complex(np.vdot(psi[:-1, :-1], root_c * root_m * psi[1:, 1:])) * phase
    ab_dag = complex(np.vdot(psi[:-1, 1:], root_c * root_m * psi[1:, :-1])) * phase
    return MeasuredMoments(a=a, b=b, a2=a2, b2=b2, na=na, nb=nb, ab=ab, ab_dag=ab_dag)


def default_cutoffs(init: InitialState, coeffs: DecouplingCoefficients) -> tuple[int, int]:
    """Heuristic cutoffs sized from the coherent amplitudes; callers should
    double them if the tail check trips."""

    def room(amplitude: float) -> int:
        return int(np.ceil(amplitude**2 + 6.0 * amplitude + 8.0))

    mu_c = abs(complex(init.mu_c))
    n_c = room(mu_c)
    n_occ = int(np.ceil(mu_c**2 + 4.0 * mu_c + 4.0))
    reach = (
        abs(complex(init.mu_m))
        + abs(coeffs.displacement)
        + min(n_occ, n_c - 1) * abs(coeffs.number_displacement)
    )
    return n_c, room(reach)
