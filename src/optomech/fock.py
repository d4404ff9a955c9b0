"""Brute-force validator in a truncated two-mode Fock space.

The Hamiltonian conserves the photon number, so the state evolves as one
mechanical block per photon number n, with omega_c*n an exact phase.  The
Hamiltonian has one form, an (n_c, n_m, 5) array of real weights: the
pentadiagonal stencil of every block.  Every exponential is applied to all
blocks at once by a Taylor series of that stencil; no dense block is formed.
Every run is one schedule of exponentials (``_run_steps``): a static system
takes one over the whole span; a time-dependent one takes ``_step_count``
fourth-order commutator-free Magnus steps (CF4) at ``default_dt``, two
exponentials per uniform step of the Hamiltonian mixed from its values at the
two Gauss-Legendre nodes, and is refused past _STEP_CAP steps before any
exponential.  The same moments as the analytic pipeline are then measured.
The oracle sets its own accuracy: a half-step re-run checks the step, and
``evolve`` owns the basis: n_m doubles until its tail stays empty along every
run it keeps, the half-step re-run included, from a start that
``product_coherent`` sizes from the initial state alone.
Nothing here reads the analytic chain, so the oracle stays an independent
referee.  Only the small-parameter envelope is certified; large couplings
blow past any affordable cutoff.  Uses numpy alone, and no LAPACK routine.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConvergenceError, CutoffInsufficientError, DomainError
from .moments import InitialState
from .profiles import SystemParams

_NORM_TOL = 1e-8
_TAIL_TOL = 1e-8
_TAIL_FRACTION = 0.1
_HALVING_TOL = 1e-4
# the largest truncated dimension n_c * n_m the oracle propagates
_DIM_CAP = 60_000
_STEP_CAP = 500  # the most CF4 steps a time-dependent run takes
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
        """Occupation fraction in the top 10% of each index, and at least in
        the last two mechanical levels, which no state of one parity skips."""
        p = np.abs(self.amplitudes) ** 2
        total = max(np.sum(p), 1e-300)
        # photon numbers are Poisson, so the last optical level alone will do
        c_edge = min(int(np.ceil((1.0 - _TAIL_FRACTION) * self.n_c)), self.n_c - 1)
        m_edge = min(int(np.ceil((1.0 - _TAIL_FRACTION) * self.n_m)), self.n_m - 2)
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


def _require_within_cap(n_c: int, n_m: int) -> None:
    if n_c * n_m > _DIM_CAP:
        raise CutoffInsufficientError(
            f"cutoffs ({n_c}, {n_m}) give truncated dimension {n_c * n_m}, "
            f"above the oracle's cap of {_DIM_CAP}", n_c=n_c, n_m=n_m)


def product_coherent(init: InitialState, n_c: int = 0, n_m: int = 0) -> FockState:
    """Separable coherent state |mu_c> x |mu_m>, refused past _DIM_CAP.  A
    cutoff left at 0 is sized from its own amplitude as |mu|^2 + 6|mu| + 8
    levels, rounded up: the photon number is conserved, so that n_c holds the
    optical state for good, and ``evolve`` grows n_m as the state needs."""
    n_c, n_m = (n or int(np.ceil(abs(mu) ** 2 + 6.0 * abs(mu) + 8.0))
                for n, mu in ((n_c, init.mu_c), (n_m, init.mu_m)))
    _require_within_cap(n_c, n_m)
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


def _stencil(d2: float, g: float, d1: float, n_c: int, n_m: int) -> np.ndarray:
    """The Hamiltonian at squeezing d2, coupling g and drive d1, split by
    photon number, as (n_c, n_m, 5) real weights.

    H commutes with the photon number, so H = sum_n |n><n| x H_n with the
    mechanical block H_n = omega_c*n + diag + (d1 - g*n)*X + d2*(b^2 + b^dag^2),
    X = b + b^dag.  (H_n - omega_c*n) psi_n at level m is the sum over k of
    w[n, m, k] * psi_n[m + k - 2] (zero off the basis); no block is laid out
    densely, and the cavity term is a phase on each block.  ``diag`` is
    N + d2 times the diagonal of the truncated X @ X (2m+1, and m at the last
    level), so every block equals the truncation of the full Hamiltonian.
    """
    if n_c < 2 or n_m < 2:
        raise DomainError("Fock cutoffs must be at least 2")
    m = np.arange(n_m, dtype=float)
    pos_sq_diag = 2.0 * m + 1.0
    pos_sq_diag[-1] = m[-1]
    root1, root2 = _ladder_roots(n_m)
    w = np.zeros((n_c, n_m, 5))
    w[:, :, 2] = m + d2 * pos_sq_diag
    w[:, 1:, 1] = w[:, :-1, 3] = np.outer(d1 - g * np.arange(n_c, dtype=float), root1)
    w[:, 2:, 0] = w[:, :-2, 4] = d2 * root2
    return w


def spectral_bounds(w: np.ndarray) -> tuple[float, float]:
    """Gershgorin interval holding the spectrum of every H_n - omega_c*n."""
    radius = np.abs(w[:, :, [0, 1, 3, 4]]).sum(axis=2)
    return float(np.min(w[:, :, 2] - radius)), float(np.max(w[:, :, 2] + radius))


def build_hamiltonian(system: SystemParams, tau: float, n_c: int, n_m: int) -> np.ndarray:
    """The stencil of the Hamiltonian at time tau on the truncated space."""
    g, d1 = map(float, system.coupling)
    return _stencil(float(system.squeezing.d2_at(tau)), g, d1, n_c, n_m)


def default_dt(system: SystemParams, n_c: int) -> float:
    """Fourth-order steps, 25 per period of the fastest mechanical scale,
    the squeezing modulation's included; the cavity frequency is applied
    exactly as a per-block phase and sets no step."""
    rate_sq = 1.0 + 4.0 * abs(system.squeezing.d2)
    g_scale = abs(float(system.coupling.g)) * np.sqrt(n_c)
    omega0 = abs(getattr(system.squeezing, "omega0", 0.0))  # modulated profiles only
    return 2.0 * np.pi / (25.0 * max(rate_sq, g_scale, omega0, 1.0))


def _step_count(system: SystemParams, tau_final: float, n_c: int) -> int:
    """The uniform CF4 steps over [0, tau_final] at default_dt; a
    time-independent system takes none."""
    if system.is_time_independent:
        return 0
    return max(int(np.ceil(tau_final / default_dt(system, n_c) - 1e-12)), 1)


def _run_steps(psi: np.ndarray, system: SystemParams, tau_final: float,
               n_steps: int) -> tuple[np.ndarray, float]:
    """Propagate psi over [0, tau_final] by one schedule of exponentials of
    H_n - omega_c*n: one at D2(0) over the span if n_steps is 0, else the
    2*n_steps CF4 exponentials over dt/2, in step order.  Each is a Taylor
    series of the stencil on every block at once, in substeps of at most
    _TAYLOR_REACH over the largest Gershgorin magnitude.  Also returns the
    largest mechanical tail fraction at a substep's end, returning at the
    first past _TAIL_TOL: an overflowing state is reflected off the top level
    and can end with an empty tail."""
    g, d1 = map(float, system.coupling)
    if n_steps == 0:
        span, d2s = tau_final, [float(system.squeezing.d2_at(0.0))]
    else:
        dt = tau_final / n_steps
        nodes = (np.arange(n_steps)[:, None] + _CF4_NODES) * dt
        span = 0.5 * dt
        d2s = np.einsum("ki,ji->kj", system.squeezing.d2_at(nodes), _CF4_MIX).ravel()
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
    tail = 0.0
    for d2 in d2s:
        w = _stencil(d2, g, d1, n_c, n_m)
        lo, hi = spectral_bounds(w)
        n_sub = max(int(np.ceil(span * max(-lo, hi) / _TAYLOR_REACH)), 1)
        weights = (-1j * span / n_sub) * w
        for _ in range(n_sub):
            floor = _TAYLOR_TOL**2 * np.vdot(total, total).real
            pads[0] = total
            k = 0
            while np.vdot(pads[k % 2], pads[k % 2]).real > floor:
                np.einsum("cmk,cmk->cm", windows[k % 2], weights, out=levels[(k + 1) % 2])
                k += 1
                pads[k % 2] *= 1.0 / k
                total += pads[k % 2]
            tail = max(tail, FockState(levels[2]).tail_fractions()[1])
            if tail > _TAIL_TOL:
                return levels[2].copy(), tail
    return levels[2].copy(), tail


def evolve(psi0: FockState, system: SystemParams, tau_final: float) -> FockState:
    """Evolve a truncated state to tau_final, one photon-number block at a time.

    omega_c*n is applied exactly, as the phase exp(-i omega_c n tau_final) on
    block n.  Every run is one ``_run_steps`` schedule: a time-independent
    system takes one exponential of its constant Hamiltonian over the whole
    span; otherwise it takes ``_step_count`` uniform fourth-order
    commutator-free Magnus steps at ``default_dt`` (two exponentials of the
    stencil mixed from its values at the two Gauss-Legendre nodes), refused
    past _STEP_CAP before any exponential.  ``psi0`` sets the starting basis;
    ``product_coherent`` sizes each cutoff not given from the initial
    amplitudes alone.  n_c never changes, as the photon number is conserved;
    at the first Taylor substep where the top tenth of the mechanical levels
    (at least two) holds more than 1e-8 of the norm, the run stops, ``psi0``
    is padded with empty levels to twice its n_m and the run repeats, so the
    returned n_m may exceed ``psi0``'s; a run past _DIM_CAP basis states is
    refused.  A stepped run that keeps its tail empty is repeated at half the
    step, and an overflow there doubles n_m as well; the eight
    ``MeasuredMoments`` of the two must agree to 1e-4 relative, and the finer
    state is returned.  Norm drift or occupied basis tails raise flagged-run
    errors with diagnostics.
    """
    if tau_final < 0.0:
        raise DomainError("tau_final must be non-negative")
    if tau_final == 0.0:
        return FockState(psi0.amplitudes.copy())

    psi0_amp = np.ascontiguousarray(psi0.amplitudes, dtype=complex)
    n_steps = _step_count(system, tau_final, psi0.n_c)
    if n_steps > _STEP_CAP:
        raise ConvergenceError(f"{n_steps} time steps exceed the limit of {_STEP_CAP}")
    schedules = (n_steps, 2 * n_steps) if n_steps else (0,)
    while True:
        n_c, n_m = psi0_amp.shape
        _require_within_cap(n_c, n_m)
        runs = []
        for steps in schedules:
            psi, tail = _run_steps(psi0_amp, system, tau_final, steps)
            if tail > _TAIL_TOL:
                break
            runs.append(psi)
        else:
            break
        psi0_amp = np.pad(psi0_amp, ((0, 0), (0, n_m)))
    if len(runs) == 2:
        coarse, refined = (measure_moments(FockState(run), 0.0, tau_final) for run in runs)
        for name, x, y in zip(MeasuredMoments._fields, coarse, refined):
            drift = abs(x - y) / max(abs(y), 1e-6)
            if drift > _HALVING_TOL:
                raise ConvergenceError(
                    f"moment {name} moved by {drift:.3g} under step halving",
                    moment=name,
                    drift=drift,
                    dt=tau_final / n_steps,
                )
    cavity = np.exp(-1j * system.omega_c * tau_final * np.arange(n_c))
    state = FockState(cavity[:, None] * runs[-1])

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
