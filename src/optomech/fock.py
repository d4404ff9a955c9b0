"""Brute-force validator in a truncated two-mode Fock space.

A state is a complex (n_c, n_m) array of amplitudes psi[n_photons, n_phonons].
The Hamiltonian conserves the photon number, so the state evolves as one
mechanical block per photon number n, with omega_c*n an exact phase.  The
Hamiltonian is H_n - omega_c*n = W + D2*S, real pentadiagonal stencils built
once per run; each exponential applies W + d2*S to all blocks at once by a
Taylor series, and no dense block is formed.
Every run is one schedule of exponentials (``_run_steps``): a static system
takes one over the whole span; a time-dependent one takes ``_step_count``
fourth-order commutator-free Magnus steps (CF4) at ``default_dt``, two
exponentials per uniform step of the Hamiltonian mixed from its values at the
two Gauss-Legendre nodes, and is refused past _STEP_CAP steps before any
exponential.  The same eight moments as the analytic pipeline are then
measured, into the same ``MomentSet`` record.
The oracle sets its own accuracy: a half-step re-run checks the step, and
``evolve`` owns the basis: n_m doubles until its tail stays empty along every
run it keeps, the half-step re-run included, from a start that
``product_coherent`` sizes from the initial state alone.  A basis tail, the
top tenth of its levels (``_tail_start``), is checked where it can fill: both
on the start's factors, and the mechanical one after every Taylor substep.
Nothing here reads the analytic chain (``moments`` lends only its input
and output records), so the oracle stays an independent referee.  Only the
small-parameter envelope is certified; large couplings blow past any
affordable cutoff.  Uses numpy alone, and no LAPACK routine.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConvergenceError, CutoffInsufficientError, DomainError
from .moments import InitialState, MomentSet
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


def _tail_start(n: int, least: int) -> int:
    """First level of the basis tail of n levels: the top tenth, and at
    least the last ``least`` levels."""
    return min(int(np.ceil((1.0 - _TAIL_FRACTION) * n)), n - least)


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


def product_coherent(init: InitialState, n_c: int = 0, n_m: int = 0) -> np.ndarray:
    """Amplitudes psi[n_photons, n_phonons] of the separable coherent state
    |mu_c> x |mu_m>, refused past _DIM_CAP or with either basis tail holding
    more than 1e-8 of the norm.  A cutoff left at 0 is sized from its own
    amplitude as |mu|^2 + 6|mu| + 8 levels, rounded up: the photon number is
    conserved, so n_c holds the optical state for good, and ``evolve`` grows
    n_m as the state needs."""
    n_c, n_m = (n or int(np.ceil(abs(mu) ** 2 + 6.0 * abs(mu) + 8.0))
                for n, mu in ((n_c, init.mu_c), (n_m, init.mu_m)))
    _require_within_cap(n_c, n_m)
    factors = coherent_amplitudes(init.mu_c, n_c), coherent_amplitudes(init.mu_m, n_m)
    # a product's tails are its factors', and one minus the weight kept also
    # counts the norm cut off; the optical tail may be the last level (photon
    # numbers are Poisson), the mechanical one spans two (a state of one parity)
    kept = (f[:_tail_start(f.size, least)] for f, least in zip(factors, (1, 2)))
    c_tail, m_tail = (1.0 - float(np.vdot(k, k).real) for k in kept)
    if c_tail > _TAIL_TOL or m_tail > _TAIL_TOL:
        raise CutoffInsufficientError(
            f"basis tail occupied (optical {c_tail:.3g}, mechanical {m_tail:.3g}); "
            f"increase the cutoffs ({n_c}, {n_m})",
            optical_tail=c_tail, mechanical_tail=m_tail, n_c=n_c, n_m=n_m)
    return np.outer(*factors)


def _ladder_roots(n: int) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(m+1) and sqrt((m+1)(m+2)): the entries of b and b^2 above the
    diagonal on an n-level truncation."""
    m = np.arange(1.0, n)
    return np.sqrt(m), np.sqrt(m[:-1] * m[1:])


def _stencil(g: float, d1: float, n_c: int, n_m: int) -> tuple[np.ndarray, np.ndarray]:
    """The Hamiltonian at coupling g and drive d1, split by photon number,
    as real weights W (n_c, n_m, 5) of its static part and S (n_m, 5) of
    X @ X, X = b + b^dag: the stencil at squeezing d2 is W + d2*S.

    H commutes with the photon number, so H = sum_n |n><n| x H_n with the
    mechanical block H_n = omega_c*n + N + (d1 - g*n)*X + d2*X@X.
    (H_n - omega_c*n) psi_n at level m is the sum over k of
    w[n, m, k] * psi_n[m + k - 2] (zero off the basis); no block is laid out
    densely, and the cavity term is a phase on each block.  S is the
    truncated X @ X (2m+1 on the diagonal, and m at the last level), so
    every block equals the truncation of the full Hamiltonian.
    """
    if n_c < 2 or n_m < 2:
        raise DomainError("Fock cutoffs must be at least 2")
    m = np.arange(n_m, dtype=float)
    root1, root2 = _ladder_roots(n_m)
    static, squeeze = np.zeros((n_c, n_m, 5)), np.zeros((n_m, 5))
    static[:, :, 2] = m
    static[:, 1:, 1] = static[:, :-1, 3] = np.outer(d1 - g * np.arange(n_c, dtype=float), root1)
    squeeze[:, 2] = 2.0 * m + 1.0
    squeeze[-1, 2] = m[-1]
    squeeze[2:, 0] = squeeze[:-2, 4] = root2
    return static, squeeze


def spectral_bounds(w: np.ndarray) -> tuple[float, float]:
    """Gershgorin interval holding the spectrum of every H_n - omega_c*n."""
    radius = np.abs(w[:, :, [0, 1, 3, 4]]).sum(axis=2)
    return float(np.min(w[:, :, 2] - radius)), float(np.max(w[:, :, 2] + radius))


def build_hamiltonian(system: SystemParams, tau: float, n_c: int, n_m: int) -> np.ndarray:
    """The stencil W + D2(tau)*S of the Hamiltonian at time tau."""
    static, squeeze = _stencil(*map(float, system.coupling), n_c, n_m)
    return static + float(system.squeezing.d2_at(tau)) * squeeze


def default_dt(system: SystemParams, n_c: int) -> float:
    """Fourth-order steps, 25 per period of the fastest mechanical scale,
    the squeezing modulation's included; the cavity frequency is applied
    exactly as a per-block phase and sets no step."""
    rate_sq = 1.0 + 4.0 * abs(system.squeezing.d2)
    g_scale = abs(float(system.coupling.g)) * np.sqrt(n_c)
    omega0 = abs(system.squeezing.omega0)
    return 2.0 * np.pi / (25.0 * max(rate_sq, g_scale, omega0, 1.0))


def _step_count(system: SystemParams, tau_final: float, n_c: int) -> int:
    """The uniform CF4 steps over [0, tau_final] at default_dt; a
    time-independent system takes none."""
    if system.is_time_independent:
        return 0
    return max(int(np.ceil(tau_final / default_dt(system, n_c) - 1e-12)), 1)


def _run_steps(psi: np.ndarray, system: SystemParams, tau_final: float,
               n_steps: int) -> np.ndarray | None:
    """Propagate psi over [0, tau_final] by one schedule of exponentials of
    H_n - omega_c*n: one at D2(0) over the span if n_steps is 0, else the
    2*n_steps CF4 exponentials over dt/2, in step order.  Each is a Taylor
    series of its stencil W + d2*S (``_stencil``, built once per run) on
    every block at once, in substeps of at most _TAYLOR_REACH over the
    largest Gershgorin magnitude.  Returns None at the first substep whose
    mechanical tail holds more than _TAIL_TOL of the state's norm: an
    overflowing state is reflected off its top and can end with an empty tail."""
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
    static, squeeze = _stencil(*map(float, system.coupling), n_c, n_m)
    pads = np.zeros((3, n_c, n_m + 4), dtype=complex)
    windows = sliding_window_view(pads, 5, axis=2)
    levels = pads[:, :, 2:-2]
    total = pads[2]
    tail = levels[2, :, _tail_start(n_m, 2):]
    levels[2] = psi
    norm = np.vdot(total, total).real
    for d2 in d2s:
        w = static + d2 * squeeze
        lo, hi = spectral_bounds(w)
        n_sub = max(int(np.ceil(span * max(-lo, hi) / _TAYLOR_REACH)), 1)
        weights = (-1j * span / n_sub) * w
        for _ in range(n_sub):
            pads[0] = total
            k = 0
            while np.vdot(pads[k % 2], pads[k % 2]).real > _TAYLOR_TOL**2 * norm:
                np.einsum("cmk,cmk->cm", windows[k % 2], weights, out=levels[(k + 1) % 2])
                k += 1
                pads[k % 2] *= 1.0 / k
                total += pads[k % 2]
            norm = np.vdot(total, total).real
            if np.vdot(tail, tail).real > _TAIL_TOL * norm:
                return None
    return levels[2].copy()


def evolve(psi0: np.ndarray, system: SystemParams, tau_final: float) -> np.ndarray:
    """Evolve a truncated state to tau_final, one photon-number block at a time.

    omega_c*n is applied exactly, as the phase exp(-i omega_c n tau_final) on
    block n.  Every run is one ``_run_steps`` schedule: a time-independent
    system takes one exponential of its constant Hamiltonian over the whole
    span; otherwise it takes ``_step_count`` uniform fourth-order
    commutator-free Magnus steps at ``default_dt`` (two exponentials of the
    stencil mixed from its values at the two Gauss-Legendre nodes), refused
    past _STEP_CAP before any exponential.  ``psi0``, an (n_c, n_m)
    amplitude array, sets the starting basis; ``product_coherent`` sizes
    each cutoff not given from the initial amplitudes alone and checks both
    tails.  n_c never changes, and neither does the optical tail, as the
    photon number is conserved; at the first Taylor substep where the top
    tenth of the mechanical levels (at least two) holds more than 1e-8 of
    the norm, the run stops, its start is padded with empty levels to twice
    its n_m and the run repeats, so the returned n_m may exceed ``psi0``'s;
    a run past _DIM_CAP basis states is refused.  A stepped run that keeps
    its tail empty is repeated at half the step, from the basis it settled,
    and an overflow there doubles n_m for that run alone; the eight moments
    (``MomentSet``) of the two must agree to 1e-4 relative, and the finer
    state is returned.  Norm drift raises a flagged-run error with
    diagnostics.
    """
    if not 0.0 <= tau_final < np.inf:
        raise DomainError("tau_final must be non-negative and finite")
    if tau_final == 0.0:
        return psi0.copy()

    psi = np.ascontiguousarray(psi0, dtype=complex)
    n_steps = _step_count(system, tau_final, psi.shape[0])
    if n_steps > _STEP_CAP:
        raise ConvergenceError(f"{n_steps} time steps exceed the limit of {_STEP_CAP}")
    runs = []
    for steps in (n_steps, 2 * n_steps) if n_steps else (0,):
        _require_within_cap(*psi.shape)
        while (run := _run_steps(psi, system, tau_final, steps)) is None:
            psi = np.pad(psi, ((0, 0), (0, psi.shape[1])))
            _require_within_cap(*psi.shape)
        runs.append(run)
    if len(runs) == 2:
        coarse, refined = (measure_moments(run, 0.0, tau_final) for run in runs)
        for name, x, y in zip(MomentSet._fields, coarse, refined):
            drift = abs(x - y) / max(abs(y), 1e-6)
            if drift > _HALVING_TOL:
                raise ConvergenceError(
                    f"moment {name} moved by {drift:.3g} under step halving",
                    moment=name,
                    drift=drift,
                    dt=tau_final / n_steps,
                )
    cavity = np.exp(-1j * system.omega_c * tau_final * np.arange(psi.shape[0]))
    psi = cavity[:, None] * runs[-1]
    drift = abs(float(np.sum(np.abs(psi) ** 2)) - 1.0)
    if drift > _NORM_TOL:
        raise ConvergenceError(
            f"norm drifted by {drift:.3g} during evolution", norm_drift=drift
        )
    return psi


def measure_moments(psi: np.ndarray, omega_c: float, tau: float) -> MomentSet:
    """Measure the eight moments of the amplitudes psi[n_photons, n_phonons]
    as scalars in the rotating frame, removing the cavity rotation
    accumulated by a lab-frame evolution (pass omega_c = 0 for states built
    in the rotating frame).  Each ladder operator acts on the array as a
    shift of one index, weighted by sqrt(n)."""
    n_c, n_m = psi.shape
    root_c, root2_c = _ladder_roots(n_c)
    root_m, root2_m = _ladder_roots(n_m)
    root_c, root2_c = root_c[:, None], root2_c[:, None]
    p = np.abs(psi) ** 2

    phase = np.exp(1j * omega_c * tau)
    a = complex(np.vdot(psi[:-1], root_c * psi[1:])) * phase
    b = complex(np.vdot(psi[:, :-1], root_m * psi[:, 1:]))
    a2 = complex(np.vdot(psi[:-2], root2_c * psi[2:])) * phase**2
    b2 = complex(np.vdot(psi[:, :-2], root2_m * psi[:, 2:]))
    na = float(np.arange(n_c) @ p.sum(axis=1))
    nb = float(p.sum(axis=0) @ np.arange(n_m))
    ab = complex(np.vdot(psi[:-1, :-1], root_c * root_m * psi[1:, 1:])) * phase
    ab_dag = complex(np.vdot(psi[:-1, 1:], root_c * root_m * psi[1:, :-1])) * phase
    return MomentSet(a=a, b=b, a2=a2, b2=b2, na=na, nb=nb, ab=ab, ab_dag=ab_dag)
