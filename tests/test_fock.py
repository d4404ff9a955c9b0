import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, expm
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammaln
from scipy.stats import poisson

from optomech import (
    ConstantSqueezing,
    ConvergenceError,
    Coupling,
    CutoffInsufficientError,
    DomainError,
    InitialState,
    ModulatedSqueezing,
    SystemParams,
    evaluate_point,
)
from optomech import fock
from reference import (analytic_ket, dense_block, destroy, fidelity, mechanical_purity,
                       photon_weights, squeeze_rotation_matrix, zero_coefficients)


def free_system(omega_c=1.0):
    return SystemParams(omega_c, Coupling(g=0.0), ConstantSqueezing(0.0))


def evolve_inverted(n_m):
    """The inverted sector at g = 0.3, which fills the mechanical tail of a
    15 x 57 basis by tau = 1."""
    system = SystemParams(1.0, Coupling(g=0.3), ConstantSqueezing(-1.0))
    return fock.evolve(fock.product_coherent(InitialState(1.0, 0.0), 15, n_m), system, 1.0)


@pytest.fixture(scope="module")
def certified_point():
    system = SystemParams(1.0, Coupling(g=0.5), ConstantSqueezing(0.3))
    init = InitialState(1.0, 0.0)
    return system, init, np.pi / 2


def kron_hamiltonian(system, tau, n_c, n_m):
    """The two-mode Hamiltonian as one sparse kron sum (reference form)."""
    b = sp.diags(np.sqrt(np.arange(1, n_m)), 1, format="csr")
    pos = (b + b.conj().T).tocsr()
    num_m = sp.diags(np.arange(n_m, dtype=float), format="csr")
    num_c = sp.diags(np.arange(n_c, dtype=float), format="csr")
    eye_c = sp.identity(n_c, format="csr")
    eye_m = sp.identity(n_m, format="csr")
    d2 = float(system.squeezing.d2_at(tau))
    g, d1 = system.coupling
    mech = num_m + d2 * (pos @ pos) + d1 * pos
    h = (
        system.omega_c * sp.kron(num_c, eye_m, format="csr")
        + sp.kron(eye_c, mech, format="csr")
        - g * sp.kron(num_c, pos, format="csr")
    )
    return h.tocsr()


def stencil_at(system, tau, n_c, n_m):
    """The stencil W + D2(tau)*S of the Hamiltonian at time tau."""
    static, squeeze = fock.build_hamiltonian(system, n_c, n_m)
    return static + float(system.squeezing.d2_at(tau)) * squeeze


def block_matrix(system, tau, n_c, n_m):
    """block_diag(omega_c*n + H_n) from the photon-number blocks."""
    h = stencil_at(system, tau, n_c, n_m)
    return block_diag(*(dense_block(h, n) + system.omega_c * n * np.eye(n_m) for n in range(n_c)))


def run_steps(psi0, system, tau, n_steps):
    """The lab-frame state after n_steps CF4 steps, with no basis growth and
    no half-step re-run."""
    psi = fock._run_steps(psi0, system, tau, n_steps)
    return np.exp(-1j * system.omega_c * tau * np.arange(psi0.shape[0]))[:, None] * psi


def cf4_expm_multiply(psi0, system, tau, n_steps):
    """Fourth-order commutator-free Magnus stepping on the full kron
    Hamiltonian: exp(-i h (a2 H1 + a1 H2)), then exp(-i h (a1 H1 + a2 H2)),
    with H_j sampled at t + (1/2 -+ sqrt(3)/6) h."""
    n_c, n_m = psi0.shape
    step = tau / n_steps
    a1, a2 = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0, (3.0 + 2.0 * np.sqrt(3.0)) / 12.0
    c1, c2 = 0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0
    psi = psi0.reshape(-1).astype(complex)
    for k in range(n_steps):
        h1 = kron_hamiltonian(system, (k + c1) * step, n_c, n_m)
        h2 = kron_hamiltonian(system, (k + c2) * step, n_c, n_m)
        psi = expm_multiply((-1j * step) * (a2 * h1 + a1 * h2), psi)
        psi = expm_multiply((-1j * step) * (a1 * h1 + a2 * h2), psi)
    return psi.reshape(n_c, n_m)


class TestBuildHamiltonian:
    def test_free_diagonal(self):
        h = block_matrix(free_system(omega_c=2.0), 0.0, 3, 4)
        want = np.diag([2.0 * nc + nm for nc in range(3) for nm in range(4)])
        assert np.array_equal(h, want)

    def test_drive_matrix_element(self):
        system = SystemParams(1.0, Coupling(g=0.0, drive=0.37), ConstantSqueezing(0.0))
        h = block_matrix(system, 0.0, 4, 6)
        # first mechanical excitation from the ground state
        assert h[1, 0] == pytest.approx(0.37)

    def test_hermitian(self):
        system = SystemParams(1.2, Coupling(g=0.5, drive=0.2), ConstantSqueezing(0.3))
        h = stencil_at(system, 0.0, 6, 8)
        for n in range(6):
            block = dense_block(h, n)
            assert block.dtype == float
            assert np.array_equal(block, block.T)

    @pytest.mark.parametrize(
        "system, tau",
        [
            (SystemParams(1.2, Coupling(g=0.5, drive=0.2), ConstantSqueezing(0.3)), 0.0),
            (SystemParams(0.7, Coupling(g=0.45), ModulatedSqueezing(0.15, 2.0)), 0.83),
            (SystemParams(3.0, Coupling(g=0.0), ConstantSqueezing(-0.2)), 0.0),
        ],
        ids=["driven-constant", "modulated", "decoupled"],
    )
    def test_blocks_equal_kron_construction(self, system, tau):
        # the same matrix up to rounding: the blocks take sqrt((m+1)(m+2)),
        # 2m+1 and (d1 - g*n)*sqrt(m) where the kron sum multiplies rounded
        # square roots and adds d1*sqrt(m) - g*(n*sqrt(m))
        want = kron_hamiltonian(system, tau, 7, 9).toarray()
        got = block_matrix(system, tau, 7, 9)
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(np.abs(want)))
        assert np.array_equal(got != 0.0, want != 0.0)

    def test_ground_energy_converged_in_mechanical_cutoff(self):
        # fixed photon cutoff: each photon block converges exponentially
        system = SystemParams(1.0, Coupling(g=0.5), ConstantSqueezing(0.3))

        def ground(n_m):
            h = stencil_at(system, 0.0, 6, n_m)
            return min(
                np.linalg.eigvalsh(dense_block(h, n))[0] + system.omega_c * n for n in range(6)
            )

        assert abs(ground(24) - ground(48)) < 1e-6

    def test_tiny_cutoffs_rejected(self):
        with pytest.raises(DomainError):
            fock.build_hamiltonian(free_system(), 1, 8)


def test_fock_imports_nothing_from_the_analytic_chain():
    """The oracle referees the decoupled solution, so it reads none of the
    modules that compute it; it shares only the records of ``moments``."""
    tree = ast.parse(Path(fock.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((getattr(node, "module", None) or "").split("."))
            names.update(part for alias in node.names for part in alias.name.split("."))
    assert not names & {"decoupling", "engine", "squeezing", "nongauss"}


class TestCoherentAmplitudes:
    @pytest.mark.parametrize("mu", [0.3, 1.0 - 0.5j, 2.0, 10.0, -30.0j])
    def test_matches_gammaln(self, mu):
        # the amplitudes differ only through the log-factorial in their
        # exponent, so the bound is relative to it
        n = 2000
        m = np.arange(n)
        got = fock.coherent_amplitudes(mu, n)
        log_ref = -0.5 * abs(mu) ** 2 + m * np.log(abs(mu)) - 0.5 * gammaln(m + 1.0)
        ref = np.exp(log_ref) * np.exp(1j * m * np.angle(mu))
        live = log_ref > -700.0
        scale = 1e-13 * (1.0 + gammaln(m[live] + 1.0))
        assert np.all(np.abs(got[live] - ref[live]) <= scale * np.abs(ref[live]))
        assert np.all(np.abs(got[~live]) < 1e-300)


class TestProductCoherent:
    @pytest.mark.parametrize(
        "mu_c, mu_m, shape",
        [(1.0, 0.0, (15, 8)), (0.8 - 0.3j, -0.4 + 0.3j, (14, 12)), (0.0, 2.5j, (8, 30))],
    )
    def test_automatic_cutoffs_read_the_initial_state_alone(self, mu_c, mu_m, shape):
        # a cutoff left at 0 gets |mu|^2 + 6|mu| + 8 levels of its own mode
        init = InitialState(mu_c, mu_m)
        assert fock.product_coherent(init).shape == shape
        assert fock.product_coherent(init, 0, 48).shape == (shape[0], 48)

    @settings(max_examples=300, deadline=None)
    @given(mu_c=st.complex_numbers(max_magnitude=3.0) | st.just(30.0),
           mu_m=st.complex_numbers(max_magnitude=3.0) | st.just(30.0),
           n_c=st.integers(2, 40), n_m=st.integers(2, 40))
    def test_refused_exactly_when_a_poisson_tail_is_occupied(self, mu_c, mu_m, n_c, n_m):
        # each factor's level weights are Poisson in |mu|^2, so its exact tail
        # is the survival function from the tail start; at mu 30 the
        # amplitudes underflow, which must read as a full tail, not an empty one
        tails = [poisson.sf(fock._tail_start(n, least) - 1, abs(mu) ** 2)
                 for mu, n, least in ((mu_c, n_c, 1), (mu_m, n_m, 2))]
        assume(all(abs(tail - fock._TAIL_TOL) > 1e-2 * fock._TAIL_TOL for tail in tails))
        refused = max(tails) > fock._TAIL_TOL
        try:
            psi = fock.product_coherent(InitialState(mu_c, mu_m), n_c, n_m)
        except CutoffInsufficientError:
            assert refused
        else:
            assert not refused
            assert abs(np.vdot(psi, psi).real - 1.0) <= 2.0 * fock._TAIL_TOL


class TestEvolve:
    def test_vacuum_is_stationary_up_to_phase(self):
        psi0 = fock.product_coherent(InitialState(0.0, 0.0), 4, 4)
        final = fock.evolve(psi0, free_system(), 1.7)
        assert fidelity(psi0, final) == pytest.approx(1.0)

    def test_free_mechanical_rotation(self):
        init = InitialState(0.0, 1.0)
        psi0 = fock.product_coherent(init, 4, 24)
        final = fock.evolve(psi0, free_system(), 1.3)
        measured = fock.measure_moments(final, 1.0, 1.3)
        assert measured.b == pytest.approx(np.exp(-1.3j), abs=1e-9)

    def test_norm_preserved(self, certified_point):
        system, init, tau = certified_point
        final = fock.evolve(fock.product_coherent(init, 16, 48), system, tau)
        assert abs(np.sum(np.abs(final) ** 2) - 1.0) < 1e-8

    def test_step_halving_stability(self):
        # halving the step must not move any moment appreciably (the stepped
        # route; a static system takes one exponential and does not step)
        system = SystemParams(1.0, Coupling(g=0.4), ModulatedSqueezing(0.1, 2.0))
        init, tau = InitialState(1.0, 0.0), 1.2
        psi0 = fock.product_coherent(init, 16, 48)
        coarse = run_steps(psi0, system, tau, 60)  # dt 0.02
        fine = run_steps(psi0, system, tau, 120)  # dt 0.01
        m1 = fock.measure_moments(coarse, system.omega_c, tau)
        m2 = fock.measure_moments(fine, system.omega_c, tau)
        for name in ("a", "b", "a2", "b2", "na", "nb", "ab", "ab_dag"):
            drift = abs(complex(getattr(m1, name)) - complex(getattr(m2, name)))
            assert drift <= 1e-4 * max(abs(complex(getattr(m2, name))), 1e-6)

    def test_stepped_route_is_fourth_order(self):
        # halving the step cuts the error against a much finer run by ~16x
        # (2^4); a second-order step gives ~4x
        system = SystemParams(1.0, Coupling(g=0.4), ModulatedSqueezing(0.1, 2.0))
        init, tau = InitialState(1.0, 0.0), 1.2
        psi0 = fock.product_coherent(init, 16, 48)

        def run(n_steps):
            return run_steps(psi0, system, tau, n_steps)

        ref = run(96)  # dt 0.0125
        err = [np.max(np.abs(run(n) - ref)) for n in (6, 12)]  # dt 0.2 and 0.1
        assert err[0] >= 12.0 * err[1]

    def test_static_route_does_not_step(self, certified_point, monkeypatch):
        system, init, tau = certified_point
        psi0 = fock.product_coherent(init, 16, 48)
        monkeypatch.setattr(fock, "default_dt", lambda *args: 0.05)
        coarse = fock.evolve(psi0, system, tau)
        monkeypatch.setattr(fock, "default_dt", lambda *args: 0.025)
        fine = fock.evolve(psi0, system, tau)
        assert np.array_equal(coarse, fine)

    @pytest.mark.parametrize(
        "system, init, tau, n_m",
        [
            (SystemParams(1.0, Coupling(g=0.5), ConstantSqueezing(0.3)),
             InitialState(1.0, 0.0), np.pi / 2, 48),
            # the free particle (1 + 4*d2 = 0) and the inverted oscillator
            (SystemParams(1.0, Coupling(g=0.3), ConstantSqueezing(-0.25)),
             InitialState(1.0, 0.0), 1.0, 48),
            (SystemParams(1.0, Coupling(g=0.3), ConstantSqueezing(-0.4)),
             InitialState(1.0, 0.0), 1.0, 64),
            (SystemParams(1.0, Coupling(g=0.5, drive=0.2), ConstantSqueezing(0.3)),
             InitialState(1.0, 0.3), np.pi / 2, 48),
        ],
        ids=["certified", "free", "inverted", "driven-displaced"],
    )
    def test_static_route_matches_dense_expm(self, system, init, tau, n_m):
        psi0 = fock.product_coherent(init, 16, n_m)
        h = kron_hamiltonian(system, 0.0, 16, n_m).toarray()
        want = (expm(-1j * tau * h) @ psi0.reshape(-1)).reshape(16, n_m)
        final = fock.evolve(psi0, system, tau)
        assert np.max(np.abs(final - want)) <= 1e-12

    def test_static_route_allocates_a_few_states(self):
        # the stencil exponential holds a few state-sized buffers and the
        # five-point weights; a dense n_m x n_m block per photon number
        # would take ~50 states here
        # (13 photon levels: on 12, mu_c 1's Poisson tail from level 11 is 1.005e-8)
        system = SystemParams(1.0, Coupling(g=0.3), ConstantSqueezing(0.2))
        psi0 = fock.product_coherent(InitialState(1.0, 0.0), 13, 400)
        tracemalloc.start()
        try:
            fock.evolve(psi0, system, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * psi0.nbytes

    @pytest.mark.parametrize(
        "system, dt, mu_m, n_m",
        [
            (SystemParams(1.3, Coupling(g=0.4, drive=0.1), ModulatedSqueezing(0.15, 2.0)),
             None, 0.2j, 48),
            (SystemParams(1.0, Coupling(g=0.3), ModulatedSqueezing(0.2, 2.0)), 0.5, 0.2j, 48),
            # the series runs about 0, so only weight high in the spectrum
            # goes wrong without the substeps: a norm drift of 0.05 here
            (SystemParams(1.0, Coupling(g=0.3), ModulatedSqueezing(0.2, 2.0)), 0.5, 3.0, 64),
        ],
        ids=["default-dt", "substeps", "substeps-excited"],
    )
    def test_stepped_route_matches_cf4_expm_multiply(self, system, dt, mu_m, n_m):
        init, tau = InitialState(0.8, mu_m), 1.5
        psi0 = fock.product_coherent(init, 12, n_m)
        n_steps = fock._step_count(system, tau, 12) if dt is None else round(tau / dt)
        if dt is not None:
            # each exponential spans half a step, and that is long enough
            # that the Taylor series must substep
            lo, hi = fock.spectral_bounds(stencil_at(system, 0.25, 12, n_m))
            assert 0.5 * dt * max(-lo, hi) > fock._TAYLOR_REACH
        want = cf4_expm_multiply(psi0, system, tau, n_steps)
        assert np.max(np.abs(run_steps(psi0, system, tau, n_steps) - want)) <= 1e-12

    def test_default_dt_ignores_omega_c(self):
        for squeezing in (ConstantSqueezing(0.3), ModulatedSqueezing(0.1, 2.0)):
            slow = SystemParams(1.0, Coupling(g=0.5), squeezing)
            fast = SystemParams(5.0, Coupling(g=0.5), squeezing)
            assert fock.default_dt(fast, 16) == fock.default_dt(slow, 16)

    def test_default_dt_resolves_the_modulation(self):
        # 25 steps per modulation period once omega0 is the fastest scale
        system = SystemParams(1.0, Coupling(g=0.2), ModulatedSqueezing(0.1, 20.0))
        assert fock.default_dt(system, 16) == 2.0 * np.pi / (25.0 * 20.0)

    @pytest.mark.parametrize(
        "squeezing", [ConstantSqueezing(0.3), ModulatedSqueezing(0.1, 2.0)],
        ids=["constant", "modulated"],
    )
    def test_omega_c_is_an_exact_phase(self, squeezing):
        # the cavity frequency only rotates each photon block, so the
        # rotating-frame moments do not depend on it at a fixed step
        init, tau = InitialState(1.0, 0.0), 1.0
        slow = SystemParams(1.0, Coupling(g=0.5), squeezing)
        fast = SystemParams(5.0, Coupling(g=0.5), squeezing)
        assert fock.default_dt(fast, 16) == fock.default_dt(slow, 16)
        psi0 = fock.product_coherent(init, 16, 48)
        m1 = fock.measure_moments(fock.evolve(psi0, slow, tau), slow.omega_c, tau)
        m5 = fock.measure_moments(fock.evolve(psi0, fast, tau), fast.omega_c, tau)
        for name in ("a", "b", "a2", "b2", "na", "nb", "ab", "ab_dag"):
            x, y = complex(getattr(m5, name)), complex(getattr(m1, name))
            assert abs(x - y) <= 1e-10 * max(abs(y), 1.0), name

    def test_mechanical_cutoff_doubles_until_the_tail_empties(self):
        # mu_m = 0, so padding the vacuum with empty levels is exact: growing
        # from 15 x 57 ends on the very run that starts at 15 x 456
        grown, direct = evolve_inverted(57), evolve_inverted(456)
        assert grown.shape == (15, 456)
        assert np.array_equal(grown, direct)

    def test_basis_holds_the_whole_path(self):
        # a drive at the mechanical frequency carries the vacuum out to
        # |b| = 6 at tau = pi and back by 2 pi; at n_m 64 the state brushes
        # the top levels mid-run and ends with an empty tail, yet <b> is off
        # by 3e-4, so the tail is checked along the run
        system = SystemParams(1.0, Coupling(g=0.0, drive=3.0), ConstantSqueezing(0.0))
        final = fock.evolve(fock.product_coherent(InitialState(0.0, 0.0), 2, 8), system,
                            2 * np.pi)
        measured = fock.measure_moments(final, 1.0, 2 * np.pi)
        assert final.shape[1] == 128
        assert abs(measured.b) < 1e-12 and measured.nb < 1e-12

    def test_growth_refused_past_the_dimension_cap(self, monkeypatch):
        # the static run is one exponential per basis
        sizes = []
        run_steps = fock._run_steps

        def counted(psi, system, tau_final, n_steps):
            sizes.append(psi.shape)
            return run_steps(psi, system, tau_final, n_steps)

        monkeypatch.setattr(fock, "_run_steps", counted)
        monkeypatch.setattr(fock, "_DIM_CAP", 15 * 228)
        with pytest.raises(CutoffInsufficientError, match="truncated dimension 6840") as err:
            evolve_inverted(57)
        assert sizes == [(15, 57), (15, 114), (15, 228)]
        assert err.value.diagnostics == {"n_c": 15, "n_m": 456}

    def test_step_count_refused_before_any_exponential(self, monkeypatch):
        # every exponential takes its own Gershgorin bounds; the step is
        # patched to put the run one step past the limit, then at it
        calls = []
        bounds = fock.spectral_bounds

        def counted(*args):
            calls.append(args)
            return bounds(*args)

        monkeypatch.setattr(fock, "spectral_bounds", counted)
        system = SystemParams(1.0, Coupling(g=0.3), ModulatedSqueezing(0.1, 2.0))
        psi0 = fock.product_coherent(InitialState(0.5, 0.0), 8, 16)
        monkeypatch.setattr(fock, "default_dt", lambda *args: 1.0 / 500.5)
        with pytest.raises(ConvergenceError, match="501 time steps exceed the limit of 500"):
            fock.evolve(psi0, system, 1.0)
        assert calls == []
        # at the limit itself the run goes ahead, two exponentials a step,
        # and its half-step re-run takes four
        monkeypatch.setattr(fock, "default_dt", lambda *args: 1.0 / 500.0)
        fock.evolve(psi0, system, 1.0)
        assert len(calls) == 1000 + 2000

    @pytest.mark.parametrize(
        "squeezing, n_runs", [(ConstantSqueezing(0.2), 1), (ModulatedSqueezing(0.1, 2.0), 2)],
        ids=["static", "stepped"])
    def test_stencil_built_once_per_run(self, monkeypatch, squeezing, n_runs):
        # W and S hold for the whole run; only d2 changes between exponentials
        runs, stencils = [], []
        run_steps, build = fock._run_steps, fock.build_hamiltonian
        monkeypatch.setattr(fock, "_run_steps",
                            lambda *args: runs.append(args[0].shape) or run_steps(*args))
        monkeypatch.setattr(fock, "build_hamiltonian",
                            lambda *args: stencils.append(args[1:]) or build(*args))
        system = SystemParams(1.0, Coupling(g=0.3), squeezing)
        fock.evolve(fock.product_coherent(InitialState(0.5, 0.0), 8, 16), system, 0.5)
        assert runs == [(8, 16)] * n_runs
        assert stencils == runs

    def test_half_step_overflow_grows_the_basis(self, monkeypatch):
        # the half-step run is the state returned, so its tail counts like the
        # coarse run's: an overflow there doubles n_m and repeats that run
        # alone, from the basis the coarse run settled
        calls = []
        run_steps = fock._run_steps

        def overflowing_once(psi, system, tau_final, n_steps):
            calls.append((psi.shape[1], n_steps))
            out = run_steps(psi, system, tau_final, n_steps)
            return None if len(calls) == 2 else out

        monkeypatch.setattr(fock, "_run_steps", overflowing_once)
        system = SystemParams(1.0, Coupling(g=0.3), ModulatedSqueezing(0.1, 2.0))
        final = fock.evolve(fock.product_coherent(InitialState(0.5, 0.0), 8, 16), system, 0.5)
        n = calls[0][1]
        assert calls == [(16, n), (16, 2 * n), (32, 2 * n)]
        assert final.shape == (8, 32)

    def test_norm_drift_refused(self):
        # an unnormalised start has drifted by |psi|^2 - 1 = 3 by the end
        psi0 = 2.0 * fock.product_coherent(InitialState(0.5, 0.0), 8, 16)
        with pytest.raises(ConvergenceError, match="norm drifted by 3") as err:
            fock.evolve(psi0, free_system(), 0.5)
        assert err.value.diagnostics["norm_drift"] == pytest.approx(3.0)

    def test_negative_time_refused_and_zero_time_is_the_start(self):
        psi0 = fock.product_coherent(InitialState(0.5, 0.0), 8, 16)
        for tau in (-0.1, np.nan, np.inf):
            with pytest.raises(DomainError, match="tau_final must be non-negative and finite"):
                fock.evolve(psi0, free_system(), tau)
        final = fock.evolve(psi0, free_system(), 0.0)
        assert np.array_equal(final, psi0) and final is not psi0

    def test_tail_window_sees_a_state_of_one_parity(self):
        # at g0 = 0 a squeezed vacuum fills only the even phonon levels; at
        # n_m 8 the top tenth rounds to the empty level 7 alone, so the
        # window reaches down to level 6
        assert fock._tail_start(8, 2) == 6
        amplitudes = np.zeros((2, 8), dtype=complex)
        amplitudes[0, [0, 2, 4, 6]] = np.sqrt([0.4, 0.2, 0.1, 0.3])
        assert fock._run_steps(amplitudes, free_system(), 0.1, 0) is None
        amplitudes[0, [4, 6]] = np.sqrt([0.4, 0.0])
        assert fock._run_steps(amplitudes, free_system(), 0.1, 0) is not None

    def test_undersized_basis_flagged(self):
        with pytest.raises(CutoffInsufficientError) as err:
            fock.product_coherent(InitialState(1.0, 0.0), 4, 6)
        assert err.value.diagnostics["n_c"] == 4

    def test_basis_past_the_cap_refused(self):
        with pytest.raises(CutoffInsufficientError, match="truncated dimension 60015"):
            fock.product_coherent(InitialState(1.0, 0.0), 15, 4001)

    @pytest.mark.parametrize(
        "system, init, tau, n_m",
        [
            (SystemParams(1.0, Coupling(g=0.5), ConstantSqueezing(0.3)),
             InitialState(1.0, 0.0), np.pi / 2, 48),
            (SystemParams(1.0, Coupling(g=0.5, drive=0.2), ConstantSqueezing(0.3)),
             InitialState(1.0, 0.3 + 0.2j), np.pi / 2, 48),
            (SystemParams(1.0, Coupling(g=0.4, drive=0.15), ModulatedSqueezing(0.1, 2.0)),
             InitialState(0.8 - 0.3j, -0.4 + 0.3j), 1.5, 64),
            # the free particle (1 + 4*d2 = 0) and the inverted oscillator
            (SystemParams(1.0, Coupling(g=0.3), ConstantSqueezing(-0.25)),
             InitialState(1.0, 0.0), 1.0, 48),
            (SystemParams(1.0, Coupling(g=0.3), ConstantSqueezing(-0.4)),
             InitialState(1.0, 0.0), 1.0, 64),
        ],
        ids=["certified", "driven-constant", "driven-modulated", "free", "inverted"],
    )
    def test_matches_analytic_moments(self, system, init, tau, n_m):
        # the driven, displaced cases reach the drive-shift and mu_m terms of
        # every mechanical moment, which the certified point leaves at zero
        rec = evaluate_point(system, init, tau)
        final = fock.evolve(fock.product_coherent(init, 16, n_m), system, tau)
        measured = fock.measure_moments(final, system.omega_c, tau)
        for name in ("a", "b", "a2", "b2", "na", "nb", "ab", "ab_dag"):
            ana = complex(getattr(rec.moments, name))
            orc = complex(getattr(measured, name))
            assert abs(ana - orc) <= max(1e-3 * abs(orc), 1e-6), name


class TestAnalyticKet:
    def test_trivial_coefficients_give_product_coherent(self):
        init = InitialState(0.6 + 0.1j, -0.3 + 0.4j)
        ket = analytic_ket(zero_coefficients(), 1.0, 0.0, init, 12, 12)
        direct = fock.product_coherent(init, 12, 12)
        assert fidelity(ket, direct) == pytest.approx(1.0, abs=1e-12)

    def test_branch_weights_follow_photon_statistics(self, certified_point):
        system, init, tau = certified_point
        rec = evaluate_point(system, init, tau)
        ket = analytic_ket(rec.coeffs, rec.alpha, rec.beta, init, 16, 48)
        n = np.arange(16)
        poisson = np.exp(-abs(init.mu_c) ** 2) * abs(init.mu_c) ** (2 * n) / [
            float(math.factorial(k)) for k in n
        ]
        assert np.max(np.abs(photon_weights(ket) - poisson)) < 1e-6

    def test_mechanical_purity_tracks_subsystem_eigenvalue(self):
        # early times: the reduced state is still near-Gaussian, so its purity
        # follows 1/nu; later it is merely reported
        system = SystemParams(1.0, Coupling(g=0.5), ConstantSqueezing(0.3))
        init = InitialState(1.0, 0.0)
        for tau in (0.15, 0.4):
            rec = evaluate_point(system, init, tau)
            final = fock.evolve(fock.product_coherent(init, 16, 48), system, tau)
            purity = mechanical_purity(final)
            gauss = 1.0 / rec.report.nu_me
            assert abs(purity - gauss) <= 0.02 * gauss
        late = fock.evolve(fock.product_coherent(init, 16, 48), system, np.pi / 2)
        print(f"late-time mechanical purity: {mechanical_purity(late):.6f}")

    def test_squeeze_rotation_matrix_implements_bogoliubov(self):
        from optomech import constant_bogoliubov

        alpha, beta = constant_bogoliubov(0.3, 1.1)
        n = 120
        u = squeeze_rotation_matrix(alpha, beta, n)
        b = destroy(n)
        sandwich = u.conj().T @ b @ u
        want = alpha * b + beta * b.T
        # compare well inside the truncation edge: the squeeze operator mixes
        # levels in steps of two with geometrically decaying weight
        block = slice(0, 30)
        assert np.max(np.abs(sandwich[block, block] - want[block, block])) < 1e-8
