import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optomech import (
    ConstantSqueezing,
    Coupling,
    DecouplingTables,
    DomainError,
    InitialState,
    ModulatedSqueezing,
    NonFiniteError,
    SystemParams,
    displacement_amplitudes,
    evaluate_point,
    evaluate_trajectory,
    moments,
    non_gaussianity,
    solve_quadratic,
    squeezing_frame_excess,
)
from optomech import engine, squeezing
from reference import subsystem_eigenvalues_mp


def numeric_route(profile, coupling, init, tau):
    """The engine's numeric route at one time, run by hand: the grid solve,
    its decoupling tables and its Bogoliubov pair, then moments and measure."""
    sol = solve_quadratic(profile, tau)
    coeffs = DecouplingTables(sol, coupling).at(tau)
    m = moments(coeffs, *sol.bogoliubov(tau), init)
    report = non_gaussianity(squeezing_frame_excess(coeffs, m),
                             number_displacement=coeffs.number_displacement, mu_c=init.mu_c)
    return m, report


class TestClosedFormDispatch:
    def test_routes_agree(self):
        # a modulation at omega0 = 0 is the same constant squeezing; the engine
        # takes the closed forms for it, and the numeric route, run by hand on
        # that profile, agrees with them
        init = InitialState(1.0, 0.2 - 0.1j)
        for coupling in (Coupling(g=0.8), Coupling(g=0.8, drive=0.3)):
            closed = SystemParams(1.0, coupling, ConstantSqueezing(0.4))
            for tau in (0.7, np.pi, 5.1):
                a = evaluate_point(closed, init, tau)
                m, report = numeric_route(ModulatedSqueezing(0.4, 0.0), coupling, init, tau)
                assert abs(a.moments.a - m.a) < 1e-8
                assert abs(a.moments.b - m.b) < 1e-8
                assert abs(a.report.delta - report.delta) < 1e-7

    @pytest.mark.parametrize(
        "profile, static",
        [(ModulatedSqueezing(0.0, 2.0), True), (ModulatedSqueezing(0.4, 0.0), True),
         (ConstantSqueezing(0.4), True), (ModulatedSqueezing(0.4, 2.0), False)],
        ids=["d2-0", "omega0-0", "constant", "modulated"],
    )
    def test_the_hamiltonians_value_picks_the_route(self, profile, static, monkeypatch):
        # d2 = 0 or omega0 = 0 is a static Hamiltonian, which takes the closed
        # forms and no grid solve, whichever way the profile was built
        system = SystemParams(1.0, Coupling(g=0.8), profile)
        assert system.is_time_independent is static
        solves = []
        monkeypatch.setattr(engine, "solve_quadratic",
                            lambda *args: solves.append(args) or solve_quadratic(*args))
        evaluate_trajectory(system, InitialState(1.0), [0.0, 1.0, 2.0])
        assert len(solves) == (0 if static else 1)

    def test_mu_m_leaves_the_measure_and_the_optical_amplitude(self):
        # the mechanical amplitude enters <a> as a pure phase, and the measure
        # is invariant under the displacement; a phase rounded together with
        # the decay moved delta by 4e-4 relative at |mu_m| 1e12
        system = SystemParams(1.0, Coupling(g=0.3), ConstantSqueezing(0.2))
        taus = np.linspace(0.1, 6.0, 60)
        ref = evaluate_trajectory(system, InitialState(1.0, 0.0), taus)
        for mag in (1e4, 1e12, 1e300):
            rec = evaluate_trajectory(system, InitialState(1.0, mag * (0.6 + 0.8j)), taus)
            assert np.allclose(rec.report.delta, ref.report.delta, rtol=1e-11, atol=0)
            assert np.allclose(np.abs(rec.moments.a), np.abs(ref.moments.a), rtol=1e-14, atol=0)

    def test_record_consistency(self):
        system = SystemParams(1.0, Coupling(g=1.0), ConstantSqueezing(0.5))
        rec = evaluate_trajectory(system, InitialState(1.0), [0.0, 1.0, 2.0])
        assert rec.tau.tolist() == [0.0, 1.0, 2.0]
        assert rec.covariance.shape == (3, 4, 4)
        assert rec.report.nu_full.shape == (3, 2)

    def test_negative_time_rejected(self, monkeypatch):
        # a negative, nan or inf time is refused once, up front, the same way
        # on both routes
        def unreached(*args, **kwargs):
            raise AssertionError("a stage ran on a refused time")

        monkeypatch.setattr(engine, "constant_coefficients", unreached)
        monkeypatch.setattr(engine, "solve_quadratic", unreached)
        for profile in (ConstantSqueezing(0.1), ModulatedSqueezing(0.1, 2.0)):
            system = SystemParams(1.0, Coupling(g=0.3), profile)
            for tau in (-1.0, np.nan, np.inf):
                with pytest.raises(DomainError, match="times must be non-negative and finite"):
                    evaluate_point(system, InitialState(1.0), tau)

    def test_drive_runs_through_numeric_route(self):
        # a real drive shifts the mechanics; photon number stays put
        system = SystemParams(1.0, Coupling(g=0.5, drive=0.3), ModulatedSqueezing(0.2, 2.0))
        rec = evaluate_point(system, InitialState(1.0, 0.0), 1.5)
        drive_shift, _ = displacement_amplitudes(rec.alpha, rec.beta, rec.coeffs)
        assert abs(drive_shift) > 0.0
        assert rec.moments.na == 1.0
        assert rec.report.delta_min - 1e-9 <= rec.report.delta <= rec.report.delta_max + 1e-9

    def test_one_magnus_pass_per_modulated_trajectory(self, monkeypatch):
        # the solve steps every interval once; the tables and the Bogoliubov
        # pair then read its nodes by index, with no partial step of their own
        calls = []
        step = squeezing._magnus_step
        monkeypatch.setattr(squeezing, "_magnus_step",
                            lambda *args: calls.append(args) or step(*args))
        system = SystemParams(1.0, Coupling(g=0.7, drive=0.2), ModulatedSqueezing(0.1, 2.0))
        evaluate_trajectory(system, InitialState(1.0), np.linspace(0.0, 3.0, 11))
        assert len(calls) == 1


def _rel_close(got, want, rel):
    got, want = np.asarray(got), np.asarray(want)
    return np.all(np.abs(got - want) <= rel * np.maximum(np.abs(want), 1.0))


class TestTrajectory:
    @pytest.mark.parametrize(
        "system",
        [
            SystemParams(1.0, Coupling(g=1.0), ConstantSqueezing(0.5)),
            SystemParams(1.0, Coupling(g=0.7, drive=0.2), ModulatedSqueezing(0.1, 2.0)),
        ],
        ids=["closed-form", "numeric"],
    )
    def test_trajectory_matches_points(self, system):
        init = InitialState(1.0 - 0.3j, 0.4 + 0.1j)
        taus = np.linspace(0.0, 3 * np.pi, 7)
        traj = evaluate_trajectory(system, init, taus)
        for i, tau in enumerate(taus):
            point = evaluate_point(system, init, tau)
            assert np.ndim(point.report.delta) == 0 and np.ndim(point.moments.a) == 0
            assert point.covariance.shape == (4, 4)
            # on the numeric route a single point is solved up to its own tau,
            # so only the last time shares the trajectory's solver grid
            same_grid = system.coupling.drive == 0.0 or i == len(taus) - 1
            rel = 1e-12 if same_grid else 1e-8
            assert _rel_close(point.covariance, traj.covariance[i], rel)
            for name in ("a", "b", "a2", "b2", "ab", "ab_dag", "nb"):
                assert _rel_close(getattr(point.moments, name),
                                  getattr(traj.moments, name)[i], rel), name
            for name in ("delta", "delta_min", "delta_max", "nu_op", "nu_me", "nu_full"):
                assert _rel_close(getattr(point.report, name),
                                  getattr(traj.report, name)[i], rel), name

    def test_gaussian_evolution_has_zero_measure_at_long_times(self):
        # g = 0 under parametric resonance: |beta| reaches ~1e5 by 40*pi
        system = SystemParams(1.0, Coupling(g=0.0), ModulatedSqueezing(0.1, 2.0))
        rec = evaluate_trajectory(system, InitialState(1.0, 0.5), np.linspace(0, 40 * np.pi, 401))
        assert np.max(np.abs(rec.beta)) > 1e4
        assert np.max(rec.report.delta) < 1e-10
        assert np.max(np.abs(rec.report.nu_full - 1.0)) < 1e-10

    def test_subsystem_eigenvalues_match_closed_form(self):
        system = SystemParams(1.0, Coupling(g=1.0), ModulatedSqueezing(0.1, 2.0))
        init = InitialState(1.0, 0.0)
        rec = evaluate_trajectory(system, init, np.linspace(0.0, 8 * np.pi, 201))
        nu_op, nu_me = subsystem_eigenvalues_mp(rec.coeffs, init.mu_c)
        assert _rel_close(rec.report.nu_op, nu_op, 1e-12)
        assert _rel_close(rec.report.nu_me, nu_me, 1e-12)


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda x: 10.0**x)


def _either_sign(magnitude):
    return st.tuples(magnitude, st.sampled_from((1.0, -1.0))).map(lambda p: p[0] * p[1])


def _zero_or(magnitude):
    # exactly 0 on about one draw in four
    return st.tuples(st.integers(0, 3), magnitude).map(lambda p: p[1] if p[0] else 0.0)


_PROFILES = st.one_of(
    st.builds(ConstantSqueezing, _either_sign(_log_uniform(1e-4, 10.0))),
    st.builds(ModulatedSqueezing, _either_sign(_log_uniform(1e-3, 1.0)),
              _log_uniform(0.01, 100.0)),
)
_COUPLINGS = st.builds(
    Coupling,
    g=_zero_or(_log_uniform(1e-8, 1e3)),
    drive=_zero_or(_either_sign(_log_uniform(0.01, 1e3))),
)
_STATES = st.builds(
    InitialState,
    st.builds(lambda r, phase: r * np.exp(1j * phase), _log_uniform(1e-3, 1e3),
              st.floats(0.0, 2 * np.pi)),
    st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
)


class TestInvariantsOverTheAcceptedDomain:
    def test_every_record_keeps_the_identities_of_its_construction(self):
        # identities that the engine's construction keeps and does not
        # re-check: the Bogoliubov identity, nu >= 1, the optical bound of the
        # fully dephased mode, the Araki-Lieb sandwich, and delta = 0 at g0 = 0
        returned = []

        @settings(max_examples=200, deadline=None)
        @given(profile=_PROFILES, coupling=_COUPLINGS, init=_STATES,
               tau_max=st.floats(0.1, 60 * np.pi))
        def check(profile, coupling, init, tau_max):
            system = SystemParams(1.0, coupling, profile)
            try:
                rec = evaluate_trajectory(system, init, np.linspace(0.0, tau_max, 64))
            except (NonFiniteError, DomainError):
                returned.append(False)
                return
            returned.append(True)
            # |alpha|^2 - |beta|^2 - 1 relative to |alpha|^2 + |beta|^2, in
            # units of the larger modulus so that neither square overflows
            scale = np.maximum(np.abs(rec.alpha), np.abs(rec.beta))
            a, b = np.abs(rec.alpha) / scale, np.abs(rec.beta) / scale
            residual = np.abs((a - b) * (a + b) - (1.0 / scale) ** 2) / (a**2 + b**2)
            assert np.max(residual) <= 1e-8
            r = rec.report
            for nu in (r.nu_full, r.nu_op, r.nu_me):
                assert np.min(nu) >= 1.0 - 1e-6
            nc = abs(init.mu_c) ** 2
            bound = 4.0 * nc * (1.0 + nc)
            assert np.max(r.nu_op**2 - 1.0) <= bound + 1e-9 * max(bound, 1.0)
            slack = 1e-9 * np.maximum(r.delta_max, 1.0)
            assert np.all(r.delta_min - r.delta <= slack)
            assert np.all(r.delta - r.delta_max <= slack)
            if coupling.g == 0.0:
                assert np.all(r.delta == 0.0)

        check()
        assert len(returned) >= 200
        assert sum(returned) >= 0.9 * len(returned)
