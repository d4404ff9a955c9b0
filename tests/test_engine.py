import numpy as np
import pytest

from optomech import (
    ConstantSqueezing,
    Coupling,
    InitialState,
    ModulatedSqueezing,
    SystemParams,
    evaluate_point,
    evaluate_trajectory,
)
from reference import subsystem_eigenvalues_mp


class TestClosedFormDispatch:
    def test_routes_agree(self):
        # a modulation at omega0 = 0 is the same constant squeezing, but it
        # takes the numeric route; compare against the closed-form dispatch
        init = InitialState(1.0, 0.2 - 0.1j)
        for coupling in (Coupling(g=0.8), Coupling(g=0.8, drive=0.3)):
            closed = SystemParams(1.0, coupling, ConstantSqueezing(0.4))
            numeric = SystemParams(1.0, coupling, ModulatedSqueezing(0.4, 0.0))
            for tau in (0.7, np.pi, 5.1):
                a = evaluate_point(closed, init, tau)
                b = evaluate_point(numeric, init, tau)
                assert abs(a.moments.a - b.moments.a) < 1e-8
                assert abs(a.moments.b - b.moments.b) < 1e-8
                assert abs(a.report.delta - b.report.delta) < 1e-7

    def test_record_consistency(self):
        system = SystemParams(1.0, Coupling(g=1.0), ConstantSqueezing(0.5))
        rec = evaluate_trajectory(system, InitialState(1.0), [0.0, 1.0, 2.0])
        assert rec.tau.tolist() == [0.0, 1.0, 2.0]
        assert np.array_equal(rec.moments.tau, rec.tau)
        assert np.array_equal(rec.coeffs.tau, rec.tau)
        assert rec.covariance.sigma.shape == (3, 4, 4)
        assert rec.report.nu_full.shape == (3, 2)

    def test_negative_time_rejected(self):
        system = SystemParams(1.0, Coupling(g=1.0), ConstantSqueezing(0.0))
        with pytest.raises(ValueError):
            evaluate_trajectory(system, InitialState(1.0), [-1.0])

    def test_drive_runs_through_numeric_route(self):
        # a real drive shifts the mechanics; photon number stays put
        system = SystemParams(1.0, Coupling(g=0.5, drive=0.3), ModulatedSqueezing(0.2, 2.0))
        rec = evaluate_point(system, InitialState(1.0, 0.0), 1.5)
        assert abs(rec.moments.drive_shift) > 0.0
        assert rec.moments.na == 1.0
        assert rec.report.delta_min - 1e-9 <= rec.report.delta <= rec.report.delta_max + 1e-9


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
            assert point.covariance.sigma.shape == (4, 4)
            # on the numeric route a single point is solved up to its own tau,
            # so only the last time shares the trajectory's solver grid
            same_grid = system.coupling.drive_is_zero or i == len(taus) - 1
            rel = 1e-12 if same_grid else 1e-8
            assert _rel_close(point.covariance.sigma, traj.covariance.sigma[i], rel)
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
