import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optomech import (
    ConstantSqueezing,
    DomainError,
    ModulatedSqueezing,
    SingularFactorError,
    ValidityWarning,
    constant_bogoliubov,
    mathieu_params,
    solve_quadratic,
    two_scale_solution,
)
from optomech import squeezing
from reference import (OffsetCosineSqueezing, bogoliubov_residual, constant_solution,
                       identity_residual, rwa_mode)

TWO_PI = 2 * np.pi


class TestConstantSolution:
    def test_free_oscillator(self):
        c, s = constant_solution(0.0, np.pi / 2)
        assert c == pytest.approx(0.0, abs=1e-15)
        assert s == pytest.approx(1.0)

    def test_stiffened_frequency(self):
        # 1 + 4*2 = 9 -> oscillation at rate 3, so cos(3*pi) = -1
        c, s = constant_solution(2.0, np.pi)
        assert c == pytest.approx(-1.0)
        assert s == pytest.approx(0.0, abs=1e-15)

    def test_free_particle(self):
        # 1 + 4*d2 = 0 leaves u'' = 0: u = 1 and u = tau, and |beta| = tau/2
        taus = np.array([0.0, 1e-3, 0.5, 7.0])
        c, s = constant_solution(-0.25, taus)
        assert np.array_equal(c, np.ones(4)) and np.array_equal(s, taus)
        _, beta = constant_bogoliubov(-0.25, taus)
        assert np.array_equal(beta, 0.5j * taus)

    def test_matches_numeric_integration(self):
        # the numeric propagator is the independent oracle for the closed form
        sol = solve_quadratic(ConstantSqueezing(0.5), 10 * np.pi)
        c, s = constant_solution(0.5, sol.tau)
        assert np.max(np.abs(sol.cos_sol - c)) < 1e-11
        assert np.max(np.abs(sol.sin_sol - s)) < 1e-11


class TestSolveQuadratic:
    def test_free_limit_grid_values(self):
        sol = solve_quadratic(ConstantSqueezing(0.0), TWO_PI)
        assert np.allclose(sol.cos_sol, np.cos(sol.tau), atol=1e-12)
        assert np.allclose(sol.sin_sol, np.sin(sol.tau), atol=1e-12)

    def test_symplectic_identity_on_grid(self):
        for profile in (ConstantSqueezing(0.5), ModulatedSqueezing(0.1, 2.0)):
            sol = solve_quadratic(profile, 4 * np.pi)
            assert np.max(identity_residual(sol)) < 1e-10

    def test_identity_is_relative_at_resonance(self):
        # |u| ~ 1e8 at 60 pi: the Wronskian defect is judged against its terms
        sol = solve_quadratic(ModulatedSqueezing(0.1, 2.0), 60 * np.pi)
        assert np.max(np.abs(sol.cos_sol)) > 1e6
        assert np.max(identity_residual(sol)) <= 1e-10

    @pytest.mark.parametrize(
        "profile, tau_max",
        [
            pytest.param(ModulatedSqueezing(0.1, 2.0), 60 * np.pi, id="resonant-60pi"),
            pytest.param(ModulatedSqueezing(0.4, 2.0), 8 * np.pi, id="strong-8pi"),
            pytest.param(ModulatedSqueezing(-0.2, 0.7), 30 * np.pi, id="slow-30pi"),
            pytest.param(OffsetCosineSqueezing(), 8 * np.pi, id="table-8pi"),
        ],
    )
    def test_matches_tight_dop853(self, profile, tau_max):
        from scipy.integrate import solve_ivp

        sol = solve_quadratic(profile, tau_max)

        def rhs(t, y):
            w = 1.0 + 4.0 * float(profile.d2_at(t))
            return (y[1], -w * y[0], y[3], -w * y[2])

        ref = solve_ivp(rhs, (0.0, tau_max), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                        dense_output=True, rtol=1e-13, atol=1e-13).sol(sol.tau)
        got = np.array([sol.cos_sol, sol.cos_deriv, sol.sin_sol, sol.sin_deriv])
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize("d2, tau_max", [(0.1, TWO_PI), (0.3, 20.0), (0.1, 60 * np.pi)])
    def test_scan_matches_sequential_product(self, d2, tau_max):
        # the log2(n)-pass scan reassociates the product of the Magnus steps;
        # the reference multiplies the same steps one at a time, in order
        profile = ModulatedSqueezing(d2, 2.0)
        sol = solve_quadratic(profile, tau_max)
        h = np.diff(sol.tau)
        w = 1.0 + 4.0 * profile.d2_at(sol.tau[:-1, None] + h[:, None] * (0.5 + np.array([-1, 1]) * np.sqrt(3.0) / 6.0))
        c = np.sqrt(3.0) / 12.0 * h * h * (w[:, 1] - w[:, 0])
        lower = -0.5 * h * (w[:, 0] + w[:, 1])
        s2 = c * c + h * lower
        s = np.sqrt(np.abs(s2))
        even = np.where(s2 > 0.0, np.cosh(s), np.cos(s))
        odd = np.where(s2 > 0.0, np.sinh(s) / np.where(s > 0.0, s, 1.0), np.sinc(s / np.pi))
        steps = np.column_stack([even + odd * c, odd * h, odd * lower, even - odd * c])

        prod = (1.0, 0.0, 0.0, 1.0)
        ref = [prod]
        for s00, s01, s10, s11 in steps.tolist():
            p00, p01, p10, p11 = prod
            prod = (s00 * p00 + s01 * p10, s00 * p01 + s01 * p11,
                    s10 * p00 + s11 * p10, s10 * p01 + s11 * p11)
            ref.append(prod)
        ref = np.array(ref)
        got = np.column_stack([sol.cos_sol, sol.sin_sol, sol.cos_deriv, sol.sin_deriv])
        err = np.linalg.norm(got - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert np.max(err) <= 1e-12

    def test_zero_amplitude_modulation_is_free(self):
        sol = solve_quadratic(ModulatedSqueezing(0.0, 2.0), TWO_PI)
        assert np.max(np.abs(sol.cos_sol - np.cos(sol.tau))) < 1e-8
        assert np.max(np.abs(sol.sin_sol - np.sin(sol.tau))) < 1e-8

    def test_negative_time_rejected(self):
        for taus in (-1e-300, [0.0, 2.0, -0.5], np.nan, [1.0, np.inf]):
            with pytest.raises(DomainError, match="times must be non-negative and finite"):
                solve_quadratic(ConstantSqueezing(0.0), taus)

    @pytest.mark.parametrize("taus", [0.0, [0.0, -0.0, 0.0], []], ids=["0-d", "repeated", "empty"])
    def test_zero_times_give_one_node_identity(self, taus):
        sol = solve_quadratic(ModulatedSqueezing(0.1, 2.0), taus)
        for got, want in zip(sol, (0.0, 1.0, 0.0, 0.0, 1.0)):
            np.testing.assert_array_equal(got, [want])
        alpha, beta = sol.bogoliubov(taus)
        np.testing.assert_array_equal(alpha, np.ones(np.shape(taus)))
        np.testing.assert_array_equal(beta, np.zeros(np.shape(taus)))

    @pytest.mark.parametrize("taus", [np.pi / 3, [5.0, 0.1, 5.0, 2.0, 0.1], [[1.5, 0.0], [7.3, 1.5]]],
                             ids=["0-d", "unsorted-repeated", "2-d"])
    def test_every_asked_time_is_a_node(self, taus):
        # the nodes are the uniform grid over [0, max(taus)] joined with the
        # times; each reader returns the shape of the times it is given
        sol = solve_quadratic(ModulatedSqueezing(0.1, 2.0), taus)
        assert np.all(np.diff(sol.tau) > 0.0) and sol.tau[0] == 0.0
        assert sol.tau[-1] == np.max(taus)
        assert set(np.ravel(taus)) <= set(sol.tau)
        j = sol.node(taus)
        assert np.shape(j) == np.shape(taus)
        np.testing.assert_array_equal(sol.tau[j], taus)
        alpha, _ = sol.bogoliubov(taus)
        assert np.shape(alpha) == np.shape(sol.mode(taus)) == np.shape(taus)

    def test_unaffordable_grid_refused_before_allocation(self, monkeypatch):
        # the node count is a float, so even a span near the float limit is
        # refused by name, before any grid is laid out
        profile = ModulatedSqueezing(0.1, 3.0)
        monkeypatch.setattr(squeezing, "_MAX_POINTS", 5000)
        assert solve_quadratic(profile, 15.0).tau.size == 4545

        def unreachable(*args, **kwargs):
            raise AssertionError("grid laid out past the cap")

        monkeypatch.setattr(squeezing.np, "linspace", unreachable)
        for tau_max, span in ((20.0, "20"), (1e15, "1e+15"), (1e308, "1e+308")):
            with pytest.raises(DomainError) as err:
                solve_quadratic(profile, tau_max)
            assert str(err.value) == f"tau {span} needs more than 5000 solver grid points"

    def test_modulated_tracks_two_scale_form(self, monkeypatch):
        # deviation is dominated by the perturbative truncation, not the
        # integrator: a grid of 600 samples per unit tau must not move it
        profile = ModulatedSqueezing(0.1, 2.0)
        taus = np.linspace(0, 4 * np.pi, 800)
        sol = solve_quadratic(profile, taus)
        monkeypatch.setattr(squeezing, "_SAMPLES_PER_UNIT",
                            600.0 / squeezing.oscillation_rate(profile))
        fine = solve_quadratic(profile, taus)
        with pytest.warns(ValidityWarning):
            c_ts, _ = two_scale_solution(0.1, taus)
        dev = np.max(np.abs(np.real(sol.mode(taus)) - c_ts))
        dev_fine = np.max(np.abs(np.real(fine.mode(taus)) - c_ts))
        assert dev < 3.0 * dev_fine
        assert dev < 0.3


class TestModeFunction:
    def test_initial_value_is_one(self, modulated_solution):
        assert modulated_solution.mode(0.0) == pytest.approx(1.0)

    def test_constant_closed_form(self):
        taus = (0.3, 1.7, 5.9)
        sol = solve_quadratic(ConstantSqueezing(0.5), taus)
        z = np.sqrt(3.0)
        for tau in taus:
            want = np.cos(z * tau) - 1j * np.sin(z * tau) / z
            assert sol.mode(tau) == pytest.approx(want, abs=1e-9)

    def test_time_not_solved_for_rejected(self):
        # 0.5 lies inside the solved span but is no node: nothing is read
        # off the grid between nodes
        sol = solve_quadratic(ModulatedSqueezing(0.1, 2.0), [0.25, 1.0])
        assert 0.5 not in sol.tau
        for read in (sol.node, sol.mode, sol.bogoliubov):
            for tau in (0.5, [0.25, 0.5], np.nextafter(1.0, 2.0), np.nan):
                with pytest.raises(DomainError):
                    read(tau)

    def test_outside_span_rejected(self, modulated_solution):
        with pytest.raises(DomainError):
            modulated_solution.mode(3 * np.pi)
        with pytest.raises(DomainError):
            modulated_solution.mode(-0.5)

    def test_two_scale_mode_matches_rwa_form(self):
        # identical up to the 1/(1 - d2) factor collapsing to unity
        d2 = 0.1
        taus = np.linspace(0, np.pi, 50)
        with pytest.warns(ValidityWarning):
            c_ts, s_ts = two_scale_solution(d2, taus)
        xi_two_scale = c_ts - 1j * (1.0 - d2) * s_ts
        assert np.max(np.abs(xi_two_scale - rwa_mode(d2, taus))) < 1e-12


class TestBogoliubov:
    def test_free_evolution(self):
        taus = (0.4, 2.2, 6.0)
        sol = solve_quadratic(ConstantSqueezing(0.0), taus)
        for tau in taus:
            alpha, beta = sol.bogoliubov(tau)
            assert alpha == pytest.approx(np.exp(-1j * tau), abs=1e-10)
            assert beta == pytest.approx(0.0, abs=1e-10)

    def test_stiffened_half_period(self):
        alpha, beta = constant_bogoliubov(2.0, np.pi)
        assert alpha == pytest.approx(-1.0)
        assert beta == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        d2=st.floats(-1.0, 3.0),
        tau=st.floats(0.0, 25.0),
    )
    @example(d2=-0.25, tau=5e-324)
    @example(d2=-1.0, tau=5e-324)
    def test_constant_identity(self, d2, tau):
        # relative to |alpha|^2 + |beta|^2, which grows like exp(2*kappa*tau)
        # in the inverted sector; subnormal times must raise no RuntimeWarning
        alpha, beta = constant_bogoliubov(d2, tau)
        size = abs(alpha) ** 2 + abs(beta) ** 2
        assert abs(abs(alpha) ** 2 - abs(beta) ** 2 - 1.0) < 1e-10 * size

    def test_modulated_identity_and_frozen_reference(self, modulated_solution):
        alpha, beta = modulated_solution.bogoliubov(TWO_PI)
        assert abs(abs(alpha) ** 2 - abs(beta) ** 2 - 1.0) < 1e-6
        # frozen from a refined-tolerance (rtol = atol = 1e-12) integration
        assert alpha == pytest.approx(1.2020243079756843 - 0.0254719090565640j, abs=1e-7)
        assert beta == pytest.approx(0.0 - 0.6674662951452535j, abs=1e-7)

    def test_node_times_read_the_node_values(self, modulated_solution):
        # a Magnus step of length 0 is the identity, and at every node the
        # pair is built from the node's own values, bit for bit
        sol = modulated_solution
        steps = squeezing._magnus_step(ModulatedSqueezing(0.1, 2.0), sol.tau, 0.0)
        for got, want in zip(steps, (1.0, 0.0, 0.0, 1.0)):
            np.testing.assert_array_equal(got, np.full(sol.tau.shape, want))
        xi = sol.cos_sol - 1j * sol.sin_sol
        dxi = sol.cos_deriv - 1j * sol.sin_deriv
        alpha, beta = sol.bogoliubov(sol.tau)
        np.testing.assert_array_equal(alpha, 0.5 * (xi + 1j * dxi))
        np.testing.assert_array_equal(beta, 0.5 * (np.conj(xi) + 1j * np.conj(dxi)))
        np.testing.assert_array_equal(sol.mode(sol.tau), xi)

    def test_grid_residuals(self):
        sol = solve_quadratic(ConstantSqueezing(0.5), 10 * np.pi)
        assert np.max(bogoliubov_residual(sol)) < 1e-10
        mod = solve_quadratic(ModulatedSqueezing(0.1, 2.0), 10 * np.pi)
        assert np.max(bogoliubov_residual(mod)) < 1e-6


class TestTwoScaleSolution:
    def test_initial_conditions(self):
        c, s = two_scale_solution(0.1, 0.0)
        assert c == pytest.approx(1.0)
        assert s == pytest.approx(0.0)

    def test_half_period_value(self):
        with pytest.warns(ValidityWarning):
            c, _ = two_scale_solution(0.1, np.pi)
        assert c == pytest.approx(-np.cosh(0.1 * np.pi))
        assert c == pytest.approx(-1.0497552, abs=1e-7)

    def test_reduces_to_free_case(self):
        taus = np.linspace(0, 10, 64)
        c, s = two_scale_solution(0.0, taus)
        assert np.array_equal(c, np.cos(taus))
        assert np.allclose(s, np.sin(taus), atol=1e-15)

    def test_singular_amplitude(self):
        with pytest.raises(SingularFactorError):
            two_scale_solution(1.0, 0.5)

    def test_warns_when_stretched(self):
        with pytest.warns(ValidityWarning):
            two_scale_solution(0.2, 6.0)


class TestMathieuParams:
    def test_resonant_modulation(self):
        assert mathieu_params(0.1, 2.0) == pytest.approx((1.0, -0.2))

    def test_zero_drive(self):
        assert mathieu_params(0.0, 2.0) == pytest.approx((1.0, 0.0))

    def test_slow_modulation(self):
        assert mathieu_params(0.5, 1.0) == pytest.approx((4.0, -4.0))

    def test_zero_frequency_rejected(self):
        with pytest.raises(DomainError):
            mathieu_params(0.1, 0.0)

    @pytest.mark.parametrize("omega0", [1e-300, -1e-200, 1e160, 1e-160])
    def test_square_out_of_float_range_rejected(self, omega0):
        # omega0**2 underflows to 0 or overflows to inf, or a = 4/omega0**2
        # overflows
        with pytest.raises(DomainError):
            mathieu_params(0.1, omega0)

    @settings(max_examples=40, deadline=None)
    @given(d2=st.floats(-2, 2), omega0=st.floats(0.1, 5.0))
    def test_algebraic_map(self, d2, omega0):
        a, q = mathieu_params(d2, omega0)
        assert a == pytest.approx(4.0 / omega0**2)
        assert q == pytest.approx(-8.0 * d2 / omega0**2)
