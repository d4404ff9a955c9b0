import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optomech import (
    ConstantSqueezing,
    Coupling,
    DomainError,
    ModulatedSqueezing,
    SystemParams,
    ValidationError,
    araki_lieb_bounds,
    classify_regime,
    constant_coefficients,
    evaluate_point,
    mode_entropy,
    non_gaussianity,
    subsystem_eigenvalues,
    symplectic_eigenvalues,
)

TWO_LN_2 = 2 * np.log(2.0)


def _entropy_50_digits(nu: float) -> float:
    with mpmath.workdps(50):
        up, dn = (mpmath.mpf(nu) + 1) / 2, (mpmath.mpf(nu) - 1) / 2
        return float(up * mpmath.log(up) - (dn * mpmath.log(dn) if dn > 0 else 0))


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert symplectic_eigenvalues(np.eye(4)) == pytest.approx([1.0, 1.0])

    def test_pure_squeezed_times_vacuum(self):
        r = 0.9
        block = np.array([[np.cosh(2 * r), np.sinh(2 * r)], [np.sinh(2 * r), np.cosh(2 * r)]])
        sigma = np.eye(4, dtype=complex)
        sigma[np.ix_([1, 3], [1, 3])] = block
        assert symplectic_eigenvalues(sigma) == pytest.approx([1.0, 1.0])

    def test_two_mode_squeezed_is_pure_with_mixed_blocks(self):
        r = 0.7
        ch, sh = np.cosh(2 * r), np.sinh(2 * r)
        sigma = np.array(
            [[ch, 0, 0, sh], [0, ch, sh, 0], [0, sh, ch, 0], [sh, 0, 0, ch]], dtype=complex
        )
        assert symplectic_eigenvalues(sigma) == pytest.approx([1.0, 1.0])
        assert symplectic_eigenvalues(sigma[np.ix_([0, 2], [0, 2])])[0] == pytest.approx(ch)

    def test_thermal(self):
        assert symplectic_eigenvalues(3.0 * np.eye(2))[0] == pytest.approx(3.0)

    def test_non_hermitian_rejected(self):
        sigma = np.eye(4, dtype=complex)
        sigma[0, 1] = 0.5
        with pytest.raises(ValidationError):
            symplectic_eigenvalues(sigma)


class TestModeEntropy:
    def test_pure_mode(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mode_entropy(1.0) == 0.0
            assert type(mode_entropy(1.0)) is float
            out = mode_entropy(np.ones(3))
        assert out.shape == (3,)
        assert np.all(out == 0.0)

    def test_reference_value(self):
        assert mode_entropy(3.0) == pytest.approx(TWO_LN_2)
        assert mode_entropy(3.0) == pytest.approx(1.3862944, abs=1e-7)

    def test_matches_xlogy_reference(self):
        # the reference is the 50-digit value: xlogy(up, up) - xlogy(dn, dn)
        # itself cancels to 4e-11 at nu = 1e6
        nu = np.array([1.0, 1.0 + 1e-15, 1.0 + 1e-8, 1.5, 10.0, 1e6])
        reference = np.array([_entropy_50_digits(x) for x in nu])
        assert np.max(np.abs(mode_entropy(nu) - reference)) <= 1e-15
        for x, ref in zip(nu, reference):
            assert abs(mode_entropy(x) - ref) <= 1e-15

    def test_relative_accuracy_across_scales(self):
        nu = np.array([1 + 1e-12, 1 + 1e-8, 1.5, 10.0, 300.0, 1e4, 1e8, 1e12])
        reference = np.array([_entropy_50_digits(x) for x in nu])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mode_entropy(nu)
        assert np.max(np.abs(got - reference) / reference) <= 1e-15

    def test_clamp_window(self):
        assert mode_entropy(1.0 - 5e-7) == 0.0

    def test_below_window_rejected(self):
        with pytest.raises(DomainError):
            mode_entropy(0.9)
        with pytest.raises(DomainError):
            mode_entropy(1.0 - 1.01e-6)
        with pytest.raises(DomainError):
            mode_entropy(np.array([1.0, 1.0 - 2e-6]))

    @settings(max_examples=60, deadline=None)
    @given(nu=st.floats(1.0, 50.0), bump=st.floats(1e-6, 5.0))
    def test_monotone(self, nu, bump):
        assert mode_entropy(nu + bump) > mode_entropy(nu)


class TestArakiLiebBounds:
    def test_pure_subsystems(self):
        assert araki_lieb_bounds(1.0, 1.0) == (0.0, 0.0)

    def test_one_trivial_subsystem_pins_both_bounds(self):
        lo, hi = araki_lieb_bounds(3.0, 1.0)
        assert lo == pytest.approx(TWO_LN_2)
        assert hi == pytest.approx(TWO_LN_2)

    def test_generic_pair(self):
        lo, hi = araki_lieb_bounds(3.0, np.sqrt(17.0))
        s17 = mode_entropy(np.sqrt(17.0))
        assert lo == pytest.approx(s17 - TWO_LN_2)
        assert hi == pytest.approx(s17 + TWO_LN_2)

    @settings(max_examples=60, deadline=None)
    @given(nu_op=st.floats(1.0, 30.0), nu_me=st.floats(1.0, 30.0))
    def test_ordering(self, nu_op, nu_me):
        lo, hi = araki_lieb_bounds(nu_op, nu_me)
        assert 0.0 <= lo <= hi


class TestSubsystemEigenvalues:
    def test_no_kicks_leaves_mechanics_pure(self):
        coeffs = constant_coefficients(0.0, 0.0, 1.0)
        nu_op, nu_me = subsystem_eigenvalues(coeffs, 1.0)
        assert nu_me == pytest.approx(1.0)
        assert nu_op == pytest.approx(1.0)

    def test_mechanical_closed_form(self):
        # |per-photon displacement|^2 = 4 and one photon on average
        coeffs = constant_coefficients(1.0, 0.0, np.pi)
        _, nu_me = subsystem_eigenvalues(coeffs, 1.0)
        assert nu_me == pytest.approx(np.sqrt(17.0))
        assert nu_me == pytest.approx(4.1231056, abs=1e-7)

    def test_matches_block_trace(self, benchmark_system, coherent_init):
        rec = evaluate_point(benchmark_system, coherent_init, np.pi)
        nu_op, nu_me = subsystem_eigenvalues(rec.coeffs, coherent_init.mu_c)
        assert abs(nu_op - symplectic_eigenvalues(rec.covariance.optical_block())[0]) < 1e-8
        assert abs(nu_me - symplectic_eigenvalues(rec.covariance.mechanical_block())[0]) < 1e-8

    def test_optical_bound(self):
        for tau in np.linspace(0.1, 2 * np.pi, 17):
            coeffs = constant_coefficients(2.0, 0.0, tau)
            nu_op, _ = subsystem_eigenvalues(coeffs, 1.0)
            assert nu_op <= np.sqrt(1 + 4 + 4) + 1e-9

    def test_asymptotic_optical_entropy(self):
        # with many photons and a nonzero kick the optical entropy approaches
        # the fully dephased value s(1 + 2|mu_c|^2); full delta does not,
        # because the mechanical subsystem stays far from pure here
        mu_c = 5.0
        coeffs = constant_coefficients(1.0, 0.0, np.pi)
        assert abs(coeffs.number_displacement) < 2 * abs(mu_c)
        nu_op, _ = subsystem_eigenvalues(coeffs, mu_c)
        target = mode_entropy(1 + 2 * abs(mu_c) ** 2)
        assert abs(mode_entropy(nu_op) - target) <= 0.10 * target


class TestRegimes:
    def test_tags(self):
        assert classify_regime(0.1, 1.0) == "optical-dominated"
        assert classify_regime(10.0, 1.0) == "mechanical-dominated"
        assert classify_regime(2.0, 1.0) == "balanced"
        assert classify_regime(0.0, 0.0) == "balanced"


class TestNonGaussianity:
    def test_initial_state_is_gaussian(self, benchmark_system, coherent_init):
        rec = evaluate_point(benchmark_system, coherent_init, 0.0)
        assert rec.report.delta == 0.0
        assert rec.report.delta_min == 0.0
        assert rec.report.delta_max == 0.0

    def test_benchmark_is_non_gaussian(self, benchmark_system, coherent_init):
        rec = evaluate_point(benchmark_system, coherent_init, np.pi)
        assert rec.report.delta > 0.0
        assert rec.report.delta <= rec.report.delta_max + 1e-9

    def test_strong_constant_squeezing_suppresses(self, coherent_init):
        strong = SystemParams(1.0, Coupling(g=1.0), ConstantSqueezing(1e3))
        weak = SystemParams(1.0, Coupling(g=1.0), ConstantSqueezing(0.0))
        d_strong = evaluate_point(strong, coherent_init, np.pi).report.delta
        d_weak = evaluate_point(weak, coherent_init, np.pi).report.delta
        assert d_strong < d_weak

    def test_report_is_the_same_in_the_lab_frame(self, coherent_init):
        # the engine reports from the squeezing frame; the lab-frame
        # covariance differs by a local Bogoliubov map and must agree
        system = SystemParams(1.0, Coupling(g=1.0), ModulatedSqueezing(0.1, 2.0))
        rec = evaluate_point(system, coherent_init, 4 * np.pi)
        lab = non_gaussianity(
            rec.covariance.sigma,
            number_displacement=rec.coeffs.number_displacement,
            mu_c=coherent_init.mu_c,
        )
        assert abs(rec.beta) > 1.0
        for name in ("delta", "delta_min", "delta_max", "nu_op", "nu_me"):
            assert getattr(lab, name) == pytest.approx(getattr(rec.report, name), rel=1e-9)
        assert lab.nu_full == pytest.approx(rec.report.nu_full, rel=1e-9)

    def test_sandwich_on_random_configs(self, coherent_init):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g0 = rng.uniform(0.1, 3.0)
            d2 = rng.uniform(0.0, 2.0)
            tau = rng.uniform(0.05, 2 * np.pi)
            rec = evaluate_point(
                SystemParams(1.0, Coupling(g=g0), ConstantSqueezing(d2)), coherent_init, tau
            )
            assert rec.report.delta_min - 1e-9 <= rec.report.delta
            assert rec.report.delta <= rec.report.delta_max + 1e-9
