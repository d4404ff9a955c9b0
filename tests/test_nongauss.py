import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optomech import (
    ConstantSqueezing,
    Coupling,
    CovarianceExcess,
    DomainError,
    ModulatedSqueezing,
    SystemParams,
    ValidationError,
    InitialState,
    constant_coefficients,
    covariance,
    evaluate_point,
    evaluate_trajectory,
    mode_entropy,
    moments,
    non_gaussianity,
    squeezing_frame_excess,
)
from optomech.cli import main as cli_main
from reference import (delta_mp, squeezing_frame_report, subsystem_eigenvalues_mp,
                       symplectic_eigenvalues)

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

    def test_infinite_nu_has_infinite_entropy(self):
        # inf * log1p(1/inf) would be inf * 0; the limit is inf, with no
        # RuntimeWarning (the suite turns one into an error)
        assert mode_entropy(np.inf) == np.inf
        assert mode_entropy(np.array([1.0, np.inf])).tolist() == [0.0, np.inf]

    def test_below_window_rejected(self):
        with pytest.raises(DomainError):
            mode_entropy(0.9)
        with pytest.raises(DomainError):
            mode_entropy(1.0 - 1.01e-6)
        with pytest.raises(DomainError):
            mode_entropy(np.array([1.0, 1.0 - 2e-6]))
        with pytest.raises(DomainError):
            mode_entropy(np.nan)
        with pytest.raises(DomainError):
            mode_entropy(np.array([1.0, np.nan]))

    @settings(max_examples=60, deadline=None)
    @given(nu=st.floats(1.0, 50.0), bump=st.floats(1e-6, 5.0))
    def test_monotone(self, nu, bump):
        assert mode_entropy(nu + bump) > mode_entropy(nu)


def _decoupled_report(nu_op, nu_me=1.0, mu_c=30.0):
    """The report on a hand-built excess with no s12, s13, s14: e11 = nu_op - 1
    gives e_op = nu_op^2 - 1, and |k|^2 = (nu_me^2 - 1) / (4 |mu_c|^2) e_me."""
    excess = CovarianceExcess(e11=nu_op - 1.0, e22=0.0, s12=0.0, s13=0.0, s14=0.0, s24=0.0)
    k = np.sqrt((nu_me**2 - 1.0) / (4.0 * mu_c**2))
    return non_gaussianity(excess, number_displacement=k, mu_c=mu_c)


class TestArakiLiebBounds:
    def test_pure_subsystems(self):
        r = _decoupled_report(1.0, 1.0)
        assert (r.delta_min, r.delta_max) == (0.0, 0.0)

    def test_one_trivial_subsystem_pins_both_bounds(self):
        r = _decoupled_report(3.0, 1.0)
        assert r.delta_min == pytest.approx(TWO_LN_2)
        assert r.delta_max == pytest.approx(TWO_LN_2)

    def test_generic_pair(self):
        r = _decoupled_report(3.0, np.sqrt(17.0))
        s17 = mode_entropy(np.sqrt(17.0))
        assert r.delta_min == pytest.approx(s17 - TWO_LN_2)
        assert r.delta_max == pytest.approx(s17 + TWO_LN_2)

    @settings(max_examples=60, deadline=None)
    @given(nu_op=st.floats(1.0, 30.0), nu_me=st.floats(1.0, 30.0))
    def test_ordering(self, nu_op, nu_me):
        r = _decoupled_report(nu_op, nu_me)
        assert 0.0 <= r.delta_min <= r.delta_max


class TestSubsystemEigenvalues:
    def test_no_kicks_leaves_mechanics_pure(self):
        r = squeezing_frame_report(constant_coefficients(0.0, 0.0, 1.0), 1.0)
        assert r.nu_me == pytest.approx(1.0)
        assert r.nu_op == pytest.approx(1.0)

    def test_mechanical_closed_form(self):
        # |per-photon displacement|^2 = 4 and one photon on average
        r = squeezing_frame_report(constant_coefficients(1.0, 0.0, np.pi), 1.0)
        assert r.nu_me == pytest.approx(np.sqrt(17.0))
        assert r.nu_me == pytest.approx(4.1231056, abs=1e-7)

    def test_optical_bound(self):
        for tau in np.linspace(0.1, 2 * np.pi, 17):
            r = squeezing_frame_report(constant_coefficients(2.0, 0.0, tau), 1.0)
            assert r.nu_op <= np.sqrt(1 + 4 + 4) + 1e-9

    def test_asymptotic_optical_entropy(self):
        # with many photons and a nonzero kick the optical entropy approaches
        # the fully dephased value s(1 + 2|mu_c|^2); full delta does not,
        # because the mechanical subsystem stays far from pure here
        mu_c = 5.0
        coeffs = constant_coefficients(1.0, 0.0, np.pi)
        assert abs(coeffs.number_displacement) < 2 * abs(mu_c)
        r = squeezing_frame_report(coeffs, mu_c)
        target = mode_entropy(1 + 2 * abs(mu_c) ** 2)
        assert abs(mode_entropy(r.nu_op) - target) <= 0.10 * target

    def test_bright_cavity_matches_high_precision(self):
        # the n_c^2 bracket of the closed form cancels for a bright cavity;
        # evaluated in double it lost 2.6e-7 relative here
        system = SystemParams(1.0, Coupling(g=0.01), ConstantSqueezing(0.0))
        rec = evaluate_point(system, InitialState(30.0, 0.0), 2 * np.pi)
        nu_op, nu_me = subsystem_eigenvalues_mp(rec.coeffs, 30.0)
        assert abs(rec.report.nu_op - nu_op) <= 1e-10 * nu_op
        assert abs(rec.report.nu_me - nu_me) <= 1e-10 * nu_me


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
        sigma = rec.covariance
        lab = non_gaussianity(
            CovarianceExcess(
                e11=sigma[0, 0].real - 1.0,
                e22=sigma[1, 1].real - 1.0,
                s12=sigma[0, 1],
                s13=sigma[0, 2],
                s14=sigma[0, 3],
                s24=sigma[1, 3],
            ),
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

    @pytest.mark.parametrize("g0, rel", [(1e-2, 2e-11), (1e-3, 5e-10), (1e-4, 1e-7)])
    def test_weak_coupling_matches_high_precision(self, g0, rel):
        # delta ~ g0^4 is formed from nu - 1 ~ g0^4; log((nu + 1) / 2) rounded
        # nu's half-excess and erred by 6e-11, 2e-6 and 8e-3 at these points
        system = SystemParams(1.0, Coupling(g=g0), ConstantSqueezing(0.0))
        rec = evaluate_point(system, InitialState(1.0, 0.0), 1.3)
        want = delta_mp(rec.coeffs, 1.0)
        assert abs(rec.report.delta - want) <= rel * want

    @pytest.mark.parametrize(
        "system",
        [
            SystemParams(1.0, Coupling(g=0.0), ConstantSqueezing(0.7)),
            SystemParams(1.0, Coupling(g=0.0, drive=0.4), ModulatedSqueezing(0.1, 2.0)),
        ],
        ids=["closed-form", "numeric-driven"],
    )
    def test_gaussian_evolution_measure_is_exactly_zero(self, system):
        rec = evaluate_trajectory(system, InitialState(1.5, 0.5j), np.linspace(0, 40 * np.pi, 201))
        for name in ("delta", "delta_min", "delta_max"):
            assert np.all(getattr(rec.report, name) == 0.0), name
        for name in ("nu_full", "nu_op", "nu_me"):
            assert np.all(getattr(rec.report, name) == 1.0), name


def _frame_spectrum(rec, init):
    sigma = covariance(moments(rec.coeffs, 1.0, 0.0, init))
    return symplectic_eigenvalues(sigma)


class TestFullSpectrum:
    def test_matches_eigenvalue_solver_on_the_c06_grid(self):
        init = InitialState(1.0, 0.0)
        taus = np.linspace(2 * np.pi / 5, 2 * np.pi, 5)
        worst = 0.0
        for g0 in np.linspace(0.1, 3.0, 10):
            for d2 in np.linspace(0.0, 2.0, 10):
                system = SystemParams(1.0, Coupling(g=g0), ConstantSqueezing(d2))
                rec = evaluate_trajectory(system, init, taus)
                want = _frame_spectrum(rec, init)
                worst = max(worst, np.max(np.abs(rec.report.nu_full - want) / want))
        assert worst <= 1e-9

    def test_matches_eigenvalue_solver_on_a_modulated_trajectory(self):
        init = InitialState(1.0 - 0.5j, 0.3 + 0.2j)
        system = SystemParams(1.0, Coupling(g=1.0, drive=0.2), ModulatedSqueezing(0.1, 2.0))
        rec = evaluate_trajectory(system, init, np.linspace(0.0, 20 * np.pi, 401))
        want = _frame_spectrum(rec, init)
        assert np.max(np.abs(rec.report.nu_full - want) / want) <= 1e-9


# (g0, d2, mu_c, tau_max, points), all modulated at omega0 = 2: long-time
# resonant runs whose eigenvalue-solver spectrum fell below 1 (a 2001-point
# run, then four from the 801-point grid g0 x d2 x mu_c x tau_max), and bright
# cavities, where <a^2>/<a>^2 overflows as <a> underflows
HARD_RUNS = [
    (0.5, 0.1, 3.0, 60 * np.pi, 2001),
    (0.1, 0.15, 0.5, 60 * np.pi, 801),
    (1.0, 0.3, 3.0, 20 * np.pi, 801),
    (3.0, 0.3, 1.0, 20 * np.pi, 801),
    (3.0, 0.15, 3.0, 60 * np.pi, 801),
    (0.1, 0.15, 10.0, 40 * np.pi, 801),
    (1.0, 0.15, 30.0, 4 * np.pi, 801),
]


class TestLongTimesAndBrightCavities:
    @pytest.mark.parametrize("g0, d2, mu_c, tau_max, points", HARD_RUNS)
    def test_measure_stays_physical(self, tmp_path, g0, d2, mu_c, tau_max, points):
        out = tmp_path / "o.csv"
        argv = ["evolve", "--squeezing", "modulated", "--omega0", "2", "--g0", repr(g0),
                "--d2", repr(d2), "--mu_c", repr(mu_c), "--tau_max", repr(tau_max),
                "--points", str(points), "--out", str(out)]
        assert cli_main(argv) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        nu_op, nu_me, delta, delta_min, delta_max = rows[:, 5:].T
        assert np.all(nu_op >= 1.0) and np.all(nu_me >= 1.0)
        slack = 1e-9 * np.maximum(delta_max, 1.0)
        assert np.all(delta_min - slack <= delta) and np.all(delta <= delta_max + slack)

        init = InitialState(mu_c)
        system = SystemParams(1.0, Coupling(g=g0), ModulatedSqueezing(d2, 2.0))
        rec = evaluate_trajectory(system, init, np.linspace(0.0, tau_max, points))
        assert np.all(rec.report.nu_full >= 1.0)
        # where the photon-conditioned kicks leave no overlap, the modes
        # decouple and the measure reaches its upper bound
        excess = squeezing_frame_excess(rec.coeffs, rec.moments)
        apart = (excess.s12 == 0) & (excess.s14 == 0)
        assert np.any(apart)
        assert rec.report.delta[apart] == pytest.approx(rec.report.delta_max[apart], rel=1e-14)
        assert np.array_equal(rec.report.delta, delta)
