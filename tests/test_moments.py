import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optomech import (
    ConstantSqueezing,
    Coupling,
    InitialState,
    ModulatedSqueezing,
    SystemParams,
    constant_bogoliubov,
    constant_coefficients,
    covariance,
    displacement_amplitudes,
    evaluate_point,
    evaluate_trajectory,
    kick_overlap,
    moments,
    squeezing_frame_excess,
)
from optomech import fock
from reference import analytic_ket, hermiticity_defect, symplectic_eigenvalues, zero_coefficients

TWO_PI = 2 * np.pi

MOMENT_NAMES = ("a", "b", "a2", "b2", "na", "nb", "ab", "ab_dag")


def assert_moments_close(got, want, rel, abs_floor=1e-6):
    for name in MOMENT_NAMES:
        x = complex(getattr(got, name))
        y = complex(getattr(want, name))
        assert abs(x - y) <= max(rel * abs(y), abs_floor), name


class TestDisplacementAmplitudes:
    def test_trivial(self):
        drive, photon = displacement_amplitudes(1.0, 0.0, zero_coefficients())
        assert drive == 0 and photon == 0

    def test_half_period_kick(self):
        coeffs = constant_coefficients(1.0, 0.0, np.pi)
        drive, photon = displacement_amplitudes(np.exp(-1j * np.pi), 0.0, coeffs)
        assert drive == 0
        assert photon == pytest.approx(2.0)

    def test_identity_check_is_relative_at_resonance(self):
        # at 40*pi |beta|^2 ~ 1e10, so rounding alone leaves an absolute
        # residual ~1e-5 in |alpha|^2 - |beta|^2 - 1; the pair is still valid
        system = SystemParams(1.0, Coupling(g=0.0), ModulatedSqueezing(0.1, 2.0))
        rec = evaluate_point(system, InitialState(1.0, 0.0), 40 * np.pi)
        assert abs(rec.beta) > 1e4
        assert rec.report.delta == 0.0

    def test_modulated_against_fock_oracle(self):
        # with mu_m = 0 and no drive, <b> reduces to photon_shift * |mu_c|^2
        system = SystemParams(1.0, Coupling(g=0.5), ModulatedSqueezing(0.1, 2.0))
        init = InitialState(1.0, 0.0)
        rec = evaluate_point(system, init, np.pi)
        final = fock.evolve(fock.product_coherent(init), system, np.pi)
        measured = fock.measure_moments(final, 1.0, np.pi)
        _, photon_shift = displacement_amplitudes(rec.alpha, rec.beta, rec.coeffs)
        assert photon_shift * 1.0 == pytest.approx(measured.b, rel=1e-3)


class TestMoments:
    def test_initial_coherent_state(self):
        init = InitialState(0.7 + 0.2j, -0.4 + 1.1j)
        m = moments(zero_coefficients(), 1.0, 0.0, init)
        assert m.a == pytest.approx(init.mu_c)
        assert m.b == pytest.approx(init.mu_m)
        assert m.a2 == pytest.approx(init.mu_c**2)
        assert m.nb == pytest.approx(abs(init.mu_m) ** 2)

    def test_free_mechanical_rotation(self):
        init = InitialState(0.0, 0.8 + 0.1j)
        for tau in (0.3, 1.9):
            alpha, beta = constant_bogoliubov(0.0, tau)
            m = moments(constant_coefficients(0.0, 0.0, tau), alpha, beta, init)
            assert m.b == pytest.approx(np.exp(-1j * tau) * init.mu_m)

    @settings(max_examples=40, deadline=None)
    @given(
        g0=st.floats(0.0, 2.0),
        d2=st.floats(0.0, 2.0),
        tau=st.floats(0.0, 10.0),
        mu_m=st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
    )
    def test_overlap_magnitude_identity_and_photon_conservation(self, g0, d2, tau, mu_m):
        coeffs = constant_coefficients(g0, d2, tau)
        overlap = kick_overlap(coeffs, mu_m)
        k_sq = abs(coeffs.number_displacement) ** 2
        assert abs(abs(overlap) ** 2 - np.exp(-k_sq)) < 1e-10
        alpha, beta = constant_bogoliubov(d2, tau)
        m = moments(coeffs, alpha, beta, InitialState(1.2 - 0.3j, mu_m))
        assert m.na == abs(1.2 - 0.3j) ** 2

    def test_long_time_against_high_precision(self):
        # at 40*pi on resonance |beta| ~ 1.4e5; the reference maps the
        # squeezing-frame moments through (alpha, beta) at 60 digits, from
        # the same float alpha, beta and coefficients, so it measures only
        # the rounding of the moment assembly
        system = SystemParams(1.0, Coupling(g=0.5, drive=0.3), ModulatedSqueezing(0.1, 2.0))
        init = InitialState(1.0, 0.5 + 0.2j)
        rec = evaluate_trajectory(system, init, np.linspace(0.0, 40 * np.pi, 801))
        assert np.max(np.abs(rec.beta)) > 1e5

        def mpc(x):
            return mpmath.mpc(complex(x).real, complex(x).imag)

        c = rec.coeffs
        with mpmath.workdps(60):
            nbar = mpmath.mpf(abs(init.mu_c) ** 2)
            for i in range(0, 801, 20):
                alpha, beta = mpc(rec.alpha[i]), mpc(rec.beta[i])
                # squeezing frame, given N photons: coherent at shift + kick * N
                shift = mpc(init.mu_m) + mpc(complex(c.mom[i], -c.pos[i]))
                kick = mpc(complex(c.num_mom[i], -c.num_pos[i]))
                b_s = shift + kick * nbar
                b2_s = shift**2 + 2 * shift * kick * nbar + kick**2 * nbar * (1 + nbar)
                nb_s = (abs(shift) ** 2 + 2 * mpmath.re(mpmath.conj(shift) * kick) * nbar
                        + abs(kick) ** 2 * nbar * (1 + nbar))
                want = {
                    "b": alpha * b_s + beta * mpmath.conj(b_s),
                    "b2": (alpha**2 * b2_s + alpha * beta * (2 * nb_s + 1)
                           + beta**2 * mpmath.conj(b2_s)),
                    "nb": ((abs(alpha) ** 2 + abs(beta) ** 2) * nb_s
                           + 2 * mpmath.re(mpmath.conj(alpha) * beta * mpmath.conj(b2_s))
                           + abs(beta) ** 2),
                }
                for name, ref in want.items():
                    err = abs(mpc(getattr(rec.moments, name)[i]) - ref) / abs(ref)
                    assert err <= 1e-9, (name, i, float(err))


class TestCovariance:
    def test_initial_state_is_vacuum_noise(self):
        init = InitialState(0.7 + 0.2j, -0.4 + 1.1j)
        m = moments(zero_coefficients(), 1.0, 0.0, init)
        assert np.allclose(covariance(m), np.eye(4), atol=1e-12)
        assert m.a == pytest.approx(init.mu_c)
        assert m.b == pytest.approx(init.mu_m)

    @pytest.mark.parametrize("mu_c", [1e7, 1e10, 1e153])
    def test_bright_cavity_keeps_the_vacuum_term(self, mu_c):
        # <N> - |<a>|^2 is 0 exactly at tau = 0, so sigma_11 is the vacuum's
        # 1 however bright the cavity; adding 1 to 2<N> first rounds it away
        # once <N> passes 1e16
        system = SystemParams(1.0, Coupling(g=1e-9), ConstantSqueezing(0.0))
        sigma = evaluate_trajectory(system, InitialState(mu_c, 0.0), np.array([0.0])).covariance
        assert sigma[0, 0, 0] == sigma[0, 2, 2] == 1.0

    def test_mechanical_variance_without_kicks(self):
        # beta = 0 and no per-photon displacement leave the mechanics at
        # vacuum noise
        init = InitialState(1.0, 0.5)
        m = moments(constant_coefficients(0.0, 0.0, 1.3), *constant_bogoliubov(0.0, 1.3), init)
        assert covariance(m)[1, 1] == pytest.approx(1.0)

    def test_benchmark_mechanical_variance(self, benchmark_system, coherent_init):
        rec = evaluate_point(benchmark_system, coherent_init, np.pi)
        assert rec.covariance[1, 1] == pytest.approx(9.0)

    def test_benchmark_against_fock_construction(self, benchmark_system, coherent_init):
        # measure the closed-form ket in Fock space and rebuild sigma from it
        rec = evaluate_point(benchmark_system, coherent_init, np.pi)
        ket = analytic_ket(rec.coeffs, rec.alpha, rec.beta, coherent_init, 16, 640)
        mm = fock.measure_moments(ket, 0.0, np.pi)
        nb = mm.nb
        b = mm.b
        assert 1.0 + 2.0 * nb - 2.0 * abs(b) ** 2 == pytest.approx(9.0, abs=1e-6)
        assert_moments_close(rec.moments, mm, rel=1e-6)

    def test_matches_generic_definition(self, benchmark_system, coherent_init):
        # rebuild sigma entry by entry from <{X_n, X_m^dag}> - 2<X_n><X_m^dag>
        rec = evaluate_point(benchmark_system, coherent_init, 2.1)
        m = rec.moments
        a, b = m.a, m.b
        generic = np.empty((4, 4), dtype=complex)
        generic[0, 0] = generic[2, 2] = 1 + 2 * m.na - 2 * a * np.conj(a)
        generic[1, 1] = generic[3, 3] = 1 + 2 * m.nb - 2 * b * np.conj(b)
        generic[0, 2] = 2 * m.a2 - 2 * a * a
        generic[2, 0] = np.conj(generic[0, 2])
        generic[1, 3] = 2 * m.b2 - 2 * b * b
        generic[3, 1] = np.conj(generic[1, 3])
        generic[0, 1] = 2 * m.ab_dag - 2 * a * np.conj(b)
        generic[1, 0] = np.conj(generic[0, 1])
        generic[0, 3] = generic[1, 2] = 2 * m.ab - 2 * a * b
        generic[3, 0] = generic[2, 1] = np.conj(generic[0, 3])
        generic[2, 3] = np.conj(generic[0, 1])
        generic[3, 2] = generic[0, 1]
        assert np.max(np.abs(rec.covariance - generic)) < 1e-10

    def test_entries_match_coefficient_level_forms(self):
        # rebuild the distinct covariance entries straight from the
        # coefficients and Bogoliubov pair, bypassing the moment assembly
        init = InitialState(1.0, 0.4 - 0.2j)
        system = SystemParams(1.0, Coupling(g=1.0), ConstantSqueezing(0.5))
        for tau in (0.9, np.pi, 4.4):
            rec = evaluate_point(system, init, tau)
            sigma = rec.covariance
            nc = abs(init.mu_c) ** 2
            k_n = rec.coeffs.number_displacement
            theta = rec.coeffs.kerr_phase
            phi = rec.coeffs.coherent_phase
            eth = np.exp(-1j * theta)
            overlap = kick_overlap(rec.coeffs, init.mu_m)
            _, photon_shift = displacement_amplitudes(rec.alpha, rec.beta, rec.coeffs)
            front = np.exp(-1j * phi) * np.exp(nc * (eth - 1.0)) * overlap * init.mu_c
            dephase = nc * (eth - 1.0) + 1.0

            s11 = 1.0 + 2.0 * nc * (1.0 - np.exp(-4.0 * nc * np.sin(theta / 2) ** 2)
                                    * abs(overlap) ** 2)
            s13 = (
                2.0 * init.mu_c**2 * np.exp(-2j * phi) * overlap**2
                * (eth * np.exp(nc * (np.exp(-2j * theta) - 1.0)) * np.exp(-abs(k_n) ** 2)
                   - np.exp(2.0 * nc * (eth - 1.0)))
            )
            s12 = 2.0 * front * (np.conj(photon_shift) * dephase - np.conj(rec.alpha) * k_n)
            s14 = 2.0 * front * (photon_shift * dephase - rec.beta * k_n)
            s22 = 1.0 + 2.0 * abs(rec.beta) ** 2 + 2.0 * abs(photon_shift) ** 2 * nc
            s24 = 2.0 * rec.alpha * rec.beta + 2.0 * photon_shift**2 * nc

            assert sigma[0, 0] == pytest.approx(s11, abs=1e-12)
            assert sigma[0, 2] == pytest.approx(s13, abs=1e-12)
            assert sigma[0, 1] == pytest.approx(s12, abs=1e-12)
            assert sigma[0, 3] == pytest.approx(s14, abs=1e-12)
            assert sigma[1, 1] == pytest.approx(s22, abs=1e-12)
            assert sigma[1, 3] == pytest.approx(s24, abs=1e-12)

    @pytest.mark.parametrize(
        "system, init",
        [
            (SystemParams(1.0, Coupling(g=1.0), ConstantSqueezing(0.5)),
             InitialState(2.0, 0.4 - 0.2j)),
            (SystemParams(1.0, Coupling(g=0.7, drive=0.3), ModulatedSqueezing(0.1, 2.0)),
             InitialState(1.5 - 1.0j, 0.3 + 0.5j)),
        ],
        ids=["closed-form", "numeric-driven"],
    )
    def test_squeezing_frame_excess_matches_covariance(self, system, init):
        # both branches of s13 occur on these grids: <a^2>/<a>^2 = exp(z)
        # with Re z above and below 1
        rec = evaluate_trajectory(system, init, np.linspace(0.0, 6 * np.pi, 241))
        excess = squeezing_frame_excess(rec.coeffs, rec.moments)
        want = covariance(moments(rec.coeffs, 1.0, 0.0, init)) - np.eye(4)
        scale = np.maximum(1.0, np.max(np.abs(want), axis=(-2, -1)))
        for name, (i, j) in (("e11", (0, 0)), ("e22", (1, 1)), ("s12", (0, 1)),
                             ("s13", (0, 2)), ("s14", (0, 3)), ("s24", (1, 3))):
            err = np.abs(getattr(excess, name) - want[:, i, j])
            assert np.all(err <= 1e-12 * scale), (name, np.max(err / scale))

    def test_hermitian_and_physical_across_parameters(self):
        init = InitialState(1.0, 0.4 - 0.2j)
        for g0 in (0.3, 1.0, 2.5):
            for d2 in (0.0, 0.7, 2.0):
                system = SystemParams(1.0, Coupling(g=g0), ConstantSqueezing(d2))
                for rec in (evaluate_point(system, init, t) for t in (0.9, np.pi)):
                    assert hermiticity_defect(rec.covariance) < 1e-10
                    assert np.all(symplectic_eigenvalues(rec.covariance) >= 1 - 1e-6)


class TestQuadratureTrajectory:
    def test_initial_point(self, benchmark_system):
        # the optical quadratures x1 = sqrt(2) Re<a>, p1 = sqrt(2) Im<a> that
        # the evolve CSV writes start at the coherent amplitude mu_c
        init = InitialState(0.7 + 0.2j, 0.0)
        a = evaluate_trajectory(benchmark_system, init, [0.0]).moments.a
        assert np.sqrt(2.0) * a[0].real == pytest.approx(np.sqrt(2) * 0.7)
        assert np.sqrt(2.0) * a[0].imag == pytest.approx(np.sqrt(2) * 0.2)


class TestFrequencyShiftEquivalence:
    """Constant squeezing is a shifted mechanical frequency acting on a
    squeezed initial state; first moments must agree after the frame map."""

    @staticmethod
    def equivalent_first_moments(g0, d2, mu_c, mu_m, tau):
        rate = np.sqrt(1.0 + 4.0 * d2)
        r = -0.5 * np.log(rate)
        c, s = np.cosh(r), np.sinh(r)
        tau_p = rate * tau
        g_p = g0 * rate**-1.5
        coeffs = constant_coefficients(g_p, 0.0, tau_p)
        alpha, beta = constant_bogoliubov(0.0, tau_p)
        mu_t = c * mu_m - s * np.conj(mu_m)
        nc = abs(mu_c) ** 2
        _, photon = displacement_amplitudes(alpha, beta, coeffs)
        b_p = alpha * mu_t + beta * np.conj(mu_t) + photon * nc
        b_eq = c * b_p + s * np.conj(b_p)

        lam = np.conj(coeffs.number_displacement)
        lam_t = c * lam + s * np.conj(lam)
        disp = np.exp(lam_t * np.conj(mu_m) - np.conj(lam_t) * mu_m - 0.5 * abs(lam_t) ** 2)
        overlap = np.exp(-1j * coeffs.num_pos * coeffs.num_mom) * disp
        eth = np.exp(-1j * coeffs.kerr_phase)
        a_eq = np.exp(-1j * coeffs.coherent_phase) * np.exp(nc * (eth - 1.0)) * overlap * mu_c
        return a_eq, b_eq

    @pytest.mark.parametrize("d2", [0.2, 1.0])
    def test_first_moments_match(self, d2):
        init = InitialState(1.0, 0.3 + 0.2j)
        system = SystemParams(1.0, Coupling(g=1.0), ConstantSqueezing(d2))
        for tau in np.linspace(0.0, TWO_PI, 21):
            rec = evaluate_point(system, init, tau)
            a_eq, b_eq = self.equivalent_first_moments(1.0, d2, init.mu_c, init.mu_m, tau)
            assert abs(rec.moments.a - a_eq) < 1e-8
            assert abs(rec.moments.b - b_eq) < 1e-8
