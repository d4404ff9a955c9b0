import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optomech import (
    ConstantSqueezing,
    Coupling,
    ModulatedSqueezing,
    TabulatedSignal,
    constant_bogoliubov,
    constant_coefficients,
    solve_quadratic,
)
from optomech.decoupling import DecouplingTables, _cumulative_simpson
from reference import number_displacement_sq_resonant, resonant_coefficients

TWO_PI = 2 * np.pi
FIELDS = ("num", "num_sq", "pos", "mom", "num_pos", "num_mom")


def max_component_diff(a, b):
    return max(abs(getattr(a, f) - getattr(b, f)) for f in FIELDS)


def number_displacement_sq_constant(g0, d2, tau):
    """The paper's closed form of |per-photon displacement|^2 for constant
    squeezing, g0^2 * bracket / z^4 with z^2 = 1 + 4*d2 > 0: a reference
    independent of the Stumpff form the library uses."""
    z = np.sqrt(1.0 + 4.0 * d2)
    zt = z * float(tau)
    bracket = (z**2 + 1.0) * np.sin(zt) ** 2 + np.cos(2.0 * zt) - 2.0 * np.cos(zt) + 1.0
    return float(g0**2 / z**4 * bracket)


def stumpff_reference(k, x):
    """c_k(x) = sum_j (-x)^j / (2j + k)! summed in mpmath at the working
    precision, with no cancellation near x = 0."""
    total, term, j = mpmath.mpf(0), 1 / mpmath.factorial(k), 0
    while j <= abs(x) or abs(term) > mpmath.eps * abs(total):
        total += term
        j += 1
        term *= -x / ((2 * j + k - 1) * (2 * j + k))
    return total


class TestQuadratureRoute:
    def test_zero_couplings_vanish(self):
        sol = solve_quadratic(ConstantSqueezing(0.3), TWO_PI)
        got = DecouplingTables(sol, Coupling(g=0.0, drive=0.0)).at(4.0)
        assert all(getattr(got, f) == 0.0 for f in FIELDS)

    def test_zero_drive_skips_its_tables(self, modulated_solution):
        # a constant zero drive leaves num, pos and mom the scalar 0; a
        # tabulated zero drive runs the full six-table path
        taus = np.linspace(0.0, modulated_solution.tau_max, 101)
        zero = TabulatedSignal(taus, np.zeros(taus.size))
        bare = DecouplingTables(modulated_solution, Coupling(0.7, 0.0)).at(taus)
        full = DecouplingTables(modulated_solution, Coupling(0.7, zero)).at(taus)
        for name in ("num", "pos", "mom"):
            assert np.ndim(getattr(bare, name)) == 0 and getattr(bare, name) == 0.0
            assert np.all(getattr(full, name) == 0.0)
        for name in ("num_sq", "num_pos", "num_mom"):
            np.testing.assert_allclose(getattr(bare, name), getattr(full, name), rtol=0, atol=1e-15)

    def test_all_zero_at_start(self, modulated_solution):
        got = DecouplingTables(modulated_solution, Coupling(g=1.0, drive=0.3)).at(0.0)
        assert all(getattr(got, f) == 0.0 for f in FIELDS)

    def test_matches_constant_closed_form(self):
        # oscillating, free (d2 = -1/4) and inverted (d2 < -1/4) sectors,
        # undriven and driven: the drive's num, pos and mom are nonzero
        for d2 in (0.5, -0.25, -0.4, -1.0):
            sol = solve_quadratic(ConstantSqueezing(d2), TWO_PI)
            for g, d1 in ((1.0, 0.0), (0.7, 0.45)):
                tables = DecouplingTables(sol, Coupling(g=g, drive=d1))
                closed = constant_coefficients(g, d2, np.pi, d1=d1)
                assert (closed.num != 0.0) == (closed.pos != 0.0) == (d1 != 0.0)
                if d1 == 0.0:  # the undriven fields stay the scalar 0
                    assert all(type(getattr(closed, f)) is float for f in ("num", "pos", "mom"))
                assert max_component_diff(tables.at(np.pi), closed) < 1e-7, (d2, d1)

    def test_free_full_period(self):
        sol = solve_quadratic(ConstantSqueezing(0.0), TWO_PI)
        got = DecouplingTables(sol, Coupling(g=1.0)).at(TWO_PI)
        assert got.num_pos == pytest.approx(0.0, abs=1e-9)
        assert got.num_mom == pytest.approx(0.0, abs=1e-9)
        assert got.num_sq == pytest.approx(-TWO_PI, abs=1e-8)

    def test_drive_only_coefficients(self):
        # with no light-matter coupling only the bare drive terms survive
        sol = solve_quadratic(ConstantSqueezing(0.0), TWO_PI)
        got = DecouplingTables(sol, Coupling(g=0.0, drive=0.25)).at(np.pi)
        assert got.pos == pytest.approx(0.25 * np.sin(np.pi), abs=1e-9)
        assert got.mom == pytest.approx(0.25 * (1.0 - np.cos(np.pi)), abs=1e-9)
        assert got.num == 0.0 and got.num_sq == 0.0

    def test_cross_validation_grid(self):
        # quadrature route against the closed form across d2 values and times
        for d2 in (0.0, 0.5, 2.0):
            sol = solve_quadratic(ConstantSqueezing(d2), TWO_PI)
            tables = DecouplingTables(sol, Coupling(g=1.0))
            for tau in np.linspace(0.0, TWO_PI, 25):
                got = tables.at(tau)
                diff = max_component_diff(got, constant_coefficients(1.0, d2, tau))
                assert diff < 1e-7
                # zero drive kills the bare-generator coefficients identically
                assert got.num == 0.0 and got.pos == 0.0 and got.mom == 0.0

    def test_tabulated_coupling_matches_constant(self):
        # a flat tabulated coupling must reproduce the constant closed form
        from optomech import TabulatedSignal

        sol = solve_quadratic(ConstantSqueezing(0.5), TWO_PI)
        flat = TabulatedSignal(np.linspace(0.0, TWO_PI, 32), np.full(32, 0.8))
        tables = DecouplingTables(sol, Coupling(g=flat))
        for tau in (1.0, np.pi, 5.5):
            diff = max_component_diff(tables.at(tau), constant_coefficients(0.8, 0.5, tau))
            assert diff < 1e-7

    def test_tabulated_coupling_must_cover_span(self):
        from optomech import DomainError, TabulatedSignal

        sol = solve_quadratic(ConstantSqueezing(0.0), TWO_PI)
        short = TabulatedSignal(np.linspace(0.0, 1.0, 8), np.ones(8))
        with pytest.raises(DomainError):
            DecouplingTables(sol, Coupling(g=short))


    @pytest.mark.parametrize("n", [3, 4, 5, 6, 4097, 4098])
    def test_cumulative_simpson_pairs_like_scipy(self, n):
        # the tables keep scipy's interval pairing, so they agree to rounding
        from scipy.integrate import cumulative_simpson

        y = np.random.default_rng(n).normal(size=n)
        want = cumulative_simpson(y, dx=0.01, initial=0.0)
        assert np.max(np.abs(_cumulative_simpson(y, 0.01) - want)) <= 1e-14


class TestConstantClosedForm:
    def test_zero_time(self):
        got = constant_coefficients(1.3, 0.7, 0.0)
        assert all(getattr(got, f) == 0.0 for f in FIELDS)

    def test_free_half_period(self):
        got = constant_coefficients(1.0, 0.0, np.pi)
        assert got.num_pos == pytest.approx(0.0, abs=1e-15)
        assert got.num_mom == pytest.approx(-2.0)
        assert abs(got.number_displacement) ** 2 == pytest.approx(4.0)

    def test_kerr_phase_full_period(self):
        got = constant_coefficients(1.0, 0.0, TWO_PI)
        assert got.kerr_phase == pytest.approx(-4 * np.pi)

    def test_kerr_phase_suppressed_at_large_squeezing(self):
        got = constant_coefficients(1.0, 1e6, np.pi)
        assert abs(got.kerr_phase) < 1e-3

    def test_against_high_precision(self):
        # on both sides of d2 = -1/4, at it, and near x = 0, where forms in
        # sqrt(1 + 4*d2) cancel; num_sq is taken as -4*g^2*tau^3*c3(4x), so
        # the duplication identity the library uses is checked too
        g0 = 0.7
        near = [-0.25 + s * 10.0**-k for k in (2, 4, 8, 12, 15) for s in (1, -1)]
        with mpmath.workdps(50):
            for d2 in near + [-0.25, -0.3, -0.4, -1.0, 0.0, 0.3, 2.0]:
                for tau in (1e-3, 0.3, 1.0, 2.5, 6.0):
                    t = mpmath.mpf(tau)
                    w = 1 + 4 * mpmath.mpf(d2)
                    x = w * t * t
                    c0, c1, c2 = (stumpff_reference(k, x) for k in range(3))
                    want = {
                        "num_pos": -g0 * t * c1,
                        "num_mom": -g0 * t * t * c2,
                        "num_sq": -4 * g0**2 * t**3 * stumpff_reference(3, 4 * x),
                        "alpha": c0 - 1j * (1 + 2 * mpmath.mpf(d2)) * t * c1,
                        "beta": -2j * mpmath.mpf(d2) * t * c1,
                    }
                    coeffs = constant_coefficients(g0, d2, tau)
                    alpha, beta = constant_bogoliubov(d2, tau)
                    got = {"num_pos": coeffs.num_pos, "num_mom": coeffs.num_mom,
                           "num_sq": coeffs.num_sq, "alpha": alpha, "beta": beta}
                    for name, value in got.items():
                        ref = complex(want[name])
                        assert abs(value - ref) <= 1e-13 * abs(ref), (d2, tau, name)


class TestNumberDisplacementConstant:
    def test_full_period_vanishes(self):
        assert number_displacement_sq_constant(1.0, 0.0, TWO_PI) == pytest.approx(0.0, abs=1e-12)

    def test_half_period(self):
        assert number_displacement_sq_constant(1.0, 0.0, np.pi) == pytest.approx(4.0)

    def test_large_squeezing_suppression(self):
        assert number_displacement_sq_constant(1.0, 1e4, np.pi) < 1e-3

    @settings(max_examples=60, deadline=None)
    @given(g0=st.floats(0.1, 5.0), d2=st.floats(-0.2, 4.0), tau=st.floats(0.0, 20.0))
    def test_matches_assembled_components(self, g0, d2, tau):
        got = number_displacement_sq_constant(g0, d2, tau)
        coeffs = constant_coefficients(g0, d2, tau)
        assembled = coeffs.num_pos**2 + coeffs.num_mom**2
        assert abs(got - assembled) <= 1e-12 * max(1.0, assembled)


@pytest.mark.filterwarnings("ignore::optomech.errors.ValidityWarning")
class TestResonantClosedForm:
    def test_reduces_to_constant_at_zero_amplitude(self):
        for tau in (0.3, np.pi, 5.5):
            diff = max_component_diff(
                resonant_coefficients(1.0, 0.0, tau), constant_coefficients(1.0, 0.0, tau)
            )
            assert diff < 1e-14

    def test_half_period_value(self):
        # only the first- and second-order cosine terms survive at tau = pi
        got = resonant_coefficients(1.0, 0.1, np.pi)
        assert got.num_pos == pytest.approx(0.11 * np.pi)

    def test_against_numeric_modulated_route(self, modulated_solution):
        # bounds frozen at 1.5x the measured truncation residuals; halving the
        # amplitude must shrink them by at least 4x (discarded cubic terms)
        num = DecouplingTables(modulated_solution, Coupling(g=1.0)).at(TWO_PI)
        res = resonant_coefficients(1.0, 0.1, TWO_PI)
        bounds = {"num_sq": 0.55, "num_pos": 0.12, "num_mom": 0.04}
        diffs = {f: abs(getattr(res, f) - getattr(num, f)) for f in bounds}
        for f, cap in bounds.items():
            assert diffs[f] < cap, f

        half_sol = solve_quadratic(ModulatedSqueezing(0.05, 2.0), TWO_PI)
        num_half = DecouplingTables(half_sol, Coupling(g=1.0)).at(TWO_PI)
        res_half = resonant_coefficients(1.0, 0.05, TWO_PI)
        for f in bounds:
            half_diff = abs(getattr(res_half, f) - getattr(num_half, f))
            assert diffs[f] > 4.0 * half_diff, f

    def test_growth_at_resonance(self):
        lo = resonant_coefficients(1.0, 0.1, TWO_PI)
        hi = resonant_coefficients(1.0, 0.1, 10 * np.pi)
        assert abs(hi.number_displacement) ** 2 > abs(lo.number_displacement) ** 2

    def test_closed_magnitude_matches_truncated_assembly(self):
        # componentwise resonant forms are exact quadratics in the amplitude,
        # so a three-point fit recovers their polynomial coefficients exactly;
        # the closed magnitude must equal the square-sum truncated at the
        # quadratic order
        g0, d2 = 1.0, 0.1
        probe = np.array([0.0, 0.05, 0.10])
        for tau in np.linspace(0.1, 12 * np.pi, 23):
            vals_p = [resonant_coefficients(g0, x, tau).num_pos for x in probe]
            vals_m = [resonant_coefficients(g0, x, tau).num_mom for x in probe]
            a2, a1, a0 = np.polyfit(probe, vals_p, 2)
            b2, b1, b0 = np.polyfit(probe, vals_m, 2)
            assembled = (
                (a0**2 + b0**2)
                + 2.0 * (a0 * a1 + b0 * b1) * d2
                + (a1**2 + b1**2 + 2.0 * a0 * a2 + 2.0 * b0 * b2) * d2**2
            )
            got = number_displacement_sq_resonant(g0, d2, tau)
            assert abs(got - assembled) < 1e-10


class TestDerivedQuantities:
    def test_displacement_composition(self):
        got = constant_coefficients(1.0, 0.5, 1.3)
        assert got.displacement == got.mom + 1j * got.pos
        assert got.number_displacement == got.num_mom + 1j * got.num_pos

    def test_phases(self):
        got = constant_coefficients(0.7, 0.2, 2.1)
        assert got.kerr_phase == pytest.approx(2 * (got.num_sq + got.num_pos * got.num_mom))
        assert got.coherent_phase == pytest.approx(
            got.num + got.num_sq + 2 * got.num_pos * got.mom
        )
