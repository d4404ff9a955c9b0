"""Acceptance gate.

Each test exercises one numbered acceptance criterion at its stated
tolerance and prints a single pass/fail line (run with ``pytest -s`` to see
them).  Criterion 9 checks what the global purity of the evolved state
implies: the full-state symplectic eigenvalues equal 1 for a Gaussian
evolution and never fall below 1 otherwise, the measure is the entropy of
the Gaussian reference alone, and the Fock oracle's state is a normalized
ket whose covariance has the engine's eigenvalues.
"""

import time
import warnings

import numpy as np
import pytest

from optomech import (
    ConstantSqueezing,
    Coupling,
    InitialState,
    ModulatedSqueezing,
    NonGaussianityReport,
    SystemParams,
    constant_bogoliubov,
    constant_coefficients,
    covariance,
    displacement_amplitudes,
    evaluate_point,
    evaluate_trajectory,
    mode_entropy,
    solve_quadratic,
    two_scale_solution,
)
from optomech import fock, squeezing
from optomech.cli import main as cli_main
from optomech.decoupling import DecouplingTables
from reference import (analytic_ket, bogoliubov_residual, fidelity, identity_residual,
                       mechanical_block, number_displacement_sq_resonant, optical_block,
                       resonant_coefficients, squeezing_frame_report, symplectic_eigenvalues)

TWO_PI = 2 * np.pi
F_FIELDS = ("num", "num_sq", "pos", "mom", "num_pos", "num_mom")


def report(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def stack_reports(reports):
    """One report whose fields join the per-trajectory arrays."""
    return NonGaussianityReport(**{
        name: np.concatenate([getattr(r, name) for r in reports])
        for name in NonGaussianityReport._fields
    })


@pytest.fixture(scope="module")
def sweep_records():
    """10 x 10 x 5 grid over (g0, d2, tau) shared by criteria 6 and 9."""
    init = InitialState(1.0, 0.0)
    start = time.perf_counter()
    records = []
    taus = np.linspace(TWO_PI / 5, TWO_PI, 5)
    for g0 in np.linspace(0.1, 3.0, 10):
        for d2 in np.linspace(0.0, 2.0, 10):
            system = SystemParams(1.0, Coupling(g=g0), ConstantSqueezing(d2))
            records.append(evaluate_trajectory(system, init, taus).report)
    return stack_reports(records), time.perf_counter() - start


@pytest.fixture(scope="module")
def oracle_run():
    """Certified oracle point shared by criteria 7 and 9."""
    system = SystemParams(1.0, Coupling(g=0.5), ConstantSqueezing(0.3))
    init = InitialState(1.0, 0.0)
    tau = np.pi / 2
    start = time.perf_counter()
    rec = evaluate_point(system, init, tau)
    final = fock.evolve(fock.product_coherent(init, 16, 48), system, tau)
    measured = fock.measure_moments(final, system.omega_c, tau)
    ket = analytic_ket(rec.coeffs, rec.alpha, rec.beta, init, 16, 48, omega_c=system.omega_c)
    return rec, final, measured, ket, time.perf_counter() - start


def test_c01_symplectic_identities():
    start = time.perf_counter()
    worst_bogo_const = 0.0
    worst_identity = 0.0
    for d2 in (0.0, 0.5, 2.0):
        sol = solve_quadratic(ConstantSqueezing(d2), 20 * np.pi)
        worst_bogo_const = max(worst_bogo_const, np.max(bogoliubov_residual(sol)))
        worst_identity = max(worst_identity, np.max(identity_residual(sol)))
    mod = solve_quadratic(ModulatedSqueezing(0.1, 2.0), 20 * np.pi)
    bogo_mod = float(np.max(bogoliubov_residual(mod)))
    worst_identity = max(worst_identity, float(np.max(identity_residual(mod))))
    elapsed = time.perf_counter() - start

    ok = worst_bogo_const < 1e-10 and bogo_mod < 1e-6 and worst_identity < 1e-10 and elapsed < 10
    report(1, ok, f"Bogoliubov residuals {worst_bogo_const:.1e} (const) / {bogo_mod:.1e} "
                  f"(modulated), identity {worst_identity:.1e}, {elapsed:.1f}s")
    assert worst_bogo_const < 1e-10
    assert bogo_mod < 1e-6
    assert worst_identity < 1e-10
    assert elapsed < 10.0


def test_c02_closed_form_agreement():
    taus = np.linspace(0.0, 4 * np.pi, 100)
    init_mu_c = 1.0
    worst_f = 0.0
    worst_nu = 0.0
    for d2 in (0.0, 0.5, 2.0):
        sol = solve_quadratic(ConstantSqueezing(d2), 4 * np.pi)
        tables = DecouplingTables(sol, Coupling(g=1.0))
        for tau in taus:
            closed = constant_coefficients(1.0, d2, tau)
            quad = tables.at(tau)
            worst_f = max(
                worst_f,
                max(abs(getattr(closed, f) - getattr(quad, f)) for f in F_FIELDS),
            )
            rec = evaluate_point(
                SystemParams(1.0, Coupling(g=1.0), ConstantSqueezing(d2)),
                InitialState(init_mu_c, 0.2 - 0.3j),
                tau,
            )
            blocks = (optical_block(rec.covariance), mechanical_block(rec.covariance))
            for nu, block in zip((rec.report.nu_op, rec.report.nu_me), blocks):
                worst_nu = max(worst_nu, abs(nu - symplectic_eigenvalues(block)[0]))
    ok = worst_f < 1e-7 and worst_nu < 1e-8
    report(2, ok, f"quadrature vs closed coefficients {worst_f:.1e}, "
                  f"subsystem eigenvalues vs block trace {worst_nu:.1e}")
    assert worst_f < 1e-7
    assert worst_nu < 1e-8


def test_c03_mathieu_two_scale_bound(monkeypatch):
    start = time.perf_counter()
    profile = ModulatedSqueezing(0.05, 2.0)
    sol = solve_quadratic(profile, 4 * np.pi)
    # the refined reference grid: 600 samples per unit tau, over twice the fixed one
    monkeypatch.setattr(squeezing, "_SAMPLES_PER_UNIT",
                        600.0 / squeezing.oscillation_rate(profile))
    fine = solve_quadratic(profile, 4 * np.pi)
    taus = np.linspace(0.0, 4 * np.pi, 1200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cos_ts, _ = two_scale_solution(0.05, taus)
    dev = float(np.max(np.abs(np.real(sol.mode(taus)) - cos_ts)))
    dev_fine = float(np.max(np.abs(np.real(fine.mode(taus)) - cos_ts)))
    elapsed = time.perf_counter() - start

    ok = dev < 3.0 * dev_fine and dev < 0.15 and elapsed < 5
    report(3, ok, f"two-scale deviation {dev:.4f} vs refined-step bound "
                  f"{3 * dev_fine:.4f}, {elapsed:.1f}s")
    assert dev < 3.0 * dev_fine
    assert dev < 0.15  # deviation of the order of the modulation amplitude
    assert elapsed < 5.0


def test_c04_squeezing_suppression_and_coupling_growth():
    init = InitialState(1.0, 0.0)

    def delta_at(g0, d2):
        system = SystemParams(1.0, Coupling(g=g0), ConstantSqueezing(d2))
        return evaluate_point(system, init, np.pi).report.delta

    d0, d1, d10 = delta_at(1.0, 0.0), delta_at(1.0, 1.0), delta_at(1.0, 10.0)
    chain = d10 < d1 < d0
    binding = d10 < d0
    g_half, g_one, g_two = delta_at(0.5, 0.0), delta_at(1.0, 0.0), delta_at(2.0, 0.0)
    growth = g_half < g_one < g_two

    ok = binding and growth
    report(4, ok, f"delta(d2=10)={d10:.4f} < delta(d2=0)={d0:.4f} "
                  f"(full chain {'held' if chain else 'rippled'}), "
                  f"coupling growth {g_half:.3f} < {g_one:.3f} < {g_two:.3f}")
    assert binding
    assert growth


def test_c05_resonant_growth_and_log_scaling():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        k_early = abs(resonant_coefficients(1.0, 0.1, TWO_PI).number_displacement) ** 2
        k_late = abs(resonant_coefficients(1.0, 0.1, 10 * np.pi).number_displacement) ** 2
        delta_max = {
            tau: squeezing_frame_report(resonant_coefficients(1.0, 0.1, tau), 1.0).delta_max
            for tau in (TWO_PI, 10 * np.pi)
        }
    growth = k_late > k_early and delta_max[10 * np.pi] > delta_max[TWO_PI]

    def leading_entropy(tau):
        return mode_entropy(2.0 * np.sqrt(number_displacement_sq_resonant(1.0, 0.1, tau)))

    ratio = (leading_entropy(40 * np.pi) - leading_entropy(10 * np.pi)) / np.log(4.0)
    scaling = abs(ratio - 1.0) <= 0.15

    ok = growth and scaling
    report(5, ok, f"|K|^2 {k_early:.3f}->{k_late:.3f}, delta_max "
                  f"{delta_max[TWO_PI]:.3f}->{delta_max[10 * np.pi]:.3f}, "
                  f"log-scaling ratio {ratio:.4f}")
    assert k_late > k_early
    assert delta_max[10 * np.pi] > delta_max[TWO_PI]
    assert scaling


def test_c06_araki_lieb_sandwich(sweep_records):
    records, elapsed = sweep_records
    worst = max(
        0.0,
        np.max(records.delta_min - records.delta),
        np.max(records.delta - records.delta_max),
    )
    ok = worst <= 1e-9 and elapsed < 120
    report(6, ok, f"sandwich slack {worst:.2e} over {records.delta.size} points, "
                  f"{elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 120.0


def test_c07_oracle_equivalence(oracle_run):
    rec, final, measured, ket, elapsed = oracle_run
    worst_rel = 0.0
    for name in ("a", "b", "a2", "b2", "na", "nb", "ab", "ab_dag"):
        ana = complex(getattr(rec.moments, name))
        orc = complex(getattr(measured, name))
        err = abs(ana - orc)
        assert err <= max(1e-3 * abs(orc), 1e-6), name
        worst_rel = max(worst_rel, err / max(abs(orc), 1e-6))
    fid = fidelity(ket, final)
    ok = fid >= 0.999 and elapsed < 180
    report(7, ok, f"worst moment rel err {worst_rel:.1e}, ket fidelity {fid:.6f}, "
                  f"{elapsed:.1f}s")
    assert fid >= 0.999
    assert elapsed < 180.0


def test_c08_frequency_shift_equivalence():
    init = InitialState(1.0, 0.3 + 0.2j)
    worst = 0.0
    for d2 in (0.2, 1.0):
        rate = np.sqrt(1.0 + 4.0 * d2)
        r = -0.5 * np.log(rate)
        c, s = np.cosh(r), np.sinh(r)
        system = SystemParams(1.0, Coupling(g=1.0), ConstantSqueezing(d2))
        for tau in np.linspace(0.0, TWO_PI, 21):
            rec = evaluate_point(system, init, tau)
            tau_p = rate * tau
            coeffs = constant_coefficients(1.0 * rate**-1.5, 0.0, tau_p)
            alpha, beta = constant_bogoliubov(0.0, tau_p)
            mu_t = c * init.mu_m - s * np.conj(init.mu_m)
            _, photon = displacement_amplitudes(alpha, beta, coeffs)
            b_p = alpha * mu_t + beta * np.conj(mu_t) + photon * abs(init.mu_c) ** 2
            b_eq = c * b_p + s * np.conj(b_p)

            lam = np.conj(coeffs.number_displacement)
            lam_t = c * lam + s * np.conj(lam)
            disp = np.exp(
                lam_t * np.conj(init.mu_m) - np.conj(lam_t) * init.mu_m
                - 0.5 * abs(lam_t) ** 2
            )
            overlap = np.exp(-1j * coeffs.num_pos * coeffs.num_mom) * disp
            eth = np.exp(-1j * coeffs.kerr_phase)
            a_eq = (
                np.exp(-1j * coeffs.coherent_phase)
                * np.exp(abs(init.mu_c) ** 2 * (eth - 1.0))
                * overlap
                * init.mu_c
            )
            worst = max(worst, abs(rec.moments.a - a_eq), abs(rec.moments.b - b_eq))
    ok = worst < 1e-8
    report(8, ok, f"first-moment mismatch {worst:.2e} across the shifted-frame map")
    assert worst < 1e-8


def test_c09_global_purity_of_full_state(sweep_records, oracle_run):
    # Gaussian limit: a Gaussian unitary keeps the state pure and Gaussian,
    # so the state is its own reference and every nu_full is 1.
    init = InitialState(1.0, 0.0)
    taus = np.linspace(TWO_PI / 5, TWO_PI, 5)
    gaussian = stack_reports([
        evaluate_trajectory(SystemParams(1.0, Coupling(g=0.0), ConstantSqueezing(d2)),
                            init, taus).report
        for d2 in np.linspace(0.0, 2.0, 10)
    ])
    worst_gauss = float(np.max(np.abs(gaussian.nu_full - 1.0)))

    # Pure state on the shared grid: nu_full >= 1, and the measure is the
    # reference entropy alone (S(rho) = 0 inside the relative entropy).
    records, _ = sweep_records
    lowest_nu = float(np.min(records.nu_full))
    worst_entropy = float(np.max(np.abs(
        records.delta - np.sum(mode_entropy(records.nu_full), axis=-1)
    )))

    # Independent referee: the Fock-evolved ket at the criterion-7 point.
    rec, final, measured, _, _ = oracle_run
    purity_defect = abs(final.norm_sq() - 1.0)
    nu_engine = np.array(rec.report.nu_full)
    nu_oracle = symplectic_eigenvalues(covariance(measured).sigma)
    oracle_rel = float(np.max(np.abs(nu_oracle - nu_engine) / nu_engine))

    ok = (worst_gauss <= 1e-6 and lowest_nu >= 1.0 - 1e-6 and worst_entropy <= 1e-12
          and purity_defect <= 1e-8 and oracle_rel <= 1e-3)
    report(9, ok, f"g0=0 worst |nu_full - 1| {worst_gauss:.1e}; over {records.delta.size} "
                  f"points min nu_full {lowest_nu:.6f}, |delta - sum h(nu_full)| "
                  f"{worst_entropy:.1e}; oracle ket |norm^2 - 1| {purity_defect:.1e}, "
                  f"nu_full {np.round(nu_oracle, 5)} vs engine rel err {oracle_rel:.1e}")
    assert worst_gauss <= 1e-6, (
        f"Gaussian evolution (g0 = 0) left nu_full off 1 by {worst_gauss:.3g}"
    )
    assert lowest_nu >= 1.0 - 1e-6, f"full-state eigenvalue {lowest_nu:.9g} below 1"
    assert worst_entropy <= 1e-12, (
        f"measure differs from the reference entropy by {worst_entropy:.3g}"
    )
    assert purity_defect <= 1e-8, f"oracle ket norm off 1 by {purity_defect:.3g}"
    assert oracle_rel <= 1e-3, (
        f"oracle covariance eigenvalues {nu_oracle} differ from the engine's "
        f"{nu_engine} by {oracle_rel:.3g} relative"
    )


def test_c10_cli_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "omega_c = 1.0\ng0 = 1.0\nsqueezing = constant\nd2 = 0.3\n"
        "mu_c = 1,0\nmu_m = 0,0\ntau_max = 6.283185307179586\npoints = 25\n"
    )
    pairs = []
    for mode_args in (
        ["evolve", "--config", str(cfg)],
        ["sweep", "--config", str(cfg), "--axis1", "g0,0.2,2,5,linear",
         "--axis2", "tau,0.5,6.0,4,linear"],
    ):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(mode_args + ["--out", str(out1)]) == 0
        assert cli_main(mode_args + ["--out", str(out2)]) == 0
        pairs.append(out1.read_bytes() == out2.read_bytes())
    ok = all(pairs)
    report(10, ok, f"byte-identical reruns for evolve/sweep: {pairs}")
    assert ok
