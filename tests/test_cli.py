import ast
import importlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from optomech import (ConstantSqueezing, Coupling, InitialState, ModulatedSqueezing,
                      SystemParams, evaluate_point, solve_quadratic)
from optomech.cli import (_ORACLE_LIMITS, _PARSERS, Axis, RunConfig, _fmt, _write_csv,
                          build_config, main, parse_config_file)

SRC = str(Path(__file__).resolve().parents[1] / "src")
README = Path(__file__).resolve().parents[1] / "README.md"

EVOLVE_HEADER = "tau,re_a,im_a,x1,p1,nu_op,nu_me,delta,delta_min,delta_max"


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


BASE_CONFIG = """
# base configuration
[system]
omega_c = 1.0
g0 = 1.0
d1 = 0.0
squeezing = constant
d2 = 0.0

[state]
mu_c = 1,0
mu_m = 0,0

[run]
tau_max = 6.283185307179586
points = 17
"""


class TestConfig:
    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG + "\nbogus_key = 3\n")
        rc = main(["evolve", "--config", cfg, "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_bad_value_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        rc = main(["evolve", "--config", cfg, "--tau_max", "abc", "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "tau_max" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("d2", "nan"), ("tau_max", "inf"), ("mu_c", "nan,0"), ("axis1", "d2,0,inf,3,linear")],
    )
    def test_non_finite_value_named(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, BASE_CONFIG)
        rc = main(["sweep" if key == "axis1" else "evolve", "--config", cfg, f"--{key}", value,
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: expected a finite number")

    @pytest.mark.parametrize("key", ["resolution", "n_c", "n_m", "dt"])
    def test_removed_accuracy_key_unknown(self, tmp_path, capsys, key):
        # the solver grid, the oracle's basis and its step are the program's
        # own, so no key sets them, on the command line or in a file
        out = str(tmp_path / "o.csv")
        for mode in ("evolve", "oracle-check"):
            assert main([mode, f"--{key}", "1", "--out", out]) == 2
            assert capsys.readouterr().err == f"error: {key}: unknown configuration key\n"
            cfg = write_config(tmp_path, BASE_CONFIG + f"{key} = 1\n")
            assert main([mode, "--config", cfg, "--out", out]) == 2
            assert capsys.readouterr().err == f"error: {key}: unknown configuration key\n"

    @pytest.mark.parametrize("mode", ["evolve", "sweep", "oracle-check", "mathieu"])
    def test_readme_config_is_a_working_config(self, tmp_path, mode):
        # the README's ini block, comments and all, sets every key
        text = README.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
        values = parse_config_file(write_config(tmp_path, text))
        assert set(values) == set(_PARSERS)
        cfg = build_config(mode, values, {}, "o.csv")
        assert cfg.g0 == 1.0 and cfg.squeezing == "constant" and cfg.lab_frame is False
        assert cfg.axis2 == Axis("g0", 0.1, 3.0, 10, "log")

    def test_flag_overrides_file(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "o.csv"
        rc = main(["evolve", "--config", cfg, "--points", "5", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 6  # header + 5 rows

    def test_inverted_sector_exit_codes(self, tmp_path, capsys):
        # constant d2 < -1/4 inverts the mechanical potential and runs; |beta|
        # grows like exp(kappa*tau), kappa = sqrt(-1 - 4*d2), so a run past
        # the float range exits 3 once, at its first non-finite time
        cfg = write_config(tmp_path, BASE_CONFIG)
        rc = main(["evolve", "--config", cfg, "--d2", "-0.5", "--out", str(tmp_path / "o.csv")])
        assert rc == 0
        rc = main(["evolve", "--d2", "-1", "--tau_max", "1000", "--points", "201",
                   "--out", str(tmp_path / "far.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: non-finite") and err.rstrip().endswith("first at tau = 105")

    def test_removed_workers_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        rc = main(["sweep", "--config", cfg, "--axis1", "g0,1,2,2,linear", "--workers", "2",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert "workers: unknown configuration key" in capsys.readouterr().err

    def test_keys_are_the_run_config_fields(self):
        # one sample per annotation, with the value it must parse to
        samples = {
            "float": ("0.5", 0.5),
            "int": ("3", 3),
            "complex": ("1,-2", 1 - 2j),
            "bool": ("yes", True),
            "str": (" Modulated ", "modulated"),
            "Axis | None": ("d2,0.5,1,3,log", Axis("d2", 0.5, 1.0, 3, "log")),
        }
        keys = [name for name in RunConfig._fields if name not in ("mode", "out")]
        assert list(_PARSERS) == keys
        for name in keys:
            raw, want = samples[RunConfig.__annotations__[name].__forward_arg__]
            got = _PARSERS[name](name, raw)
            assert got == want and type(got) is type(want), name

    def test_lab_frame_flag(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "o.csv"
        rc = main(["evolve", "--config", cfg, "--g0", "0", "--lab_frame", "true",
                   "--points", "9", "--out", str(out)])
        assert rc == 0
        rows = [list(map(float, line.split(","))) for line in out.read_text().splitlines()[1:]]
        # decoupled cavity in the lab frame sweeps a circle of constant radius
        radii = [np.hypot(r[3], r[4]) for r in rows]
        assert np.allclose(radii, np.sqrt(2.0), atol=1e-12)
        assert abs(rows[2][3] - rows[0][3]) > 0.1
        # and stands still in the rotating frame
        rc = main(["evolve", "--config", cfg, "--g0", "0", "--points", "9", "--out", str(out)])
        assert rc == 0
        rows = [list(map(float, line.split(","))) for line in out.read_text().splitlines()[1:]]
        assert np.allclose([r[3:5] for r in rows], rows[0][3:5], atol=1e-12)


class TestEvolve:
    def test_header_and_initial_row(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "o.csv"
        assert main(["evolve", "--config", cfg, "--mu_c", "0.7,0.2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == EVOLVE_HEADER
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[3:5] == pytest.approx([np.sqrt(2) * 0.7, np.sqrt(2) * 0.2])  # x1, p1
        assert first[7] == 0.0  # delta starts at zero

    def test_closed_quadrature_curve(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "o.csv"
        main(["evolve", "--config", cfg, "--out", str(out)])
        lines = out.read_text().splitlines()
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[-1].split(",")]
        assert abs(first[3] - last[3]) < 1e-6
        assert abs(first[4] - last[4]) < 1e-6

    def test_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["evolve", "--config", cfg, "--out", str(out1)])
        main(["evolve", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_long_resonant_run_succeeds(self, tmp_path):
        # the measure saturates its upper bound here; it must stay inside it
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "o.csv"
        rc = main(["evolve", "--config", cfg, "--squeezing", "modulated", "--d2", "0.1",
                   "--g0", "1", "--tau_max", str(20 * np.pi), "--points", "2001",
                   "--out", str(out)])
        assert rc == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (2001, 10)
        assert np.all(rows[:, 7] <= rows[:, 9] + 1e-9)

    def test_non_finite_result_exits_3_with_its_tau(self, tmp_path, capsys):
        # at this resonance |beta| leaves the float range before tau = 700
        out = tmp_path / "o.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["evolve", "--squeezing", "modulated", "--d2", "0.3", "--omega0", "2",
                       "--g0", "0.5", "--tau_max", "700", "--points", "201", "--out", str(out)])
        assert rc == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: non-finite")
        tau = float(err.split("tau = ")[1].split()[0])
        assert 0.0 < tau <= 700.0 and (tau / 3.5).is_integer()
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, span, nodes",
        [(["evolve", "--tau_max", "1e308", "--points", "3"], "1e+308", "inf"),
         (["evolve", "--tau_max", "1e15", "--points", "3"], "1e+15", "3.03e+17"),
         (["sweep", "--axis1", "tau,0,1e308,3,linear"], "1e+308", "inf")],
        ids=["evolve-1e308", "evolve-1e15", "sweep-1e308"],
    )
    def test_unaffordable_solver_grid_exits_3(self, tmp_path, capsys, argv, span, nodes):
        # the span is refused by name before its grid is laid out, not by an
        # overflow in the node count or a failed allocation
        mode, *flags = argv
        rc = main([mode, "--squeezing", "modulated", "--d2", "0.1", "--omega0", "3", *flags,
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: tau_max {span} needs {nodes} solver grid points, past the limit of 8388608\n"
        )

    def test_resonant_modulation_grows_in_windowed_mean(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "o.csv"
        rc = main(["evolve", "--config", cfg, "--squeezing", "modulated", "--d2", "0.1",
                   "--omega0", "2.0", "--tau_max", str(8 * np.pi), "--points", "160",
                   "--out", str(out)])
        assert rc == 0
        delta = np.array(
            [float(line.split(",")[7]) for line in out.read_text().splitlines()[1:]]
        )
        window_means = delta.reshape(4, -1).mean(axis=1)
        assert np.all(np.diff(window_means) >= 0)


class TestSweep:
    def test_single_point_matches_evolve(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        evolve_out = tmp_path / "e.csv"
        main(["evolve", "--config", cfg, "--tau_max", str(np.pi), "--points", "2",
              "--out", str(evolve_out)])
        evolve_last = [float(x) for x in evolve_out.read_text().splitlines()[-1].split(",")]

        sweep_out = tmp_path / "s.csv"
        rc = main(["sweep", "--config", cfg, "--axis1", "g0,1,2,2,linear",
                   "--tau", str(np.pi), "--out", str(sweep_out)])
        assert rc == 0
        sweep_first = [float(x) for x in sweep_out.read_text().splitlines()[1].split(",")]
        assert sweep_first[0] == 1.0
        assert sweep_first[1] == pytest.approx(evolve_last[7], abs=1e-12)

    def test_negative_tau_axis_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        rc = main(["sweep", "--config", cfg, "--axis1", "tau,-1,2,5,linear",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: axis1: tau values must be non-negative")

    def test_cells_match_single_points(self, tmp_path):
        # tau as the outer axis interleaves the g0 values across rows; the
        # driven modulated sweep shares one solve per d2 across a g0 axis
        # that starts at 0, and at its fixed tau each single point solves on
        # the same grid
        cfg = write_config(tmp_path, BASE_CONFIG)
        init = InitialState(1.0, 0.0)
        cases = [
            (["--d2", "0.3", "--axis1", "tau,0.5,3,3,linear", "--axis2", "g0,0.5,2,3,linear"],
             lambda tau, g0: (tau, SystemParams(1.0, Coupling(g0), ConstantSqueezing(0.3)))),
            (["--squeezing", "modulated", "--d1", "0.3", "--tau", "2.5",
              "--axis1", "d2,0.05,0.2,2,linear", "--axis2", "g0,0,2,5,linear"],
             lambda d2, g0: (2.5, SystemParams(1.0, Coupling(g0, 0.3),
                                               ModulatedSqueezing(d2, 2.0)))),
        ]
        for k, (flags, point) in enumerate(cases):
            out = tmp_path / f"s{k}.csv"
            assert main(["sweep", "--config", cfg, *flags, "--out", str(out)]) == 0
            for x, g0, delta, delta_min, delta_max in np.loadtxt(out, delimiter=",", skiprows=1):
                if g0 == 0.0:
                    assert delta == 0.0
                tau, system = point(x, g0)
                want = evaluate_point(system, init, tau).report
                assert (delta, delta_min, delta_max) == pytest.approx(
                    (want.delta, want.delta_min, want.delta_max), rel=1e-12, abs=1e-15
                )

    @pytest.mark.parametrize("axis1, solves", [("d2,0.05,0.2,3,linear", 3),
                                               ("tau,0.5,3,3,linear", 1)], ids=["d2", "tau"])
    def test_one_solve_per_d2(self, tmp_path, monkeypatch, axis1, solves):
        from optomech import engine

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_quadratic(*args, **kwargs)

        monkeypatch.setattr(engine, "solve_quadratic", counted)
        rc = main(["sweep", "--squeezing", "modulated", "--d2", "0.1", "--axis1", axis1,
                   "--axis2", "g0,0.5,2,3,linear", "--out", str(tmp_path / "s.csv")])
        assert rc == 0
        assert len(calls) == solves

    def test_squeezing_suppression_trend(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "s.csv"
        main(["sweep", "--config", cfg, "--axis1", "d2,0,10,4,linear",
              "--tau", str(np.pi), "--out", str(out)])
        rows = [list(map(float, line.split(","))) for line in out.read_text().splitlines()[1:]]
        assert rows[-1][1] < rows[0][1]

    def test_coupling_growth_under_resonant_modulation(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--config", cfg, "--squeezing", "modulated", "--d2", "0.1",
                   "--omega0", "2.0", "--axis1", "g0,0.1,3,10,linear",
                   "--tau", str(np.pi), "--out", str(out)])
        assert rc == 0
        deltas = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert np.all(np.diff(deltas) > 0)

    def test_two_axes_row_major(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--config", cfg, "--axis1", "g0,0.5,1.5,2,linear",
                   "--axis2", "d2,0,1,3,linear", "--tau", "1.0", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "g0,d2,delta,delta_min,delta_max"
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        assert [r[0] for r in rows] == [0.5, 0.5, 0.5, 1.5, 1.5, 1.5]
        assert [r[1] for r in rows] == [0.0, 0.5, 1.0, 0.0, 0.5, 1.0]

    def test_duplicate_axes_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        rc = main(["sweep", "--config", cfg, "--axis1", "d2,0,1,2,linear",
                   "--axis2", "d2,0,1,2,linear", "--out", str(tmp_path / "s.csv")])
        assert rc == 2

    def test_log_axis_validation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        rc = main(["sweep", "--config", cfg, "--axis1", "g0,0,1,4,log",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert "axis1" in capsys.readouterr().err

    def test_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--config", cfg, "--axis1", "g0,0.2,2,5,linear",
                "--axis2", "tau,0.5,6.0,4,linear"]
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestMathieu:
    def test_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        rc = main(["mathieu", "--squeezing", "modulated", "--d2", "0.05", "--omega0", "2.0",
                   "--tau_max", str(4 * np.pi), "--points", "33", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "a=1 " in printed and "q=-0.1" in printed
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,cos_sol,sin_sol,cos_two_scale,sin_two_scale"
        assert len(lines) == 34

    def test_requires_modulated_profile(self, tmp_path):
        rc = main(["mathieu", "--squeezing", "constant", "--out", str(tmp_path / "m.csv")])
        assert rc == 2


# constant d2 = -1 fills the mechanical tail of the default 15 x 57 basis
INVERTED_POINT = ["--squeezing", "constant", "--d2", "-1", "--g0", "0.3", "--tau", "1"]


def start_basis(monkeypatch, n_c, n_m):
    """Start every oracle run from an explicit n_c x n_m basis."""
    from optomech import fock

    product_coherent = fock.product_coherent
    monkeypatch.setattr(fock, "product_coherent", lambda init: product_coherent(init, n_c, n_m))


class TestOracleCheck:
    def test_decoupled_cavity_matches_exactly(self, tmp_path):
        # with g0 = 0 the dynamics is purely quadratic: agreement to
        # integrator tolerance
        out = tmp_path / "o.csv"
        rc = main(["oracle-check", "--g0", "0", "--d2", "0.3", "--squeezing", "constant",
                   "--mu_m", "0.5,0", "--tau", "1.0", "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0].startswith("moment,")
        worst = max(float(r.split(",")[5]) for r in rows[1:])
        assert worst < 1e-6

    def test_certified_point_passes(self, tmp_path, monkeypatch):
        out = tmp_path / "o.csv"
        start_basis(monkeypatch, 16, 48)
        rc = main(["oracle-check", "--g0", "0.5", "--d2", "0.3", "--squeezing", "constant",
                   "--tau", str(np.pi / 2), "--out", str(out)])
        assert rc == 0

    def test_tiny_cutoff_flagged(self, tmp_path, capsys, monkeypatch):
        start_basis(monkeypatch, 4, 6)
        rc = main(["oracle-check", "--g0", "0.5", "--d2", "0.3", "--squeezing", "constant",
                   "--tau", str(np.pi / 2), "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert "cutoff" in capsys.readouterr().err.lower()

    def test_envelope_refusal_is_explained(self, tmp_path, capsys, monkeypatch):
        # the envelope reads the config alone, so a refused point costs no
        # analytic work
        def no_point(*args, **kwargs):
            raise AssertionError("the refused point was evaluated")

        monkeypatch.setattr("optomech.cli.evaluate_point", no_point)
        rc = main(["oracle-check", "--g0", "5.0", "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert "envelope" in capsys.readouterr().err

    def test_only_the_failing_cutoff_grows(self, tmp_path, monkeypatch):
        # the inverted sector fills the mechanical tail alone: n_m doubles
        # six times from its default 8 while n_c keeps its default 15
        from optomech import fock

        shapes = []
        evolve = fock.evolve

        def recorded(*args, **kwargs):
            final = evolve(*args, **kwargs)
            shapes.append(final.amplitudes.shape)
            return final

        monkeypatch.setattr(fock, "evolve", recorded)
        rc = main(["oracle-check", *INVERTED_POINT, "--out", str(tmp_path / "o.csv")])
        assert rc == 0
        assert shapes == [(15, 512)]

    def test_dimension_cap_exits_3(self, tmp_path, capsys, monkeypatch):
        from optomech import fock

        monkeypatch.setattr(fock, "_DIM_CAP", 15 * 228)
        rc = main(["oracle-check", *INVERTED_POINT, "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert "cutoffs (15, 256) give truncated dimension 3840" in capsys.readouterr().err

    def test_explicit_cutoffs_past_the_cap_refused_before_allocation(
            self, tmp_path, capsys, monkeypatch):
        # a static run takes no steps, so only the dimension cap stands
        # between these cutoffs and a 160 GB state
        from optomech import fock

        def unreachable(*args):
            raise AssertionError("amplitudes built past the cap")

        monkeypatch.setattr(fock, "coherent_amplitudes", unreachable)
        start_basis(monkeypatch, 100000, 100000)
        rc = main(["oracle-check", "--squeezing", "constant", "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert "truncated dimension 10000000000" in capsys.readouterr().err

    # a benchmark oracle point whose n_m doubles three times from 8
    BENCHMARK_POINT = ["--omega0", "2.0", "--d2", "0.13610002242866331",
                       "--g0", "0.394787148477993", "--tau", "1.5371594661819736"]

    @pytest.mark.parametrize(
        "flags, runs",
        [
            (BENCHMARK_POINT, [(8, 13), (16, 13), (32, 13), (64, 13), (64, 26)]),
            (["--omega0", "10", "--d2", "0.3", "--g0", "0.5", "--tau", "6.28"],
             [(8, 250), (16, 250), (32, 250), (64, 250), (128, 250), (256, 250), (256, 500)]),
        ],
        ids=["benchmark-point", "omega0-10"],
    )
    def test_halving_runs_once_on_the_settled_basis(self, tmp_path, monkeypatch, flags, runs):
        # coarse runs while n_m doubles, then one run at half the step
        from optomech import fock

        calls = []
        run_steps = fock._run_steps

        def counted(psi, system, tau_final, n_steps):
            calls.append((psi.shape[1], n_steps))
            return run_steps(psi, system, tau_final, n_steps)

        monkeypatch.setattr(fock, "_run_steps", counted)
        rc = main(["oracle-check", "--squeezing", "modulated", *flags,
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 0
        assert calls == runs

    def test_overflowing_run_stops_at_its_first_overflow(self, tmp_path, monkeypatch):
        # one stencil per exponential: the coarse runs of 13 steps take 26,
        # so the rungs that overflow stop short, and the settled basis runs
        # the coarse and the half-step schedules in full
        from optomech import fock

        runs = []
        run_steps, stencil = fock._run_steps, fock._stencil

        def counted_run(psi, *args):
            runs.append([psi.shape[1], 0])
            return run_steps(psi, *args)

        def counted_stencil(*args):
            runs[-1][1] += 1
            return stencil(*args)

        monkeypatch.setattr(fock, "_run_steps", counted_run)
        monkeypatch.setattr(fock, "_stencil", counted_stencil)
        rc = main(["oracle-check", "--squeezing", "modulated", *self.BENCHMARK_POINT,
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 0
        assert runs == [[8, 4], [16, 12], [32, 20], [64, 26], [64, 52]]

    @pytest.mark.parametrize("flags, dt, steps", [(["--omega0", "1000"], None, 23874),
                                                  ([], 1e-4, 60000)],
                             ids=["fast-modulation", "tiny-dt"])
    def test_step_count_refused_up_front(self, tmp_path, capsys, monkeypatch, flags, dt, steps):
        # fock.evolve counts the steps and refuses before its first step
        from optomech import fock

        def no_steps(*args, **kwargs):
            raise AssertionError("the refused run propagated")

        monkeypatch.setattr(fock, "_run_steps", no_steps)
        if dt is not None:
            monkeypatch.setattr(fock, "default_dt", lambda *args: dt)
        rc = main(["oracle-check", "--squeezing", "modulated", "--d2", "0.1", "--g0", "0.3",
                   "--tau", "6", *flags, "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert f"{steps} time steps exceed the limit of 500" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--squeezing", "constant", "--d2", "-1", "--tau", "1"],
         ["--squeezing", "modulated", "--omega0", "4", "--d2", "0.3", "--tau", "6.283"]],
        ids=["inverted", "modulated"],
    )
    def test_parity_conserving_point_passes(self, tmp_path, flags):
        # at g0 = 0 the squeezed vacuum fills only even phonon levels, so at
        # the default n_m 8 the tail window must reach below the empty level 7
        rc = main(["oracle-check", "--g0", "0", *flags, "--out", str(tmp_path / "o.csv")])
        assert rc == 0

    def test_fast_modulation_sets_the_step(self, tmp_path):
        # at omega0 = 20 the modulation is the fastest scale; a step that
        # ignored it failed the halving check on this point
        rc = main(["oracle-check", "--squeezing", "modulated", "--omega0", "20", "--d2", "0.1",
                   "--g0", "0.2", "--tau", "3", "--out", str(tmp_path / "o.csv")])
        assert rc == 0

    def test_fast_modulation_full_period_passes(self, tmp_path):
        # at n_m 36 the top tenth of the levels read empty, yet nb was off
        # by 3.5e-6 (exit 4); n_m now doubles from 8 to 64, where nb misses
        # by 1.6e-9, under the 1e-6 absolute floor.  The window still bounds
        # no moment, so a cutoff-halving check is the real fix
        rc = main(["oracle-check", "--squeezing", "modulated", "--omega0", "20", "--d2", "0.1",
                   "--g0", "0.3", "--tau", "6.283185307179586",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 0

    def test_mismatch_exit_code(self, tmp_path, monkeypatch):
        # a coarse step leaves a 2e-6 disagreement, twice the 1e-6 absolute
        # floor, while the halving drift (2.8e-5) stays well inside its 1e-4
        # check; an absurdly tight tolerance must surface it as a mismatch,
        # not as a regime error
        from optomech import fock

        start_basis(monkeypatch, 14, 96)
        monkeypatch.setattr(fock, "default_dt", lambda *args: 0.3)
        rc = main(["oracle-check", "--g0", "0.3", "--d2", "0.1", "--squeezing", "modulated",
                   "--omega0", "2.0", "--tau", str(np.pi), "--tol", "1e-12",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 4


def test_csv_bytes_match_per_value_formatting(tmp_path):
    values = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
              0.1, -1.0 / 3.0, np.pi]
    values += list(np.geomspace(1e-300, 1e300, 61)) + list(-np.geomspace(1e-300, 1e300, 61))
    rows = np.array(values[:130]).reshape(13, 10)
    path = tmp_path / "o.csv"
    _write_csv(str(path), [f"c{j}" for j in range(10)], rows)
    expected = ",".join(f"c{j}" for j in range(10)) + "\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows
    )
    assert path.read_bytes() == expected.encode()


# the names perfbench's tracer replaces with timing wrappers, by owner
_TRACED = {
    "optomech.cli": ("evaluate_trajectory", "solve_quadratic"),
    "optomech.engine": ("evaluate_trajectory", "solve_quadratic", "constant_bogoliubov",
                        "constant_coefficients", "moments", "covariance", "non_gaussianity"),
    "optomech.fock": ("evolve", "build_hamiltonian", "measure_moments"),
    "optomech.squeezing:QuadraticSolution": ("bogoliubov",),
    "optomech.decoupling:DecouplingTables": ("__init__", "at"),
    "optomech.profiles:ConstantSqueezing": ("d2_at",),
    "optomech.profiles:ModulatedSqueezing": ("d2_at",),
}


def test_traced_names_resolve_and_main_returns(tmp_path):
    """The benchmark's tracer finds its targets by these names and drops the
    metrics of any it cannot find, and it calls ``main`` in-process, where an
    exit would end the benchmark without a result.  Retired with the tracer
    itself (ROADMAP item 1b)."""
    for owner, names in _TRACED.items():
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        obj = getattr(obj, cls) if cls else obj
        for name in names:
            assert callable(vars(obj).get(name)), f"{owner}.{name}"

    for argv in (["evolve", "--squeezing", "modulated", "--d2", "0.1", "--points", "5"],
                 ["oracle-check", "--g0", "0.3", "--d2", "0.1", "--tau", "0.5"]):
        rc = main(argv + ["--out", str(tmp_path / "o.csv")])
        assert type(rc) is int and rc == 0, argv


def test_cli_leaves_the_oracle_basis_to_fock():
    """The cutoff and step policies live in ``fock.evolve``: the CLI reads no
    private name of ``fock`` and no exception's ``diagnostics``, and its
    envelope holds only the physical parameters of a point."""
    tree = ast.parse(Path(SRC, "optomech", "cli.py").read_text())
    reads = [(node.value.id if isinstance(node.value, ast.Name) else "", node.attr)
             for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    assert not [attr for owner, attr in reads if owner == "fock" and attr.startswith("_")]
    assert not [attr for _, attr in reads if attr == "diagnostics"]
    assert set(_ORACLE_LIMITS) == {"g0", "d2_constant", "d2_modulated", "mu", "tau"}


def test_public_api_exports_only_what_runs():
    """Star import works, every ``__all__`` entry resolves, and no name that
    moved to the test references or was deleted is exported."""
    import optomech
    import reference

    namespace = {}
    exec("from optomech import *", namespace)
    assert all(namespace[name] is getattr(optomech, name) for name in optomech.__all__)
    gone = {name for name, obj in vars(reference).items()
            if getattr(obj, "__module__", "") == "reference"}
    deleted = {"araki_lieb_bounds", "subsystem_eigenvalues", "TabulatedSignal"}
    assert not (gone | deleted) & set(namespace)


def test_csv_blocks_join_to_per_value_formatting(tmp_path):
    # more rows than one written block, in exponent form, with -0.0 and 1e-300
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((1000, 3)) * 10.0 ** rng.integers(-40, 40, (1000, 3))
    rows[0, 0], rows[511, 1], rows[999, 2] = -0.0, 1e-300, -1e-300
    path = tmp_path / "o.csv"
    _write_csv(str(path), ["x", "y", "z"], rows)
    expected = "x,y,z\n" + "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows.tolist())
    assert path.read_bytes() == expected.encode()


def _src_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def _run_python(code: str, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env or _src_env()
    )


_SCIPY_LOADED = "import sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
_DATACLASSES_LOADED = "import sys; print('dataclasses' in sys.modules)"


class TestImportBudget:
    """Every mode, the Fock oracle included, loads numpy alone: nothing in
    the package loads scipy.  The records are NamedTuples, so the import and
    the oracle load no dataclasses."""

    def test_cli_import_loads_no_scipy(self):
        proc = _run_python("import optomech.cli; " + _SCIPY_LOADED)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_closed_form_evolve_loads_no_scipy(self, tmp_path):
        out = tmp_path / "o.csv"
        proc = _run_python(
            "from optomech import cli; "
            f"rc = cli.main(['evolve', '--squeezing', 'constant', '--d2', '0.3', "
            f"'--points', '5', '--out', {str(out)!r}]); assert rc == 0, rc; " + _SCIPY_LOADED
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert out.read_text().splitlines()[0] == EVOLVE_HEADER

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--squeezing", "modulated", "--d2", "0.1", "--points", "5"],
            ["sweep", "--squeezing", "modulated", "--d2", "0.1", "--axis1", "tau,0,3,3,linear"],
            ["mathieu", "--squeezing", "modulated", "--d2", "0.1", "--points", "5"],
            ["oracle-check", "--g0", "0.5", "--d2", "0.3", "--squeezing", "constant",
             "--tau", "0.5"],
            ["oracle-check", "--g0", "0.3", "--d2", "0.1", "--squeezing", "modulated",
             "--tau", "0.5"],
        ],
        ids=["modulated-evolve", "modulated-sweep", "mathieu", "oracle-check",
             "modulated-oracle-check"],
    )
    def test_numeric_routes_load_no_scipy(self, tmp_path, argv):
        out = tmp_path / "o.csv"
        proc = _run_python(
            "from optomech import cli; "
            f"rc = cli.main({argv + ['--out', str(out)]!r}); assert rc == 0, rc; " + _SCIPY_LOADED
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"
        assert out.exists()

    @pytest.mark.parametrize(
        "argv",
        [None, ["oracle-check", "--g0", "0.3", "--d2", "0.1", "--squeezing", "modulated",
                "--tau", "0.5"]],
        ids=["import", "modulated-oracle-check"],
    )
    def test_records_load_no_dataclasses(self, tmp_path, argv):
        code = "from optomech import cli; "
        if argv is not None:
            out = tmp_path / "o.csv"
            code += f"rc = cli.main({argv + ['--out', str(out)]!r}); assert rc == 0, rc; "
        proc = _run_python(code + _DATACLASSES_LOADED)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-check", "--g0", "0.5", "--d2", "0.3", "--squeezing", "constant", "--tau", "0.5"],
        ["oracle-check", "--g0", "0.3", "--d2", "0.1", "--squeezing", "modulated",
         "--tau", "0.5"],
        ["evolve", "--squeezing", "constant", "--d2", "0.3", "--points", "5"],
        ["evolve", "--squeezing", "modulated", "--d2", "0.1", "--points", "5"],
        ["sweep", "--squeezing", "modulated", "--d2", "0.1", "--axis1", "tau,0,3,3,linear"],
    ],
    ids=["oracle-check", "modulated-oracle-check", "evolve", "modulated-evolve", "sweep"],
)
def test_modes_call_no_lapack(tmp_path, monkeypatch, argv):
    # every mode, the Fock oracle included, runs on numpy's elementwise and
    # BLAS kernels; no dense factorization or solve is needed anywhere
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK routine called")

    for name in ("eigh", "eigvalsh", "eig", "eigvals", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert main(argv + ["--out", str(tmp_path / "o.csv")]) == 0


@pytest.mark.parametrize("preset, expected", [(None, "4"), ("10", "10")])
def test_openblas_thread_timeout_default(preset, expected):
    # idle OpenBLAS workers sleep by default; a value the user set wins
    env = _src_env()
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    proc = _run_python("import optomech, os; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])", env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CONFIG)
    out = tmp_path / "o.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "optomech", "evolve", "--config", str(cfg),
         "--points", "3", "--out", str(out)],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0] == EVOLVE_HEADER
