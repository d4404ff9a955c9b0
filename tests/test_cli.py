import ast
import importlib
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from optomech import (ConstantSqueezing, ConvergenceError, Coupling, InitialState,
                      ModulatedSqueezing, SystemParams, evaluate_point, solve_quadratic)
from optomech import cli
from optomech.cli import (_ORACLE_LIMITS, _PARSERS, Axis, RunConfig, _check_oracle_envelope,
                          _fmt, _write_csv, build_config, main, parse_config_file)

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

    @pytest.mark.parametrize(
        "argv, err",
        [(["evolve", "--points", "100000000000000"],
          "points: must be in [2, 1048576], got 100000000000000"),
         (["sweep", "--axis1", "g0,0,1,100000000000000,linear"],
          "axis1: 100000000000000 sweep cells, past the limit of 1048576")],
        ids=["evolve", "sweep"],
    )
    def test_unaffordable_output_count_refused(self, tmp_path, capsys, argv, err):
        # refused by name as a config error, not by a failed allocation
        assert main(argv + ["--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_output_cap_checked_before_any_array(self, tmp_path, monkeypatch, capsys):
        laid_out = []
        linspace = np.linspace
        monkeypatch.setattr("optomech.cli._MAX_OUTPUTS", 10)
        monkeypatch.setattr(np, "linspace", lambda *a, **k: laid_out.append(a) or linspace(*a, **k))
        out = tmp_path / "o.csv"
        assert main(["evolve", "--points", "11", "--out", str(out)]) == 2
        assert main(["sweep", "--points", "2", "--axis1", "g0,0,1,4,linear",
                     "--axis2", "d2,0,1,3,linear", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: points: must be in [2, 10], got 11\n"
            "error: axis1 x axis2: 12 sweep cells, past the limit of 10\n"
        )
        assert not laid_out and not out.exists()
        assert main(["evolve", "--points", "10", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 11 and laid_out

    @pytest.mark.parametrize("key", ["resolution", "n_c", "n_m", "dt", "omega_c", "lab_frame"])
    def test_removed_accuracy_key_unknown(self, tmp_path, capsys, key):
        # the solver grid, the oracle's basis and its step are the program's
        # own, and every output is in the frame co-rotating with the cavity,
        # so no key sets them, on the command line or in a file
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
        assert cfg.g0 == 1.0 and cfg.squeezing == "constant"
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

    @pytest.mark.parametrize("key, value", [("mu_c", "-0.5,0.2"), ("d2", "-1e-3")])
    def test_flag_reads_as_a_config_line(self, tmp_path, key, value):
        # a value may start with "-", whether it follows the flag or an "="
        cfg = write_config(tmp_path, BASE_CONFIG + f"{key} = {value}\n")
        outs = [tmp_path / f"{k}.csv" for k in range(3)]
        assert main(["evolve", "--config", cfg, "--out", str(outs[0])]) == 0
        assert main(["evolve", "--config", cfg, f"--{key}", value, "--out", str(outs[1])]) == 0
        assert main(["evolve", "--config", cfg, f"--{key}={value}", "--out", str(outs[2])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()

    @pytest.mark.parametrize("argv", [["--poi", "5", "--out", "o.csv"],
                                      ["--tau_m", "1", "--out", "o.csv"],
                                      ["--ou", "o.csv"]], ids=["poi", "tau_m", "ou"])
    def test_flag_prefix_is_an_unknown_key(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(["evolve", *argv]) == 2
        key = argv[0][2:]
        assert capsys.readouterr().err == f"error: {key}: unknown configuration key\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "argv, err",
        [([], "mode: expected one of evolve|sweep|oracle-check|mathieu, got ''"),
         (["bogus", "--out", "o.csv"], "mode: expected one of evolve|sweep|oracle-check|mathieu, "
                                       "got 'bogus'"),
         (["evolve"], "out: an output file is required (--out FILE)"),
         (["evolve", "--out", "o.csv", "--points"], "points: expected an integer, got ''"),
         (["evolve", "stray", "--out", "o.csv"],
          "expected --key value or --key=value, got 'stray'"),
         (["evolve", "--squeezing", "x", "--out", "o.csv"],
          "squeezing: unknown profile 'x' (constant|modulated)")],
        ids=["no-mode", "bad-mode", "no-out", "no-value", "positional", "squeezing"],
    )
    def test_bad_argv_returns_2(self, tmp_path, capsys, monkeypatch, argv, err):
        # in process, main returns its exit code and never raises SystemExit
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_names_every_mode_and_key(self, capsys, flag):
        assert main([flag]) == 0
        usage = capsys.readouterr().out
        assert len(usage.splitlines()) == 1
        for word in ["evolve", "sweep", "oracle-check", "mathieu", "--config", "--out", *_PARSERS]:
            assert word in usage

    def test_keys_are_the_run_config_fields(self):
        # one sample per annotation, with the value it must parse to
        samples = {
            "float": ("0.5", 0.5),
            "int": ("3", 3),
            "complex": ("1,-2", 1 - 2j),
            "str": (" Modulated ", "modulated"),
            "Axis | None": ("d2,0.5,1,3,log", Axis("d2", 0.5, 1.0, 3, "log")),
        }
        keys = [name for name in RunConfig._fields if name not in ("mode", "out")]
        assert list(_PARSERS) == keys
        for name in keys:
            raw, want = samples[RunConfig.__annotations__[name].__forward_arg__]
            got = _PARSERS[name](name, raw)
            assert got == want and type(got) is type(want), name

    @pytest.mark.parametrize(
        "argv, err",
        [(["evolve", "--tau_max", "0"], "tau_max: must be positive"),
         (["oracle-check", "--tau", "-1"], "tau: must be non-negative"),
         (["evolve", "--tol", "0"], "tol: must be positive"),
         (["sweep", "--axis2", "g0,0,1,2,linear"], "axis2: set axis1 before axis2"),
         (["sweep"], "axis1: sweep mode needs at least one axis"),
         (["sweep", "--axis1", "g0,0,1,2"], "axis1: expected 'name,start,stop,count,linear|log'"),
         (["sweep", "--axis1", "mu_c,0,1,2,linear"], "axis1: axis name must be one of"),
         (["sweep", "--axis1", "g0,0,1,2,cubic"], "axis1: spacing must be linear or log"),
         (["sweep", "--axis1", "g0,0,1,1,linear"], "axis1: axis count must be >= 2"),
         (["sweep", "--axis1", "g0,0,1,two,linear"], "axis1: expected an integer"),
         (["sweep", "--axis1", "g0,zero,1,2,linear"], "axis1: expected a number"),
         (["evolve", "--mu_c", "1,0,0"], "mu_c: expected 're,im'"),
         (["evolve", "--config", "no-such.cfg"], "config: cannot read"),
         (["evolve", "--config", "bad.cfg"], "config line 2: expected 'key = value'")],
        ids=["tau_max", "tau", "tol", "axis2-alone", "no-axis", "axis-parts", "axis-name",
             "axis-spacing", "axis-count", "axis-count-text", "axis-start-text",
             "complex-3-parts", "config-unreadable", "config-no-equals"],
    )
    def test_refusal_names_its_key(self, tmp_path, capsys, monkeypatch, argv, err):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.cfg").write_text("[system]\ng0 1.0\n")
        assert main(argv + ["--out", "o.csv"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {err}")
        assert not (tmp_path / "o.csv").exists()


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
        "argv, span",
        [(["evolve", "--tau_max", "1e308", "--points", "3"], "1e+308"),
         (["evolve", "--tau_max", "1e15", "--points", "3"], "1e+15"),
         (["sweep", "--axis1", "tau,0,1e308,3,linear"], "1e+308")],
        ids=["evolve-1e308", "evolve-1e15", "sweep-1e308"],
    )
    def test_unaffordable_solver_grid_exits_3(self, tmp_path, capsys, argv, span):
        # the span is refused by the largest time asked for, whichever key
        # set it, before its grid is laid out
        mode, *flags = argv
        rc = main([mode, "--squeezing", "modulated", "--d2", "0.1", "--omega0", "3", *flags,
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: tau {span} needs more than 8388608 solver grid points\n"
        )

    @pytest.mark.parametrize(
        "argv, quantity",
        [(["evolve", "--mu_c", "1e160"], "|mu_c|^2"),
         (["evolve", "--g0", "1e160"], "g0^2"),
         (["evolve", "--mu_c", "1e160", "--squeezing", "modulated"], "|mu_c|^2"),
         (["evolve", "--g0", "1e160", "--squeezing", "modulated"], "g0^2"),
         (["evolve", "--d1", "1e300", "--g0", "1e10"], "g0*d1"),
         (["sweep", "--axis1", "g0,0,1,2,linear", "--mu_c", "1e200"], "|mu_c|^2")],
        ids=["mu_c", "g0", "modulated-mu_c", "modulated-g0", "d1", "sweep-mu_c"],
    )
    def test_square_past_the_float_range_exits_3(self, tmp_path, capsys, argv, quantity):
        # |mu_c|^2, g0^2 and g0*d1 overflow to inf; each scales a function that
        # is 0 at tau = 0, so the engine refuses it by name before the run
        out = tmp_path / "o.csv"
        assert main(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {quantity} overflows the float range\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["evolve", "--mu_c", "1.2e154"], ["evolve", "--d1", "1e308"]],
                             ids=["mu_c", "d1"])
    def test_scale_near_the_float_range_names_a_later_tau(self, tmp_path, capsys, argv):
        # |mu_c|^2 and g0*d1 are finite here but twice them is not; the factor
        # 2 applies last, so the finite start at tau = 0 stays finite
        assert main(argv + ["--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        prefix = "error: non-finite moments or measure, first at tau = "
        assert err.startswith(prefix) and float(err[len(prefix):]) > 0.0

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

    def test_log_axis_is_geometric(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--axis1", "g0,0.1,1,3,log", "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows[:, 0].tolist() == np.geomspace(0.1, 1.0, 3).tolist()

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

    def test_zero_modulation_frequency_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        rc = main(["mathieu", "--squeezing", "modulated", "--omega0", "0", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: omega0: ")
        assert not out.exists()
        # to evolve, omega0 0 is squeezing held at d2, and stays valid
        assert main(["evolve", "--squeezing", "modulated", "--omega0", "0", "--d2", "0.1",
                     "--points", "3", "--out", str(out)]) == 0

    @pytest.mark.parametrize("omega0", ["1e-300", "1e160"])
    def test_modulation_frequency_square_past_the_float_range(self, tmp_path, capsys, omega0):
        # omega0**2 underflows to 0 or overflows to inf: refused by name
        out = tmp_path / "m.csv"
        rc = main(["mathieu", "--squeezing", "modulated", "--omega0", omega0, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: omega0: ")
        assert not out.exists()

    def test_non_finite_solution_exits_3_with_its_tau(self, tmp_path, capsys):
        # at this resonance the solutions leave the float range before tau = 2400
        out = tmp_path / "m.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["mathieu", "--squeezing", "modulated", "--d2", "0.3", "--omega0", "2",
                       "--tau_max", "2400", "--points", "201", "--out", str(out)])
        assert rc == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err == "error: non-finite solution, first at tau = 2376\n"
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "flags, err",
        [(["--d2", "1.5"], "d2=1.5 exceeds 1 for constant squeezing"),
         (["--squeezing", "modulated", "--d2", "0.5"], "d2=0.5 exceeds 0.3 for modulated squeezing"),
         (["--mu_m", "0,3"], "coherent amplitudes must stay within 2"),
         (["--tau", "7"], "tau=7 exceeds 6.28319")],
        ids=["d2-constant", "d2-modulated", "mu", "tau"],
    )
    def test_envelope_names_the_parameter(self, tmp_path, capsys, flags, err):
        assert main(["oracle-check", *flags, "--out", str(tmp_path / "o.csv")]) == 3
        assert capsys.readouterr().err == (
            "error: oracle-check refused, parameters outside the certified envelope: "
            f"{err}\n"
        )

    def test_static_modulation_takes_the_constant_cap(self):
        # at omega0 = 0 the Hamiltonian is static and takes one exponential,
        # so the cap of constant squeezing applies
        cfg = RunConfig("oracle-check", squeezing="modulated", omega0=0.0, d2=0.5, out="o")
        _check_oracle_envelope(cfg)
        with pytest.raises(ConvergenceError, match="exceeds 0.3 for modulated squeezing"):
            _check_oracle_envelope(cfg._replace(omega0=2.0))

    def test_halving_drift_exits_3_naming_the_moment(self, tmp_path, capsys, monkeypatch):
        # a step of 0.6 is too coarse for the modulation: halving it moves <b^2>
        from optomech import fock
        monkeypatch.setattr(fock, "default_dt", lambda *args: 0.6)
        rc = main(["oracle-check", "--squeezing", "modulated", "--d2", "0.1", "--g0", "0.4",
                   "--tau", "1.2", "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: moment b2 moved by ")

    def test_only_the_failing_cutoff_grows(self, tmp_path, monkeypatch):
        # the inverted sector fills the mechanical tail alone: n_m doubles
        # six times from its default 8 while n_c keeps its default 15
        from optomech import fock

        shapes = []
        evolve = fock.evolve

        def recorded(*args, **kwargs):
            final = evolve(*args, **kwargs)
            shapes.append(final.shape)
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
        # one Gershgorin bound per exponential: the coarse runs of 13 steps
        # take 26, so the rungs that overflow stop short, and the settled
        # basis runs the coarse and the half-step schedules in full
        from optomech import fock

        runs = []
        run_steps, bounds = fock._run_steps, fock.spectral_bounds

        def counted_run(psi, *args):
            runs.append([psi.shape[1], 0])
            return run_steps(psi, *args)

        def counted_bounds(*args):
            runs[-1][1] += 1
            return bounds(*args)

        monkeypatch.setattr(fock, "_run_steps", counted_run)
        monkeypatch.setattr(fock, "spectral_bounds", counted_bounds)
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
    _write_csv(str(path), [f"c{j}" for j in range(10)], list(rows.T))
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


@pytest.mark.parametrize(
    "argv", [["evolve", "--omega0", "0", "--d2", "0.4"], ["oracle-check", "--d2", "0"]],
    ids=["evolve-omega0-0", "oracle-check-d2-0"],
)
def test_static_modulation_writes_the_constant_bytes(tmp_path, monkeypatch, argv):
    """d2 = 0 or omega0 = 0 makes the modulated Hamiltonian static: it takes
    the closed forms and the oracle's single exponential, one stencil per
    basis, and writes the bytes of constant squeezing."""
    from optomech import fock

    stencils = []
    build = fock._stencil
    monkeypatch.setattr(fock, "_stencil", lambda *args: stencils.append(args[2:]) or build(*args))
    runs = {}
    for squeezing in ("constant", "modulated"):
        out = tmp_path / f"{squeezing}.csv"
        stencils.clear()
        assert main([*argv, "--squeezing", squeezing, "--out", str(out)]) == 0
        runs[squeezing] = (out.read_bytes(), list(stencils))
    assert runs["modulated"] == runs["constant"]
    assert len(set(stencils)) == len(stencils)


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


def test_cli_has_one_csv_writer():
    """Every mode's CSV goes through ``_write_csv``: it is the one place that
    opens a file for writing, and ``_fmt`` formats only ``mathieu``'s stdout
    line."""
    tree = ast.parse(Path(SRC, "optomech", "cli.py").read_text())
    funcs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

    def calls(node, name):
        return [call for call in ast.walk(node) if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name) and call.func.id == name]

    def writes(call):
        modes = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
        return any(set(ast.literal_eval(mode)) & set("wax+") for mode in modes)

    writers = [call for call in calls(tree, "open") if writes(call)]
    assert writers and writers == [call for call in calls(funcs["_write_csv"], "open")
                                   if writes(call)]
    summary = [call for line in calls(funcs["run_mathieu"], "print") for call in calls(line, "_fmt")]
    assert summary and len(summary) == len(calls(tree, "_fmt"))


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
    deleted = {"araki_lieb_bounds", "subsystem_eigenvalues", "TabulatedSignal",
               "CovarianceMatrix"}
    assert not (gone | deleted) & set(namespace)


def test_csv_blocks_join_to_per_value_formatting(tmp_path):
    # more rows than one written block, in exponent form, with -0.0 and 1e-300
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((1000, 3)) * 10.0 ** rng.integers(-40, 40, (1000, 3))
    rows[0, 0], rows[511, 1], rows[999, 2] = -0.0, 1e-300, -1e-300
    path = tmp_path / "o.csv"
    _write_csv(str(path), ["x", "y", "z"], list(rows.T))
    expected = "x,y,z\n" + "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows.tolist())
    assert path.read_bytes() == expected.encode()


def test_csv_text_column_beside_floats(tmp_path):
    # the oracle-check layout: a column of moment names, then float columns
    # whose edge values must read as _fmt writes them
    names = ["a", "b", "a2", "b2", "na", "nb", "ab", "ab_dag"]
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e-300, 0.1, -1.0 / 3.0])
    columns = [names, values, values[::-1], np.roll(values, 3)]
    path = tmp_path / "o.csv"
    _write_csv(str(path), ["moment", "x", "y", "z"], columns)
    expected = "moment,x,y,z\n" + "".join(
        ",".join([name, *(_fmt(v) for v in row)]) + "\n"
        for name, row in zip(names, zip(*(c.tolist() for c in columns[1:])))
    )
    assert path.read_bytes() == expected.encode()


def test_evolve_writes_without_a_copy_of_the_table(tmp_path, monkeypatch):
    """The writer stacks a block of rows at a time from the columns: with the
    engine's record cached, writing 1e5 points of 10 columns, 8 MB as one
    float table, peaks under 4 MB."""
    flags = {"squeezing": "modulated", "d2": "0.1", "omega0": "2", "g0": "0.7",
             "tau_max": "62", "points": "100000"}
    out = str(tmp_path / "o.csv")
    cfg = build_config("evolve", {}, flags, out)
    rec = cli.evaluate_trajectory(cfg.system(), cfg.initial_state(),
                                  np.linspace(0.0, cfg.tau_max, cfg.points))
    monkeypatch.setattr(cli, "evaluate_trajectory", lambda *args: rec)
    tracemalloc.start()
    try:
        assert main(["evolve", *(f"--{k}={v}" for k, v in flags.items()), "--out", out]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def _src_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def _run_python(code: str, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env or _src_env()
    )


def test_readme_quick_start_runs():
    # the README's first python block, as a reader would paste it
    code = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    result = _run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


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
        ["mathieu", "--squeezing", "modulated", "--d2", "0.05", "--points", "5"],
    ],
    ids=["oracle-check", "modulated-oracle-check", "evolve", "modulated-evolve", "sweep",
         "mathieu"],
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
