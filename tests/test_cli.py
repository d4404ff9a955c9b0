import importlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from optomech import ConstantSqueezing, Coupling, InitialState, SystemParams, evaluate_point
from optomech.cli import _PARSERS, Axis, RunConfig, _fmt, _write_csv, main

SRC = str(Path(__file__).resolve().parents[1] / "src")

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

    @pytest.mark.parametrize(
        "mode, key, value",
        [("evolve", "resolution", "-5"), ("oracle-check", "n_c", "-3"),
         ("oracle-check", "n_m", "-3"), ("oracle-check", "dt", "-0.01")],
    )
    def test_negative_automatic_value_named(self, tmp_path, capsys, mode, key, value):
        # only 0 selects the automatic value
        cfg = write_config(tmp_path, BASE_CONFIG)
        rc = main([mode, "--config", cfg, f"--{key}", value, "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: must be non-negative")

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

    def test_coarse_resolution_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        rc = main(["evolve", "--config", cfg, "--squeezing", "modulated", "--d2", "0.1",
                   "--resolution", "1", "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "resolution" in capsys.readouterr().err

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
        # tau as the outer axis interleaves the (g0, d2) groups across rows
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--config", cfg, "--d2", "0.3", "--axis1", "tau,0.5,3,3,linear",
                   "--axis2", "g0,0.5,2,3,linear", "--out", str(out)])
        assert rc == 0
        init = InitialState(1.0, 0.0)
        for tau, g0, delta, delta_min, delta_max in np.loadtxt(out, delimiter=",", skiprows=1):
            system = SystemParams(1.0, Coupling(g=g0), ConstantSqueezing(0.3))
            want = evaluate_point(system, init, tau).report
            assert (delta, delta_min, delta_max) == pytest.approx(
                (want.delta, want.delta_min, want.delta_max), rel=1e-12, abs=1e-15
            )

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

    def test_certified_point_passes(self, tmp_path):
        out = tmp_path / "o.csv"
        rc = main(["oracle-check", "--g0", "0.5", "--d2", "0.3", "--squeezing", "constant",
                   "--tau", str(np.pi / 2), "--n_c", "16", "--n_m", "48", "--out", str(out)])
        assert rc == 0

    def test_tiny_cutoff_flagged(self, tmp_path, capsys):
        rc = main(["oracle-check", "--g0", "0.5", "--d2", "0.3", "--squeezing", "constant",
                   "--tau", str(np.pi / 2), "--n_c", "4", "--n_m", "6",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert "cutoff" in capsys.readouterr().err.lower()

    def test_envelope_refusal_is_explained(self, tmp_path, capsys):
        rc = main(["oracle-check", "--g0", "5.0", "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert "envelope" in capsys.readouterr().err

    def test_fast_modulation_sets_the_step(self, tmp_path):
        # at omega0 = 20 the modulation is the fastest scale; a step that
        # ignored it failed the halving check on this point
        rc = main(["oracle-check", "--squeezing", "modulated", "--omega0", "20", "--d2", "0.1",
                   "--g0", "0.2", "--tau", "3", "--out", str(tmp_path / "o.csv")])
        assert rc == 0

    def test_mismatch_exit_code(self, tmp_path):
        # a coarse step leaves a 2e-6 disagreement, twice the 1e-6 absolute
        # floor, while the halving drift (2.8e-5) stays well inside its 1e-4
        # check; an absurdly tight tolerance must surface it as a mismatch,
        # not as a regime error
        rc = main(["oracle-check", "--g0", "0.3", "--d2", "0.1", "--squeezing", "modulated",
                   "--omega0", "2.0", "--tau", str(np.pi), "--n_c", "14", "--n_m", "96",
                   "--dt", "0.3", "--tol", "1e-12", "--out", str(tmp_path / "o.csv")])
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
    assert not (gone | {"araki_lieb_bounds", "subsystem_eigenvalues"}) & set(namespace)


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
    """Every mode, the Fock oracle included, loads numpy alone; only a
    tabulated profile loads scipy (for its PCHIP interpolant).  The records
    are NamedTuples, so the import and the oracle load no dataclasses."""

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
