"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import sys
import threading
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import sentinels  # noqa: E402
import workloads  # noqa: E402
from checks import check_output  # noqa: E402
from loop import Outcome, ranked_walls, run_child, summarise, tail  # noqa: E402
from tracing import COUNTED, DERIVED, SPANNED, Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload):
    first = list(islice(workloads.plan(workload, 7), 24))
    assert first == list(islice(workloads.plan(workload, 7), 24))
    assert first != list(islice(workloads.plan(workload, 8), 24))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_passes_only_kept_keys(workload):
    for inv in islice(workloads.plan(workload, 3), 40):
        keys = {key for key, _ in inv.flags}
        assert not keys & {"workers", "resolution"}


def test_trajectory_long_time_share_is_fixed():
    invs = list(islice(workloads.plan("trajectory", 5), 40))
    modulated = [dict(inv.flags) for inv in invs if ("squeezing", "modulated") in inv.flags]
    long_time = [f for f in modulated if float(f["d2"]) * float(f["tau_max"]) >= 5.0]
    assert len(modulated) == 20
    assert len(long_time) == 20 // workloads.LONG_TIME_EVERY
    assert all(float(f["d2"]) * float(f["tau_max"]) <= workloads.SHORT_TIME_LIMIT
               for f in modulated if f not in long_time)


def _evolve(rows: list[list[float]]) -> tuple[workloads.Invocation, str]:
    inv = workloads.Invocation("evolve", (), workloads.EVOLVE_HEADER, 2)
    lines = [",".join(workloads.EVOLVE_HEADER)] + [",".join(map(repr, r)) for r in rows]
    return inv, "\n".join(lines) + "\n"


GOOD_ROW = [0.5, 0.9, -0.1, 1.27, -0.14, 1.01, 1.02, 0.03, 0.01, 0.05]


def test_checker_accepts_a_good_csv():
    assert check_output(*_evolve([GOOD_ROW, GOOD_ROW])) is None


def test_checker_rejects_a_row_escaping_araki_lieb():
    escaping = GOOD_ROW[:7] + [0.06, 0.01, 0.05]
    assert "escapes" in check_output(*_evolve([GOOD_ROW, escaping]))


def test_checker_rejects_wrong_row_count():
    assert "data rows" in check_output(*_evolve([GOOD_ROW]))


def test_checker_rejects_non_finite_and_unphysical_values():
    assert "non-finite" in check_output(*_evolve([GOOD_ROW, GOOD_ROW[:1] + [math.nan] + GOOD_ROW[2:]]))
    assert "nu_op" in check_output(*_evolve([GOOD_ROW, GOOD_ROW[:5] + [0.9] + GOOD_ROW[6:]]))


def test_checker_rejects_oracle_error_above_tol():
    inv = next(workloads.plan("oracle", 0))
    rows = [f"{m},1.0,0.0,1.0,0.0,1e-6,1e-6" for m in workloads.ORACLE_MOMENTS]
    good = ",".join(workloads.ORACLE_HEADER) + "\n" + "\n".join(rows) + "\n"
    assert check_output(inv, good) is None
    assert "rel_err" in check_output(inv, good.replace("1e-6,1e-6\n", "0.1,0.1\n", 1))


def _outcome(wall: float, exit_code: int = 0, rows: int = 10) -> Outcome:
    reason = None if exit_code == 0 else f"exit {exit_code}"
    return Outcome(None, exit_code, wall, wall, 50.0, rows if reason is None else 0, reason)


def test_failures_rank_slowest_in_wall_percentiles():
    outcomes = [_outcome(0.1, exit_code=3)] + [_outcome(1.0 + i) for i in range(10)]
    assert ranked_walls(outcomes)[-1] == math.inf
    value, percentile, beyond = tail(outcomes)
    assert (value, beyond) == (1.0, 10)
    assert percentile == pytest.approx(100 / 11)
    assert summarise(outcomes[:3])["wall_s.p50"] == 2.0


def test_tail_reports_the_max_when_no_percentile_has_ten_beyond():
    assert tail([_outcome(1.0), _outcome(3.0)]) == (3.0, 100.0, 0)


def test_failed_frac_counts_exit_3(tmp_path):
    child = run_child([sys.executable, "-c", "import sys; sys.exit(3)"], {}, tmp_path / "log")
    assert child.exit_code == 3 and child.wall_s > 0
    refused = _outcome(child.wall_s, exit_code=child.exit_code)
    assert refused.refused and not refused.ok
    summary = summarise([refused, _outcome(1.0), _outcome(2.0), _outcome(3.0)])
    assert summary["failed_frac"] == 0.25
    assert summary["rows_per_s"] == 30 / (child.wall_s + 6.0)


def test_tracer_skips_a_missing_target_without_raising():
    tracer = Tracer(spanned=(("optomech.gone", "f", "gone.f"),
                             ("optomech.engine:Gone", "f", "gone.g")), counted=())
    assert tracer.invocation(lambda: 7) == 7
    metrics = tracer.layer_metrics(1, None)
    assert not any(name.startswith("gone.") for name in metrics)
    assert metrics["cli.run.calls"] == 1


def test_pool_thread_span_parent_is_the_invocation_span():
    tracer = Tracer(spanned=(), counted=())

    def invocation():
        worker = threading.Thread(target=tracer.call, args=("pool.work", lambda: None))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.invocation(invocation)
    root = next(s for s in tracer.spans if s.name == "cli.run")
    work = next(s for s in tracer.spans if s.name == "pool.work")
    assert work.parent == root.span_id and work.invocation == root.invocation


def test_traced_cli_call_reports_layers_and_restores_originals(tmp_path):
    import optomech.cli as cli
    from optomech import engine
    from optomech.errors import ValidationError
    from optomech.profiles import ModulatedSqueezing

    originals = (engine.evaluate_trajectory, ModulatedSqueezing.d2_at)
    tracer = Tracer()
    argv = ["evolve", "--squeezing", "modulated", "--d2", "0.1", "--tau_max", "3",
            "--points", "5", "--out", str(tmp_path / "out.csv")]
    assert tracer.invocation(cli.main, argv) == 0
    assert (engine.evaluate_trajectory, ModulatedSqueezing.d2_at) == originals
    metrics = tracer.layer_metrics(1, ValidationError)
    assert metrics["engine.evaluate_trajectory.calls"] == 1
    assert metrics["engine.points"] == 5
    assert metrics["squeezing.solve_quadratic.calls"] == 1
    assert metrics["squeezing.grid_points"] >= 4096
    assert metrics["profiles.d2_at.calls"] > 100
    assert metrics["nongauss.non_gaussianity.calls"] == 5
    assert metrics["fock.evolve.calls"] == 0
    assert 0 <= metrics["cli.run.self_s"] <= metrics["cli.run.busy_s"]


def test_benchmark_json_names_what_the_run_reports():
    assert BENCHMARK["paths"] == ["perfbench"]
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert end_to_end == {**run.END_TO_END_UNITS, **sentinels.UNIT}
    spanned = {name for _, _, name in SPANNED} | {"cli.run"}
    layer_names = {"cli.import_s", "trace.overhead_s", *DERIVED,
                   "nongauss.failed", "fock.evolve.failed", "fock.useful_ratio", "fock.dim"}
    layer_names |= {f"{name}.{part}" for name in spanned for part in ("calls", "busy_s")}
    layer_names |= {"cli.run.self_s", "engine.evaluate_trajectory.self_s"}
    layer_names |= {f"{name}.calls" for _, _, name in COUNTED}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(per_layer) == layer_names
    assert all(per_layer[name] == run.layer_unit(name) for name in per_layer)
