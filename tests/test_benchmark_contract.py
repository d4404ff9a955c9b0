"""The benchmark's contract, run as the benchmark runs it.

``perfbench/run.py`` runs each workload of ``BENCHMARK.json`` untraced and
traced.  Each run must exit 0, end its stdout with the JSON result, report
``correct``, and carry exactly the metric names that ``BENCHMARK.json``
declares: the end-to-end names untraced, the per-layer names traced.  A
metric that vanishes, or any output written after the result, fails here.
The traced ``trajectory`` run must also see the numeric route's layers run,
and the traced ``oracle`` run the Fock oracle's: a refactor that bypasses a
traced name keeps the name, and its count reads 0.
The runs write their scratch files to ``.perfbench/`` in the checkout.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = {0: {m["name"] for m in BENCHMARK["end_to_end"]},
         1: {m["name"] for m in BENCHMARK["per_layer"]}}
# the layers each traced workload must be seen to run
RUNS = {"trajectory": ("squeezing.solve_quadratic.calls", "decoupling.tables_build.calls",
                       "decoupling.coefficients.calls", "squeezing.bogoliubov.calls"),
        "oracle": ("fock.evolve.calls", "fock.measure_moments.calls")}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_run_reports_the_declared_metrics(workload, trace):
    script = BENCHMARK["command"][1:]
    proc = subprocess.run(
        [sys.executable, *script, "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines, proc.stderr[-2000:]
    result = json.loads(lines[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert set(result["metrics"]) == NAMES[trace]
    if trace:
        if workload == "trajectory":
            # every other invocation is modulated, so eleven include the numeric route
            assert result["attempted"] >= 11
        for name in RUNS[workload]:
            assert result["metrics"][name]["value"] > 0, name
