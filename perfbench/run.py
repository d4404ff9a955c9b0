"""Benchmark of the optomech command line.

    python3 perfbench/run.py --workload {trajectory,sweep,oracle} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its ``src``.

``--trace 0`` times a closed loop of ``python -m optomech`` subprocesses with
one client, checks every output, re-runs one invocation for
byte-identical CSV, and computes the accuracy sentinels.  ``--trace 1`` runs
the same invocations in-process through ``optomech.cli.main``, untraced and
then traced, and reports per-layer metrics per invocation.  S sets the
number of invocations: as many as take S seconds on the seed program
(``workloads.NOMINAL_S``), the same on every commit.

Human-readable lines and a ``context`` line come first; the last line of
stdout is the JSON result.  Timings come from this harness only; the
pytest-benchmark ``.benchmarks/`` store is not used (ROADMAP item 1: no
second timing path).  Scratch files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import math
import os
import platform
import statistics
import sys
import time
import traceback
from collections import Counter
from itertools import islice
from pathlib import Path

import workloads
from checks import check_output
from loop import TAIL_BEYOND, Outcome, last_line, measure, run_child, summarise, tail

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 3
# stop starting invocations after this many times S, so that a run on a slow
# machine still ends within its 180 s limit
DEADLINE_FACTOR = 3
# JSON has no infinity: an infinitely slow percentile is written as this
JSON_INF = 1e308

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s.p50": "s",
    "wall_s.tail": "s",
    "cpu_s.p50": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name == "cli.import_s":
        return "s"
    if name == "fock.useful_ratio":
        return "ratio"
    if name == "fock.dim":
        return "count"
    if name.endswith("_s"):
        return "s/inv"
    return "count/inv"


def _versions() -> dict[str, str]:
    out = {"python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            out[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            out[package] = "absent"
    return out


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _import_program():
    """Import optomech.cli from this checkout's src; returns (module, seconds)."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import optomech.cli as cli
    elapsed = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: optomech imported from {cli.__file__}, not {SRC}")
    return cli, elapsed


def invocations(workload: str, seed: int, seconds: float):
    """The run's invocations, cut short only past the deadline."""
    n = max(TAIL_BEYOND + 1, round(seconds / workloads.NOMINAL_S[workload]))
    deadline = time.perf_counter() + DEADLINE_FACTOR * seconds
    for inv in islice(workloads.plan(workload, seed), n):
        if time.perf_counter() > deadline:
            return
        yield inv


def timed_run(workload: str, seed: int, seconds: float, work: Path):
    env = _child_env()
    log = work / "child.log"
    setup = [run_child([sys.executable, "-c", "import optomech.cli"], env, log)
             for _ in range(SETUP_REPEATS + 1)]
    if any(c.exit_code != 0 for c in setup):
        raise SystemExit(f"error: import optomech.cli failed: {last_line(log)}")
    # the first import also writes the bytecode cache of a fresh checkout
    setup_s = statistics.median(c.wall_s for c in setup[1:])

    outcomes: list[Outcome] = []
    csvs: list[bytes] = []
    for inv in invocations(workload, seed, seconds):
        outcome, data = measure(inv, env, work)
        outcomes.append(outcome)
        csvs.append(data)

    # criterion c10: an identical config gives a byte-identical CSV; re-run
    # the quickest good invocation
    rerun_identical = False
    done = [k for k, o in enumerate(outcomes) if o.ok]
    if done:
        k = min(done, key=lambda k: outcomes[k].wall_s)
        _, again = measure(outcomes[k].inv, env, work)
        rerun_identical = again == csvs[k]
        if not rerun_identical:
            outcomes[k].reason, outcomes[k].rows = "re-run CSV differs (c10)", 0

    _import_program()
    import sentinels
    raw, errors = sentinels.measure()

    summary = summarise(outcomes)
    failed_frac = summary.pop("failed_frac")
    metrics = {"setup_s": setup_s, **summary}
    units = dict(END_TO_END_UNITS)
    for name, value in sentinels.reported(raw).items():
        metrics[name], units[name] = value, sentinels.UNIT[name]
    _, percentile, beyond = tail(outcomes)
    context = {
        "failed_frac": failed_frac,
        "tail": {"percentile": percentile, "samples": len(outcomes), "beyond": beyond},
        "setup_samples_s": [c.wall_s for c in setup[1:]],
        "rerun_identical": rerun_identical,
        "per_invocation": [
            {"wall_s": o.wall_s, "cpu_s": o.cpu_s, "rss_mb": o.rss_mb, "exit": o.exit_code,
             "ok": o.ok}
            for o in outcomes
        ],
        "sentinels_unfloored": raw,
        "sentinel_errors": errors,
        "sentinel_floors": sentinels.FLOOR,
    }
    correct = rerun_identical and all(o.ok or o.refused for o in outcomes)
    return outcomes, metrics, units, correct, context


def traced_run(workload: str, seed: int, seconds: float, work: Path):
    from tracing import PREDICTIONS, Tracer

    cli, import_s = _import_program()
    from optomech.errors import ValidationError

    out = work / "out.csv"
    sink = io.StringIO()

    def call(inv: workloads.Invocation) -> int:
        sink.seek(0)
        sink.truncate()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(inv.argv(str(out)))

    def timed_call(fn, *args) -> tuple[int, float]:
        start = time.perf_counter()
        try:
            code = fn(*args)
        except Exception:  # a crash is a failed invocation; keep measuring
            traceback.print_exc()
            code = -1
        return code, time.perf_counter() - start

    call(next(workloads.plan(workload, seed)))  # warm-up: lazy imports, caches

    tracer = Tracer()
    outcomes: list[Outcome] = []
    overhead: list[float] = []
    for inv in invocations(workload, seed, seconds):
        _, untraced = timed_call(call, inv)
        code, traced = timed_call(tracer.invocation, call, inv)
        overhead.append(traced - untraced)
        outcome = Outcome(inv, code, traced, math.nan, math.nan)
        if code != 0:
            lines = sink.getvalue().strip().splitlines()
            outcome.reason = f"exit {code}: {lines[-1][:200] if lines else ''}"
        else:
            outcome.reason = check_output(inv, out.read_text())
        outcomes.append(outcome)

    metrics = {"cli.import_s": import_s}
    metrics.update(tracer.layer_metrics(len(outcomes), ValidationError))
    metrics["trace.overhead_s"] = statistics.median(overhead)
    units = {name: layer_unit(name) for name in metrics}
    spans = work / "spans.json"
    spans.write_text(json.dumps(tracer.records()))
    context = {
        "spans_file": str(spans.relative_to(ROOT)),
        "span_count": len(tracer.spans),
        "predictions": PREDICTIONS,
    }
    correct = all(o.ok or o.refused for o in outcomes)
    return outcomes, metrics, units, correct, context


def _json_number(x: float) -> float:
    return x if math.isfinite(x) else JSON_INF


def report(workload: str, seed: int, trace: bool, outcomes: list[Outcome],
           metrics: dict[str, float], units: dict[str, str], correct: bool,
           context: dict) -> dict:
    failed = sum(not o.ok for o in outcomes)
    print(f"{workload} seed={seed} trace={int(trace)}: {len(outcomes)} invocations, "
          f"{failed} failed, closed loop with one client, correct={correct}")
    for name, value in metrics.items():
        note = ""
        if name == "wall_s.tail":
            t = context["tail"]
            note = f"  (p{t['percentile']:.1f} of {t['samples']} samples, {t['beyond']} beyond)"
        print(f"  {name:<40} {value:.6g} {units[name]}{note}")
    if "failed_frac" in context:
        print(f"  {'failed_frac':<40} {context['failed_frac']:.6g} ratio")
    reasons = Counter(o.reason for o in outcomes if not o.ok)
    for reason, n in reasons.items():
        print(f"  failed x{n}: {reason}")

    context.update({
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "nproc": os.cpu_count(),
        **_versions(),
        "invocations": len(outcomes),
        "load": "closed loop, one client, no harness threads",
        "timing_store": "this harness only; pytest-benchmark's .benchmarks/ store is not used",
        "failures": reasons,
    })
    print("context " + json.dumps(context, default=str))
    return {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": _json_number(v), "unit": units[name]}
                    for name, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "optomech" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'optomech'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    run = traced_run if args.trace else timed_run
    outcomes, metrics, units, correct, context = run(
        args.workload, args.seed, args.seconds, work)
    result = report(args.workload, args.seed, bool(args.trace), outcomes, metrics,
                    units, correct, context)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
