"""Closed-loop load generator and the statistics of one run.

One client: each CLI subprocess starts only after the previous one has been
reaped, so interpreter start and import are inside every timing.  Wall time
is taken around spawn and reap; CPU time and peak RSS come from the child's
own ``os.wait4`` record, not from ``RUSAGE_CHILDREN`` (which keeps one
maximum across every child of the harness).  No threads are started.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_output
from workloads import Invocation

CHILD_TIMEOUT_S = 30
TAIL_BEYOND = 10
EXIT_REGIME = 3


@dataclass(frozen=True)
class ChildRun:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Outcome:
    """One measured invocation; ``reason`` is None when it succeeded."""

    inv: Invocation | None
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    rows: int = 0
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.reason is None

    @property
    def refused(self) -> bool:
        """The program declined the input with a regime error; not a wrong answer."""
        return self.exit_code == EXIT_REGIME


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_child(argv: list[str], env: dict[str, str], log: Path,
              timeout: int = CHILD_TIMEOUT_S) -> ChildRun:
    """Run ``argv`` to completion with stdout and stderr going to ``log``.

    A child that outlives ``timeout`` seconds is killed and reported with
    exit code -9.
    """
    previous = signal.signal(signal.SIGALRM, _alarm)
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=sink, stderr=subprocess.STDOUT)
        signal.alarm(timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0)


def last_line(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1][:200] if lines else ""


def measure(inv: Invocation, env: dict[str, str], work: Path) -> tuple[Outcome, bytes]:
    """Run one invocation and check its output; returns the CSV bytes too."""
    out, log = work / "out.csv", work / "child.log"
    out.unlink(missing_ok=True)
    child = run_child([sys.executable, "-m", "optomech", *inv.argv(str(out))], env, log)
    outcome = Outcome(inv, child.exit_code, child.wall_s, child.cpu_s, child.rss_mb)
    data = b""
    if child.exit_code != 0:
        outcome.reason = f"exit {child.exit_code}: {last_line(log)}"
    else:
        data = out.read_bytes() if out.exists() else b""
        outcome.reason = check_output(inv, data.decode("utf-8", "replace"))
        if outcome.ok:
            outcome.rows = inv.rows
    return outcome, data


def ranked_walls(outcomes: list[Outcome]) -> list[float]:
    """Wall times in rank order, a failure counting as infinitely slow."""
    return sorted(o.wall_s if o.ok else math.inf for o in outcomes)


def tail(outcomes: list[Outcome]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile of wall
    time that has at least TAIL_BEYOND samples beyond it.

    With no more than TAIL_BEYOND samples no percentile qualifies; the
    maximum is reported with the count of samples actually beyond it (0).
    """
    walls = ranked_walls(outcomes)
    n = len(walls)
    rank = n - TAIL_BEYOND
    if rank < 1:
        return walls[-1], 100.0, 0
    return walls[rank - 1], 100.0 * rank / n, n - rank


def summarise(outcomes: list[Outcome]) -> dict[str, float]:
    """End-to-end timing metrics of one run."""
    ok_rows = sum(o.rows for o in outcomes if o.ok)
    total_wall = sum(o.wall_s for o in outcomes)
    return {
        "wall_s.p50": statistics.median(ranked_walls(outcomes)),
        "wall_s.tail": tail(outcomes)[0],
        "cpu_s.p50": statistics.median(o.cpu_s for o in outcomes),
        "rows_per_s": ok_rows / total_wall,
        "failed_frac": sum(not o.ok for o in outcomes) / len(outcomes),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
    }
