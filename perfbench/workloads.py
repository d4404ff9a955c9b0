"""Seeded workload generators.

Each workload is an endless, seed-determined sequence of CLI invocations.
The program sees only the generated flags.  Only configuration keys that the
roadmap keeps are passed: never ``workers`` (the sweep pool's default is the
behaviour under test) and never ``resolution``.

A run executes a prefix of the sequence.  The parameter that sets an
invocation's cost (points, tau, sweep span) is drawn from a rotated van der
Corput sequence, and routes alternate in a fixed pattern, so every prefix
covers the cost range evenly and the run's median does not hinge on which
seed was drawn.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import count
from typing import Iterator

TWO_PI = 2.0 * math.pi

EVOLVE_HEADER = ("tau", "re_a", "im_a", "x1", "p1", "nu_op", "nu_me",
                 "delta", "delta_min", "delta_max")
ORACLE_HEADER = ("moment", "analytic_re", "analytic_im", "oracle_re", "oracle_im",
                 "abs_err", "rel_err")
ORACLE_MOMENTS = ("a", "b", "a2", "b2", "na", "nb", "ab", "ab_dag")
ORACLE_TOL = 1e-3

# about the seed program's wall time per invocation on a 2-core machine; a run
# of S seconds makes round(S / NOMINAL_S) invocations on every commit, so the
# parent and a change see the same inputs and the same tail percentile
NOMINAL_S = {"trajectory": 1.75, "sweep": 2.6, "oracle": 1.5}

# every LONG_TIME_EVERY-th modulated evolve sits in the long-time regime
LONG_TIME_EVERY = 10
# d2 * tau_max stays below this outside the long-time regime
SHORT_TIME_LIMIT = 2.5

WHY = {
    "trajectory": (
        "evolve at 1001-3001 points (mean ~2001), one solve per invocation, so "
        "the per-point pipeline dominates. Half the invocations take the "
        "closed-form route (constant squeezing), half the numeric route "
        "(resonant modulated squeezing, omega0 = 2). One modulated invocation "
        "in ten is in the long-time regime d2*tau_max in [5.5, 6.5], where the "
        "seed program exits 3 (ROADMAP item 2), so that defect shows in "
        "failed_frac."
    ),
    "sweep": (
        "10x10 modulated sweeps, alternating (d2, g0) at a fixed tau in "
        "[1.5pi, 2.5pi] and (tau, g0) at a fixed d2, tau log-spaced up to "
        "7-9 pi. Every cell runs its own solve_quadratic and DecouplingTables "
        "build for one point, on the default sweep thread pool. The tau and g0 axes are where solve sharing (ROADMAP item 3) "
        "acts; the d2 axis is where it cannot."
    ),
    "oracle": (
        "oracle-check inside _ORACLE_LIMITS, alternating constant and "
        "modulated squeezing. The truncated-Fock evolution dominates and the "
        "analytic chain evaluates one point: the bypass workload for "
        "analytic-pipeline work and the target of ROADMAP item 4."
    ),
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``python -m optomech <mode> --key value ... --out FILE``."""

    mode: str
    flags: tuple[tuple[str, str], ...]
    header: tuple[str, ...]
    rows: int

    def argv(self, out: str) -> list[str]:
        args = [self.mode]
        for key, value in self.flags:
            args += [f"--{key}", value]
        return args + ["--out", out]


def _num(x: float) -> str:
    return repr(float(x))


def _van_der_corput(j: int) -> float:
    out, scale = 0.0, 0.5
    while j:
        if j & 1:
            out += scale
        j >>= 1
        scale *= 0.5
    return out


class _Strata:
    """Rotated van der Corput points in [0, 1): even cover for every prefix."""

    def __init__(self, rng: random.Random):
        self._offset = rng.random()
        self._j = count()

    def __next__(self) -> float:
        return (_van_der_corput(next(self._j)) + self._offset) % 1.0


def _trajectory(rng: random.Random) -> Iterator[Invocation]:
    const_points, mod_points = _Strata(rng), _Strata(rng)
    for i in count():
        if i % 2 == 0:
            points = 1001 + int(2001 * next(const_points))
            flags = {
                "squeezing": "constant",
                "d2": _num(rng.uniform(0.0, 1.0)),
                "g0": _num(rng.uniform(0.1, 3.0)),
                "tau_max": _num(rng.uniform(TWO_PI, 10 * TWO_PI)),
            }
        else:
            points = 1001 + int(2001 * next(mod_points))
            if (i // 2) % LONG_TIME_EVERY == 3:
                d2 = rng.uniform(0.1, 0.2)
                tau_max = rng.uniform(5.5, 6.5) / d2
            else:
                tau_max = rng.uniform(TWO_PI, 10 * TWO_PI)
                d2 = rng.uniform(0.01, min(0.3, SHORT_TIME_LIMIT / tau_max))
            flags = {
                "squeezing": "modulated",
                "omega0": "2.0",
                "d2": _num(d2),
                "g0": _num(rng.uniform(0.1, 3.0)),
                "tau_max": _num(tau_max),
            }
        flags["points"] = str(points)
        yield Invocation("evolve", tuple(flags.items()), EVOLVE_HEADER, points)


def _g0_axis(rng: random.Random) -> str:
    return f"g0,0.1,{_num(rng.uniform(1.0, 3.0))},10,linear"


def _sweep(rng: random.Random) -> Iterator[Invocation]:
    # a log tau axis to 7-9 pi costs about as much as a fixed tau of
    # 1.5-2.5 pi; both ranges are narrow because the default thread pool
    # already spreads the wall time of one config by tens of percent
    fixed_tau, tau_stop = _Strata(rng), _Strata(rng)
    for i in count():
        if i % 2 == 0:
            tau = math.pi * (1.5 + next(fixed_tau))
            d2_stop = rng.uniform(0.5, 1.0) * min(0.3, SHORT_TIME_LIMIT / tau)
            flags = {
                "squeezing": "modulated",
                "omega0": "2.0",
                "tau": _num(tau),
                "axis1": f"d2,0.0,{_num(d2_stop)},10,linear",
                "axis2": _g0_axis(rng),
            }
            header = ("d2", "g0", "delta", "delta_min", "delta_max")
        else:
            stop = math.pi * (7.0 + 2.0 * next(tau_stop))
            d2 = rng.uniform(0.02, min(0.2, SHORT_TIME_LIMIT / stop))
            flags = {
                "squeezing": "modulated",
                "omega0": "2.0",
                "d2": _num(d2),
                "axis1": f"tau,0.5,{_num(stop)},10,log",
                "axis2": _g0_axis(rng),
            }
            header = ("tau", "g0", "delta", "delta_min", "delta_max")
        yield Invocation("sweep", tuple(flags.items()), header, 100)


def _oracle(rng: random.Random) -> Iterator[Invocation]:
    const_tau, mod_tau = _Strata(rng), _Strata(rng)
    for i in count():
        if i % 2 == 0:
            flags = {
                "squeezing": "constant",
                "d2": _num(rng.uniform(0.3, 0.6)),
                "g0": _num(rng.uniform(0.3, 0.6)),
                "tau": _num(0.5 + 1.5 * next(const_tau)),
            }
        else:
            flags = {
                "squeezing": "modulated",
                "omega0": "2.0",
                "d2": _num(rng.uniform(0.05, 0.15)),
                "g0": _num(rng.uniform(0.3, 0.45)),
                "tau": _num(0.8 + 0.8 * next(mod_tau)),
            }
        flags["tol"] = _num(ORACLE_TOL)
        yield Invocation("oracle-check", tuple(flags.items()), ORACLE_HEADER,
                         len(ORACLE_MOMENTS))


_GENERATORS = {"trajectory": _trajectory, "sweep": _sweep, "oracle": _oracle}
WORKLOADS = tuple(_GENERATORS)


def plan(workload: str, seed: int) -> Iterator[Invocation]:
    """The endless invocation sequence of ``workload`` for ``seed``."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
