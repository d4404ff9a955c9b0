"""Spans around the calls into each layer, recorded from the benchmark only.

The program is not edited: for the length of one traced invocation the
benchmark replaces the public functions of each layer with timing wrappers,
in the namespaces where callers look them up (the ``engine`` and ``cli``
module globals, the ``fock`` module, and methods on the classes), and puts
the originals back afterwards.  A target that no longer exists is skipped
and its metrics are reported as absent; nothing raises.

A span holds a name, start, end and parent; the spans of one invocation
share its id.  Spans stay in memory and are written out when the run ends.
A span opened on a sweep pool thread has the invocation's ``cli.run`` span
as its parent.  ``busy_s`` sums span durations over threads, so on the
sweep pool it includes time spent waiting for the interpreter lock.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# (owner "module" or "module:Class", attribute, span name)
SPANNED = (
    ("optomech.cli", "evaluate_trajectory", "engine.evaluate_trajectory"),
    ("optomech.engine", "evaluate_trajectory", "engine.evaluate_trajectory"),
    ("optomech.cli", "solve_quadratic", "squeezing.solve_quadratic"),
    ("optomech.engine", "solve_quadratic", "squeezing.solve_quadratic"),
    ("optomech.squeezing:QuadraticSolution", "bogoliubov", "squeezing.bogoliubov"),
    ("optomech.engine", "constant_bogoliubov", "squeezing.bogoliubov"),
    ("optomech.decoupling:DecouplingTables", "__init__", "decoupling.tables_build"),
    ("optomech.decoupling:DecouplingTables", "at", "decoupling.coefficients"),
    ("optomech.engine", "constant_coefficients", "decoupling.coefficients"),
    ("optomech.engine", "moments", "moments.moments"),
    ("optomech.engine", "covariance", "moments.covariance"),
    ("optomech.engine", "non_gaussianity", "nongauss.non_gaussianity"),
    ("optomech.fock", "evolve", "fock.evolve"),
    ("optomech.fock", "build_hamiltonian", "fock.build_hamiltonian"),
    ("optomech.fock", "measure_moments", "fock.measure_moments"),
)
# counted only: these run inside the solver's right-hand side
COUNTED = (
    ("optomech.profiles:ConstantSqueezing", "d2_at", "profiles.d2_at"),
    ("optomech.profiles:ModulatedSqueezing", "d2_at", "profiles.d2_at"),
    ("optomech.profiles:TabulatedSqueezing", "d2_at", "profiles.d2_at"),
)
ROOT = "cli.run"
SELF_TIMED = (ROOT, "engine.evaluate_trajectory")
# totals taken from a span's arguments or result -> that span
DERIVED = {
    "engine.points": "engine.evaluate_trajectory",
    "squeezing.grid_points": "squeezing.solve_quadratic",
}

# per-layer metric -> the end-to-end metric and workload it should move
PREDICTIONS = {
    "cli.import_s": "setup_s on every workload; wall_s.p50 most on oracle and on "
                    "the closed-form trajectory invocations",
    "cli.run.busy_s": "wall_s.p50 on sweep and trajectory",
    "cli.run.self_s": "wall_s.p50 on sweep and trajectory (config parsing, CSV "
                      "write, thread-pool overhead)",
    "engine.evaluate_trajectory.*": "rows_per_s on trajectory",
    "engine.points": "rows_per_s on trajectory",
    "profiles.d2_at.calls": "wall_s.p50 on sweep; a little on trajectory "
                            "(modulated); nothing on oracle",
    "squeezing.solve_quadratic.*": "wall_s.p50 on sweep first, trajectory second",
    "squeezing.grid_points": "wall_s.p50 on sweep first, trajectory second",
    "squeezing.bogoliubov.*": "wall_s.p50 and rows_per_s on trajectory",
    "decoupling.tables_build.*": "wall_s.p50 on sweep",
    "decoupling.coefficients.*": "wall_s.p50 and rows_per_s on trajectory",
    "moments.moments.*": "wall_s.p50 and rows_per_s on trajectory",
    "moments.covariance.*": "wall_s.p50 and rows_per_s on trajectory",
    "nongauss.non_gaussianity.*": "wall_s.p50 and rows_per_s on trajectory",
    "nongauss.failed": "failed_frac and wall_s.tail on trajectory",
    "fock.*": "wall_s.p50 and peak_rss_mb on oracle; nothing elsewhere",
}


@dataclass(frozen=True)
class Span:
    invocation: int
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    error: type[BaseException] | None


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    def __init__(self, spanned=SPANNED, counted=COUNTED) -> None:
        self._targets = tuple(spanned) + tuple(counted)
        self._span_names = {name for _, _, name in spanned}
        self._counted_names = {name for _, _, name in counted}
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.installed: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: int | None = None
        self._invocation = 0
        self._restore: list[tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span_id = next(self._ids)
        if name == ROOT:
            self._root = span_id
        stack.append(span_id)
        error = None
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc)
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            if name == ROOT:
                self._root = None
            self.spans.append(Span(self._invocation, span_id, name, start, end, parent, error))

    def invocation(self, fn, *args):
        """Run one invocation under a root ``cli.run`` span with wrappers installed."""
        self._invocation += 1
        self._install()
        try:
            return self.call(ROOT, fn, *args)
        finally:
            self._uninstall()

    # -- patching --------------------------------------------------------
    def _wrap(self, name: str, original):
        tracer = self
        if name in self._counted_names:
            def counted(*args, **kwargs):
                tracer._add(f"{name}.calls", 1)
                return original(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            tracer._measure_call(name, args, kwargs)
            result = tracer.call(name, original, *args, **kwargs)
            if name == "squeezing.solve_quadratic":
                tracer._add("squeezing.grid_points", _size(getattr(result, "tau", ())))
            return result
        return spanned

    def _measure_call(self, name: str, args, kwargs) -> None:
        if name == "engine.evaluate_trajectory":
            taus = kwargs.get("taus", args[2] if len(args) > 2 else ())
            self._add("engine.points", _size(taus))
        elif name == "fock.evolve":
            psi0 = kwargs.get("psi0", args[0] if args else None)
            self._add("fock.dim", _size(getattr(psi0, "amplitudes", ())))

    def _install(self) -> None:
        for owner_name, attr, name in self._targets:
            owner = _resolve(owner_name)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            own = attr in vars(owner)
            self._restore.append((owner, attr, original, own))
            setattr(owner, attr, self._wrap(name, original))
            self.installed.add(name)

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, original, own = self._restore.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- aggregation -----------------------------------------------------
    def layer_metrics(self, invocations: int, validation_error: type | None) -> dict[str, float]:
        """Per-invocation layer metrics; names whose targets are gone are absent."""
        per = 1.0 / max(invocations, 1)
        calls: Counter[str] = Counter()
        busy: defaultdict[str, float] = defaultdict(float)
        failed: Counter[str] = Counter()
        invalid: Counter[str] = Counter()
        children: defaultdict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            calls[span.name] += 1
            busy[span.name] += span.end - span.start
            if span.error is not None:
                failed[span.name] += 1
                if validation_error is not None and issubclass(span.error, validation_error):
                    invalid[span.name] += 1
            if span.parent is not None:
                children[span.parent].append(span)
        self_time: defaultdict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.name in SELF_TIMED:
                covered = _union(children[span.span_id], span.start, span.end)
                self_time[span.name] += span.end - span.start - covered

        out: dict[str, float] = {}
        for name in sorted(self._span_names | {ROOT}):
            if name != ROOT and name not in self.installed:
                continue
            out[f"{name}.calls"] = calls[name] * per
            out[f"{name}.busy_s"] = busy[name] * per
            if name in SELF_TIMED:
                out[f"{name}.self_s"] = self_time[name] * per
        for name, source in DERIVED.items():
            if source in self.installed:
                out[name] = self.counts[name] * per
        for name in sorted(self._counted_names & self.installed):
            out[f"{name}.calls"] = self.counts[f"{name}.calls"] * per
        if "nongauss.non_gaussianity" in self.installed:
            out["nongauss.failed"] = invalid["nongauss.non_gaussianity"] * per
        if "fock.evolve" in self.installed:
            attempts = calls["fock.evolve"]
            out["fock.evolve.failed"] = failed["fock.evolve"] * per
            out["fock.useful_ratio"] = (attempts - failed["fock.evolve"]) / max(attempts, 1)
            out["fock.dim"] = self.counts["fock.dim"] / max(attempts, 1)
        return out

    def records(self) -> list[dict]:
        return [
            {"invocation": s.invocation, "id": s.span_id, "name": s.name, "start": s.start,
             "end": s.end, "parent": s.parent,
             "error": s.error.__name__ if s.error else None}
            for s in self.spans
        ]


def _size(values) -> int:
    size = getattr(values, "size", None)
    if isinstance(size, int):
        return size
    try:
        return len(values)
    except TypeError:
        return 1


def _union(spans: list[Span], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the spans."""
    total, reach = 0.0, lo
    for span in sorted(spans, key=lambda s: s.start):
        start, end = max(span.start, reach), min(span.end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
