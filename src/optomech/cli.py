"""Command-line front end.

Four modes, all emitting RFC-4180-style CSV with a mandatory header row and
17-significant-digit floats, so identical configs give byte-identical files:

* ``evolve``       one trajectory: optical amplitude, quadratures,
                   subsystem eigenvalues and the non-Gaussianity measure.
* ``sweep``        the measure and its bounds over 1-2 parameter axes.
* ``oracle-check`` side-by-side analytic vs truncated-Fock moments; the
                   oracle evolves one block per photon number and sizes
                   its own basis and step.
* ``mathieu``      numeric vs two-scale solutions of the modulated sector.

Configuration is a flat ``key = value`` text file with optional bracketed
section headers and ``#`` comments; ``--key value`` and ``--key=value`` flags
after the mode are read as its lines are, and override it.  The keys are the
``RunConfig`` fields other than ``mode`` and ``out``.  The solver grid, the
oracle's basis and its step are set by the program, not by keys.  Every
output is in the frame co-rotating with the cavity, where the cavity
frequency drops out, so no key sets it.  Exit codes: 0 success, 2 config
error, 3 numerical-regime error, 4 oracle mismatch.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .engine import evaluate_point, evaluate_trajectory
from .errors import ConfigError, ConvergenceError, NonFiniteError, OptomechError
from .moments import InitialState
from .profiles import Coupling, ModulatedSqueezing, SystemParams
from .squeezing import mathieu_params, solve_quadratic, two_scale_solution

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_REGIME = 3
_EXIT_MISMATCH = 4

_SWEEP_AXES = ("g0", "d2", "tau")

# rows formatted per write: the text of one block stays small
_CSV_BLOCK_ROWS = 256
# most output times (or sweep cells) in one run: a pass holds about 650 B
# per output time, so this is about 0.7 GB
_MAX_OUTPUTS = 2**20

# certified envelope for the brute-force oracle
_ORACLE_LIMITS = {
    "g0": 1.0,
    "d2_constant": 1.0,
    "d2_modulated": 0.3,
    "mu": 2.0,
    "tau": 2.0 * np.pi,
}


class Axis(NamedTuple):
    name: str
    start: float
    stop: float
    count: int
    spacing: str  # "linear" | "log"

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


class RunConfig(NamedTuple):
    mode: str
    g0: float = 1.0
    d1: float = 0.0
    squeezing: str = "constant"
    d2: float = 0.0
    omega0: float = 2.0
    mu_c: complex = 1.0 + 0.0j
    mu_m: complex = 0.0 + 0.0j
    tau_max: float = 2.0 * np.pi
    points: int = 201
    tau: float = np.pi
    axis1: Axis | None = None
    axis2: Axis | None = None
    tol: float = 1e-3
    out: str = ""

    def system(self) -> SystemParams:
        omega0 = self.omega0 if self.squeezing == "modulated" else 0.0
        return SystemParams(coupling=Coupling(g=self.g0, drive=self.d1),
                            squeezing=ModulatedSqueezing(self.d2, omega0))

    def initial_state(self) -> InitialState:
        return InitialState(mu_c=self.mu_c, mu_m=self.mu_m)


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_complex(key: str, raw: str) -> complex:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) > 2:
        raise ConfigError(f"{key}: expected 're,im', got {raw!r}")
    return complex(*(_parse_float(key, p) for p in parts))


def _parse_axis(key: str, raw: str) -> Axis:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 5:
        raise ConfigError(f"{key}: expected 'name,start,stop,count,linear|log', got {raw!r}")
    name, start, stop, count, spacing = parts
    if name not in _SWEEP_AXES:
        raise ConfigError(f"{key}: axis name must be one of {_SWEEP_AXES}, got {name!r}")
    if spacing not in ("linear", "log"):
        raise ConfigError(f"{key}: spacing must be linear or log, got {spacing!r}")
    n = _parse_int(key, count)
    if n < 2:
        raise ConfigError(f"{key}: axis count must be >= 2, got {n}")
    lo, hi = _parse_float(key, start), _parse_float(key, stop)
    if spacing == "log" and (lo <= 0 or hi <= 0):
        raise ConfigError(f"{key}: log axis endpoints must be positive")
    if name == "tau" and min(lo, hi) < 0:
        raise ConfigError(f"{key}: tau values must be non-negative")
    return Axis(name=name, start=lo, stop=hi, count=n, spacing=spacing)


# every RunConfig field but mode and out is a key, parsed by its annotation
# (a ForwardRef holding the annotation's text)
_PARSE_BY_TYPE = {
    "float": _parse_float,
    "int": _parse_int,
    "complex": _parse_complex,
    "str": lambda key, raw: raw.strip().lower(),
    "Axis | None": _parse_axis,
}
_PARSERS = {
    name: _PARSE_BY_TYPE[hint.__forward_arg__]
    for name, hint in RunConfig.__annotations__.items()
    if name not in ("mode", "out")
}


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value file; bracketed section headers and # comments, whole
    lines or trailing a value, are ignored."""
    raw: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r} ({exc})") from None
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#") or text.startswith(";"):
            continue
        if text.startswith("[") and text.endswith("]"):
            continue
        if "=" not in text:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {text!r}")
        key, value = text.split("=", 1)
        raw[key.strip().lower()] = value.split("#", 1)[0].strip()
    return raw


def build_config(mode: str, file_values: dict[str, str], overrides: dict[str, str],
                 out: str) -> RunConfig:
    cfg = RunConfig(mode=mode, out=out)
    for key, raw in {**file_values, **overrides}.items():
        if key not in _PARSERS:
            raise ConfigError(f"{key}: unknown configuration key")
        cfg = cfg._replace(**{key: _PARSERS[key](key, raw)})
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if not cfg.out:
        raise ConfigError("out: an output file is required (--out FILE)")
    if cfg.tau_max <= 0:
        raise ConfigError(f"tau_max: must be positive, got {cfg.tau_max:g}")
    if not 2 <= cfg.points <= _MAX_OUTPUTS:
        raise ConfigError(f"points: must be in [2, {_MAX_OUTPUTS}], got {cfg.points}")
    if cfg.tau < 0:
        raise ConfigError(f"tau: must be non-negative, got {cfg.tau:g}")
    if cfg.tol <= 0:
        raise ConfigError(f"tol: must be positive, got {cfg.tol:g}")
    if cfg.squeezing not in ("constant", "modulated"):
        raise ConfigError(f"squeezing: unknown profile {cfg.squeezing!r} (constant|modulated)")
    if cfg.mode == "mathieu" and cfg.omega0 * cfg.omega0 in (0.0, math.inf):
        raise ConfigError(
            f"omega0: mathieu mode needs a modulation frequency with a nonzero, finite "
            f"square, got {cfg.omega0:g}"
        )
    if cfg.axis2 is not None and cfg.axis1 is None:
        raise ConfigError("axis2: set axis1 before axis2")
    cells = math.prod(ax.count for ax in (cfg.axis1, cfg.axis2) if ax is not None)
    if cells > _MAX_OUTPUTS:
        key = "axis1" if cfg.axis2 is None else "axis1 x axis2"
        raise ConfigError(f"{key}: {cells} sweep cells, past the limit of {_MAX_OUTPUTS}")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: str, header: list[str], columns) -> None:
    """Write the table given by its columns: a column of str as it is, any
    other as floats in the text of _fmt.  Rows are stacked _CSV_BLOCK_ROWS
    at a time, so no copy of the whole table is made."""
    columns = [np.asarray(c, dtype=object if isinstance(c[0], str) else float)
               for c in columns]
    # one %-template per block of rows; Python floats format faster than
    # numpy scalars
    line = ",".join("%s" if c.dtype == object else "%.17g" for c in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = np.column_stack([c[start:start + _CSV_BLOCK_ROWS] for c in columns])
            handle.write(line * len(block) % tuple(block.ravel().tolist()))


def run_evolve(cfg: RunConfig) -> int:
    taus = np.linspace(0.0, cfg.tau_max, cfg.points)
    rec = evaluate_trajectory(cfg.system(), cfg.initial_state(), taus)
    a, r = rec.moments.a, rec.report
    _write_csv(
        cfg.out,
        ["tau", "re_a", "im_a", "x1", "p1", "nu_op", "nu_me", "delta", "delta_min", "delta_max"],
        [rec.tau, a.real, a.imag, np.sqrt(2.0) * a.real, np.sqrt(2.0) * a.imag,
         r.nu_op, r.nu_me, r.delta, r.delta_min, r.delta_max],
    )
    return _EXIT_OK


def run_sweep(cfg: RunConfig) -> int:
    if cfg.axis1 is None:
        raise ConfigError("axis1: sweep mode needs at least one axis")
    axes = [ax for ax in (cfg.axis1, cfg.axis2) if ax is not None]
    names = [ax.name for ax in axes]
    if len(set(names)) != len(names):
        raise ConfigError("axis2: sweep axes must differ")
    # one column per swept key over the cells, in row-major axis order
    grid = [v.ravel() for v in np.meshgrid(*(ax.values() for ax in axes), indexing="ij")]
    cells = dict(zip(names, grid))
    g0, d2, tau = (cells.get(k, np.full(grid[0].size, getattr(cfg, k))) for k in _SWEEP_AXES)

    # cells sharing d2 share one solve, which g0 only scales: one pass each
    measures = np.empty((3, grid[0].size))
    for value in dict.fromkeys(d2.tolist()):
        mask = d2 == value
        r = evaluate_trajectory(
            cfg._replace(g0=g0[mask], d2=value).system(), cfg.initial_state(), tau[mask]
        ).report
        measures[:, mask] = r.delta, r.delta_min, r.delta_max

    _write_csv(cfg.out, names + ["delta", "delta_min", "delta_max"], [*grid, *measures])
    return _EXIT_OK


def run_mathieu(cfg: RunConfig) -> int:
    if cfg.squeezing != "modulated":
        raise ConfigError("squeezing: mathieu mode needs the modulated profile")
    a, q = mathieu_params(cfg.d2, cfg.omega0)
    taus = np.linspace(0.0, cfg.tau_max, cfg.points)
    # as in evaluate_trajectory: an overflow is reported once, below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sol = solve_quadratic(ModulatedSqueezing(cfg.d2, cfg.omega0), taus)
        cos_ts, sin_ts = two_scale_solution(cfg.d2, taus)
        xi = sol.mode(taus)
    finite = np.isfinite(xi) & np.isfinite(cos_ts) & np.isfinite(sin_ts)
    if not np.all(finite):
        first = taus[np.argmin(finite)]
        raise NonFiniteError(f"non-finite solution, first at tau = {first:.17g}")
    _write_csv(cfg.out, ["tau", "cos_sol", "sin_sol", "cos_two_scale", "sin_two_scale"],
               [taus, xi.real, -xi.imag, cos_ts, sin_ts])
    dev_cos = np.max(np.abs(xi.real - cos_ts))
    dev_sin = np.max(np.abs(-xi.imag - sin_ts))
    print(
        f"mathieu: a={_fmt(a)} q={_fmt(q)} "
        f"max|cos dev|={dev_cos:.3e} max|sin dev|={dev_sin:.3e}"
    )
    return _EXIT_OK


def _check_oracle_envelope(cfg: RunConfig) -> None:
    problems = []
    if abs(cfg.g0) > _ORACLE_LIMITS["g0"]:
        problems.append(f"g0={cfg.g0:g} exceeds {_ORACLE_LIMITS['g0']:g}")
    # a static Hamiltonian takes one exponential, a modulated one CF4 steps
    kind = "constant" if cfg.system().is_time_independent else "modulated"
    d2_cap = _ORACLE_LIMITS[f"d2_{kind}"]
    if abs(cfg.d2) > d2_cap:
        problems.append(f"d2={cfg.d2:g} exceeds {d2_cap:g} for {kind} squeezing")
    if abs(cfg.mu_c) > _ORACLE_LIMITS["mu"] or abs(cfg.mu_m) > _ORACLE_LIMITS["mu"]:
        problems.append(f"coherent amplitudes must stay within {_ORACLE_LIMITS['mu']:g}")
    if cfg.tau > _ORACLE_LIMITS["tau"]:
        problems.append(f"tau={cfg.tau:g} exceeds {_ORACLE_LIMITS['tau']:g}")
    if problems:
        raise ConvergenceError(
            "oracle-check refused, parameters outside the certified envelope: "
            + "; ".join(problems)
        )


def run_oracle_check(cfg: RunConfig) -> int:
    from . import fock

    system = cfg.system()
    init = cfg.initial_state()
    _check_oracle_envelope(cfg)
    rec = evaluate_point(system, init, cfg.tau)
    final = fock.evolve(fock.product_coherent(init), system, cfg.tau)
    measured = fock.measure_moments(final, system.omega_c, cfg.tau)

    rows = []
    all_ok = True
    for name, ana, orc in zip(measured._fields, rec.moments, measured):
        ana, orc = complex(ana), complex(orc)
        abs_err = abs(ana - orc)
        rel_err = abs_err / max(abs(ana), 1e-300)
        ok = abs_err <= max(cfg.tol * abs(ana), 1e-6)
        all_ok &= ok
        print(f"oracle-check {name}: {'PASS' if ok else 'FAIL'} rel_err={rel_err:.3e}")
        rows.append((name, ana.real, ana.imag, orc.real, orc.imag, abs_err, rel_err))

    _write_csv(cfg.out, ["moment", "analytic_re", "analytic_im", "oracle_re", "oracle_im",
                         "abs_err", "rel_err"], zip(*rows))
    return _EXIT_OK if all_ok else _EXIT_MISMATCH


_RUNNERS = {
    "evolve": run_evolve,
    "sweep": run_sweep,
    "oracle-check": run_oracle_check,
    "mathieu": run_mathieu,
}


def main(argv: list[str] | None = None) -> int:
    mode, *rest = (sys.argv[1:] if argv is None else argv) or [""]
    if {"-h", "--help"} & {mode, *rest}:
        print(f"usage: optomech {'|'.join(_RUNNERS)} [--config FILE] [--KEY VALUE | "
              f"--KEY=VALUE ...] --out FILE; keys: {', '.join(_PARSERS)}")
        return _EXIT_OK
    try:
        if mode not in _RUNNERS:
            raise ConfigError(f"mode: expected one of {'|'.join(_RUNNERS)}, got {mode!r}")
        # each flag is read as a config-file line: its lowercased key takes the
        # text after "=", or else the next argument unless that starts with "--"
        flags: dict[str, str] = {}
        while rest:
            arg = rest.pop(0)
            if not arg.startswith("--"):
                raise ConfigError(f"expected --key value or --key=value, got {arg!r}")
            key, eq, value = arg[2:].partition("=")
            if not eq and rest and not rest[0].startswith("--"):
                value = rest.pop(0)
            flags[key.lower()] = value
        config, out = flags.pop("config", None), flags.pop("out", "")
        file_values = parse_config_file(config) if config is not None else {}
        return _RUNNERS[mode](build_config(mode, file_values, flags, out))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except OptomechError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_REGIME


if __name__ == "__main__":
    raise SystemExit(main())
