"""A ledger of the benchmark's CSV outputs, checked by ``test_ledger.py``.

``ledger.json`` holds a fixed prefix of the benchmark workloads of
``perfbench/workloads.py`` (the first 12 ``trajectory`` and 12 ``oracle``
invocations of seeds 3 and 11, and the first ``sweep`` invocation of seed 3)
and one ``mathieu`` run.  For each it stores the argv without ``--out``, the
exit code, the SHA-256 of the CSV written (null if none) and a probe of its
data rows 0, 100, 200, ... and the last.  It also records the numpy version
that wrote it, since float bytes depend on it.

A change that moves outputs on purpose regenerates the ledger with

    python tests/ledger.py --write
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
LEDGER = Path(__file__).resolve().with_name("ledger.json")
WORKLOADS = ROOT / "perfbench" / "workloads.py"
SEEDS = (3, 11)
PREFIX = 12
MATHIEU = ["mathieu", "--squeezing", "modulated", "--d2", "0.05", "--omega0", "2",
           "--tau_max", "30"]
PROBE_EVERY = 100


def _workloads():
    """``perfbench/workloads.py``, loaded from its file without writing bytecode."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        # @dataclass looks its module up in sys.modules
        sys.modules[name] = module
        previous, sys.dont_write_bytecode = sys.dont_write_bytecode, True
        try:
            spec.loader.exec_module(module)
        finally:
            sys.dont_write_bytecode = previous
    return sys.modules[name]


def invocations() -> dict[str, list[str]]:
    """The ledger's invocations by name, each an argv without ``--out``."""
    workloads = _workloads()
    prefixes = [(w, seed, PREFIX) for w in ("trajectory", "oracle") for seed in SEEDS]
    prefixes.append(("sweep", 3, 1))
    out = {}
    for workload, seed, count in prefixes:
        plan = workloads.plan(workload, seed)
        for i in range(count):
            out[f"{workload}:{seed}:{i}"] = next(plan).argv("")[:-2]
    out["mathieu"] = list(MATHIEU)
    return out


def run(argv: list[str]) -> dict:
    """Run one invocation in-process; its exit code, CSV hash and probe."""
    from optomech.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        sink = io.StringIO()
        # a warning changes neither the CSV nor the exit code of a CLI run,
        # and the caller's filters (pytest makes RuntimeWarning an error)
        # must not either
        with warnings.catch_warnings(), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            warnings.simplefilter("ignore")
            code = main(list(argv) + ["--out", str(path)])
        if not path.exists():
            return {"exit": code, "sha256": None, "header": None, "probe": {}}
        data = path.read_bytes()
    lines = data.decode("utf-8").splitlines()
    rows = lines[1:]
    picks = sorted({*range(0, len(rows), PROBE_EVERY), len(rows) - 1})
    return {
        "exit": code,
        "sha256": hashlib.sha256(data).hexdigest(),
        "header": lines[0],
        "probe": {str(i): rows[i] for i in picks},
    }


def _relative_move(old: str, new: str) -> float:
    """How far one CSV field moved, relative to its ledger value."""
    try:
        x, y = float(old), float(new)
    except ValueError:
        return 0.0 if old == new else math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(y - x) / abs(x) if x != 0.0 else math.inf


def compare(name: str, want: dict, got: dict) -> list[str]:
    """Every way ``got`` differs from the ledger entry ``want``, one line each;
    a differing CSV is reported as the largest relative move per column over
    the probed rows."""
    problems = []
    if got["exit"] != want["exit"]:
        problems.append(f"{name}: exit {got['exit']}, ledger {want['exit']}")
    if got["sha256"] == want["sha256"]:
        return problems
    if got["sha256"] is None or want["sha256"] is None:
        wrote = "no CSV" if got["sha256"] is None else "a CSV"
        return problems + [f"{name}: wrote {wrote}, ledger {'a CSV' if want['sha256'] else 'none'}"]
    if got["header"] != want["header"]:
        problems.append(f"{name}: header {got['header']!r}, ledger {want['header']!r}")
    if got["probe"].keys() != want["probe"].keys():
        problems.append(f"{name}: {len(got['probe'])} probed rows, ledger {len(want['probe'])}")
    columns = want["header"].split(",")
    moves = dict.fromkeys(columns, 0.0)
    for row in want["probe"].keys() & got["probe"].keys():
        for column, old, new in zip(columns, want["probe"][row].split(","),
                                    got["probe"][row].split(",")):
            moves[column] = max(moves[column], _relative_move(old, new))
    moved = ", ".join(f"{c} {m:.3g}" for c, m in moves.items() if m > 0.0)
    problems.append(f"{name}: CSV differs; largest relative move per column over the "
                    f"probed rows: {moved or 'none (the difference is between probes)'}")
    return problems


def write() -> None:
    entries = {name: {"argv": argv, **run(argv)} for name, argv in invocations().items()}
    LEDGER.write_text(json.dumps({"numpy": np.__version__, "invocations": entries},
                                 indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} invocations to {LEDGER}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate ledger.json")
    if not parser.parse_args().write:
        parser.error("nothing to do; pass --write to regenerate the ledger")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    write()
