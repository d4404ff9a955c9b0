"""Detection power of tier-1 against a fixed table of engine mutants.

Each mutant is one or more (file, old text, new text) edits.  For each, the
tree at REF is unpacked with ``git archive`` into a temporary directory, the
edits are made there (never in the checkout), and tier-1 runs on the copy,
stopping at its first failure.  A mutant whose old text does not occur
exactly once in its file is refused before anything runs.

    python tests/mutants.py [REF] [--tests PATH ...]

REF defaults to HEAD; ``git stash create`` gives a ref for uncommitted
work.  ``--tests`` narrows the run to some tests, to see what they alone
detect.  Each line names a mutant and its first failing test, or "survived".
The exit code is the number of survivors.
"""

from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MOMENTS = "src/optomech/moments.py"
NONGAUSS = "src/optomech/nongauss.py"
SQUEEZING = "src/optomech/squeezing.py"
DECOUPLING = "src/optomech/decoupling.py"

MUTANTS: dict[str, list[tuple[str, str, str]]] = {
    "s14-dropped": [(MOMENTS, "s14=2.0 * a * np.conj(k) * (1.0 + nc * eps),",
                     "s14=0.0 * a * np.conj(k) * (1.0 + nc * eps),")],
    "off-sign": [(NONGAUSS, "off = abs(x12) ** 2 - abs(y12) ** 2",
                  "off = abs(y12) ** 2 - abs(x12) ** 2")],
    "e_me-4.4": [(NONGAUSS, "e_me = 4.0 * abs(number_displacement)",
                  "e_me = 4.4 * abs(number_displacement)")],
    "beta-1.001": [(SQUEEZING, "beta = 0.5 * (np.conj(xi) + 1j * np.conj(dxi))",
                    "beta = 1.001 * 0.5 * (np.conj(xi) + 1j * np.conj(dxi))"),
                   (SQUEEZING, ", -2j * d2 * s", ", -2.002j * d2 * s")],
    "deriv-swap": [(DECOUPLING, "sol.cos_deriv, sol.sin_sol, sol.sin_deriv",
                    "sol.sin_deriv, sol.sin_sol, sol.cos_deriv")],
    "e11-2.02": [(MOMENTS, "e11=-2.0 * (nc * np.expm1(", "e11=-2.02 * (nc * np.expm1(")],
    "cross-sign": [(NONGAUSS, "cross = abs(s12) ** 2 - abs(s14) ** 2",
                    "cross = abs(s12) ** 2 + abs(s14) ** 2")],
    "e_op-s13-sign": [(NONGAUSS, "(excess.e11 + 2.0) - abs(excess.s13) ** 2",
                       "(excess.e11 + 2.0) + abs(excess.s13) ** 2")],
    "kick-decay": [(MOMENTS, "np.exp(-0.5 * abs(k_n) ** 2", "np.exp(-0.55 * abs(k_n) ** 2")],
    "drive-shift-sign": [(MOMENTS, "drive_shift = plus * coeffs.mom - 1j * minus * coeffs.pos",
                          "drive_shift = plus * coeffs.mom + 1j * minus * coeffs.pos")],
    "excess-entropy-half": [(NONGAUSS, "/ (nu + 1.0))", "/ (nu + 1.001))")],
    "s24-conj-dropped": [(MOMENTS, "s24=2.0 * np.conj(k) ** 2 * nc", "s24=2.0 * k ** 2 * nc")],
    "e22-2.2": [(MOMENTS, "e22=2.0 * k_sq * nc", "e22=2.2 * k_sq * nc")],
    "covariance-s14-sign": [(MOMENTS, "s14 = 2.0 * m.ab - 2.0 * a * b",
                             "s14 = 2.0 * m.ab + 2.0 * a * b")],
}


def unpack(ref: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", ref], check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def apply(tree: Path, edits: list[tuple[str, str, str]]) -> None:
    for name, old, new in edits:
        path = tree / name
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{name}: {old!r} occurs {text.count(old)} times, not once")
        path.write_text(text.replace(old, new), encoding="utf-8")


def first_failure(tree: Path, tests: list[str]) -> str:
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=tree, capture_output=True, text=True,
    )
    if run.returncode == 0:
        return "survived"
    for line in run.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ", 1)[0]
    return f"pytest exit {run.returncode}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("ref", nargs="?", default="HEAD")
    parser.add_argument("--tests", nargs="+", default=["tests"])
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        pristine = Path(scratch) / "pristine"
        unpack(args.ref, pristine)
        for edits in MUTANTS.values():  # refuse a stale table before any run
            apply(pristine, [(name, old, old) for name, old, _ in edits])
        survivors = 0
        for name, edits in MUTANTS.items():
            tree = Path(scratch) / name
            unpack(args.ref, tree)
            apply(tree, edits)
            result = first_failure(tree, args.tests)
            survivors += result == "survived"
            print(f"{name:22} {result}", flush=True)
    return survivors


if __name__ == "__main__":
    sys.exit(main())
