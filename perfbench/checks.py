"""Output checks for one CLI invocation.

Each check returns ``None`` for a good output or a one-line reason.  The
checks hold on every output the program should accept, independent of how
it computes it: header and row count, finite numbers, the Araki-Lieb
sandwich ``delta_min <= delta <= delta_max`` up to a slack relative to
``delta_max``, physical symplectic eigenvalues, and for ``oracle-check``
every relative error within ``tol``.
"""

from __future__ import annotations

import csv
import io
import math

from workloads import ORACLE_MOMENTS, ORACLE_TOL, Invocation

BOUND_REL_SLACK = 1e-6
BOUND_ABS_SLACK = 1e-12
NU_FLOOR = 1.0 - 1e-6


def check_output(inv: Invocation, text: str) -> str | None:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != inv.header:
        return f"header {rows[0] if rows else None} != {list(inv.header)}"
    body = rows[1:]
    if len(body) != inv.rows:
        return f"{len(body)} data rows, expected {inv.rows}"
    if inv.mode == "oracle-check":
        labels = [row[0] for row in body]
        if labels != list(ORACLE_MOMENTS):
            return f"moment column {labels} != {list(ORACLE_MOMENTS)}"
    for n, row in enumerate(body, start=1):
        if len(row) != len(inv.header):
            return f"row {n}: {len(row)} fields, expected {len(inv.header)}"
        fields = dict(zip(inv.header, row))
        fields.pop("moment", None)
        reason = _check_row(fields)
        if reason:
            return f"row {n}: {reason}"
    return None


def _check_row(row: dict[str, str]) -> str | None:
    try:
        values = {key: float(raw) for key, raw in row.items()}
    except ValueError as exc:
        return f"not a number ({exc})"
    bad = [key for key, v in values.items() if not math.isfinite(v)]
    if bad:
        return f"non-finite {bad}"
    if "delta" in values:
        delta, lo, hi = values["delta"], values["delta_min"], values["delta_max"]
        slack = BOUND_REL_SLACK * abs(hi) + BOUND_ABS_SLACK
        if not lo - slack <= delta <= hi + slack:
            return f"delta {delta!r} escapes [{lo!r}, {hi!r}]"
    for key in ("nu_op", "nu_me"):
        if key in values and values[key] < NU_FLOOR:
            return f"{key} {values[key]!r} < {NU_FLOOR!r}"
    if "rel_err" in values and values["rel_err"] > ORACLE_TOL:
        return f"rel_err {values['rel_err']!r} > tol {ORACLE_TOL!r}"
    return None
