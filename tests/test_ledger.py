"""The benchmark's outputs, byte for byte, against ``ledger.json``.

Every ledger invocation runs in-process through ``cli.main``; its exit code
and the SHA-256 of its CSV must equal the ledger's.  A mismatch names the
invocation and the largest relative move of each column over the probed
rows.  ``ledger.py`` says how the ledger is made and regenerated.
"""

import json

import numpy as np
import pytest

from ledger import LEDGER, compare, run

RECORD = json.loads(LEDGER.read_text(encoding="utf-8"))


def test_numpy_is_the_ledgers():
    # float bytes depend on numpy, so another version cannot be held to them
    assert np.__version__ == RECORD["numpy"], (
        f"ledger written with numpy {RECORD['numpy']}, running numpy {np.__version__}"
    )


@pytest.mark.parametrize("name", list(RECORD["invocations"]))
def test_output_matches_the_ledger(name):
    want = RECORD["invocations"][name]
    problems = compare(name, want, run(want["argv"]))
    if problems:
        pytest.fail("\n".join(problems))
