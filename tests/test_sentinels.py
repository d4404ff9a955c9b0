"""The benchmark's accuracy sentinels, run in tier-1.

``perfbench/sentinels.py`` reaches into ``fock`` and ``squeezing`` by name
and reports an infinite value for any point the program refuses, so a
rename there or a loss of accuracy shows here before a benchmark run does.
The module is imported from its file and left as it is.
"""

import importlib.util
import math
import sys
from pathlib import Path

SENTINELS = Path(__file__).resolve().parents[1] / "perfbench" / "sentinels.py"


def test_every_sentinel_is_finite_and_at_its_floor(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_sentinels", SENTINELS)
    sentinels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sentinels)
    values, errors = sentinels.measure()
    assert errors == {}
    assert values.keys() == sentinels.FLOOR.keys()
    for name, value in values.items():
        assert math.isfinite(value) and value <= sentinels.FLOOR[name], (name, value)
