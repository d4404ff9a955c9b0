import numpy as np
import pytest
from hypothesis import settings

from optomech import (
    ConstantSqueezing,
    Coupling,
    InitialState,
    ModulatedSqueezing,
    SystemParams,
    solve_quadratic,
)

# the same examples on every run, so the suite is deterministic; each test
# keeps its own max_examples
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def modulated_solution():
    """Resonantly modulated sector solved over two mechanical periods."""
    return solve_quadratic(ModulatedSqueezing(0.1, 2.0), 2 * np.pi)


@pytest.fixture(scope="session")
def benchmark_system():
    """g0 = 1, no squeezing: the workhorse strong-coupling configuration."""
    return SystemParams(omega_c=1.0, coupling=Coupling(g=1.0), squeezing=ConstantSqueezing(0.0))


@pytest.fixture(scope="session")
def coherent_init():
    return InitialState(mu_c=1.0, mu_m=0.0)
