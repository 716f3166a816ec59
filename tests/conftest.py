import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from phaselab import coherent_state, fock_state, make_grid, normalize
from phaselab.core import Basis, WaveFunction


def traced_peak(call) -> int:
    """The peak bytes that tracemalloc sees allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def grid():
    return make_grid(256, -16.0, 16.0)


@pytest.fixture(scope="session")
def vacuum(grid):
    return coherent_state(grid, 0.0, 0.0, 1.0)


def random_state(grid, rng):
    """Random normalized superposition of up to 4 coherent/Fock components."""
    k = rng.integers(1, 5)
    amp = np.zeros(grid.n, dtype=np.complex128)
    for _ in range(k):
        c = rng.normal() + 1j * rng.normal()
        if rng.random() < 0.5:
            x0 = rng.uniform(-4.0, 4.0)
            p0 = rng.uniform(-3.0, 3.0)
            delta = rng.uniform(0.5, 2.0)
            amp = amp + c * coherent_state(grid, x0, p0, delta).amp
        else:
            amp = amp + c * fock_state(grid, int(rng.integers(0, 7))).amp
    return normalize(WaveFunction(grid, Basis.POSITION, amp))


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
