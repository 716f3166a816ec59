import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from phaselab import coherent_state, fock_state, make_grid, normalize
from phaselab import io as plio
from phaselab.core import Basis, WaveFunction
from phaselab.phasespace import DistributionKind, PhaseSpaceGrid


def traced_peak(call) -> int:
    """The peak bytes that tracemalloc sees allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def written_n1024(tmp_path_factory):
    """An n = 1024 distribution of seeded random values and the directory that
    holds it as ``w.json`` and ``q.csv``, written once per session."""
    n = 1024
    g = make_grid(n, -16.0, 16.0)
    dist = PhaseSpaceGrid(x=g.x, p=g.p, kind=DistributionKind.WIGNER,
                          values=np.random.default_rng(3).normal(size=(n, n)))
    out = tmp_path_factory.mktemp("n1024")
    plio.save_distribution(dist, out / "w.json", fmt="json")
    plio.save_distribution(dist, out / "q.csv", fmt="csv")
    return dist, out


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
