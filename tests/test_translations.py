"""The pointer coupling and the characteristic family as lattice translations,
against the momentum-phase kernels they replaced (kept in oracles)."""

import tracemalloc

import numpy as np
import pytest

import oracles
from phaselab import (
    CouplingSpec,
    apply_interaction,
    characteristic,
    device_grid_for,
    husimi,
    make_composite,
    make_grid,
    normalize,
    pointer_vs_direct,
    readout_joint,
)
from phaselab import measurement, phasespace, pointer
from phaselab.core import Basis, WaveFunction

SIZES = [64, 256, 1024]
# On [-15, 17.3) the offset x_min/dx is a fractional number of cells.
FRACTIONAL = [(-15.0, 17.3)]
DOMAINS = [(-16.0, 16.0), *FRACTIONAL]
# Wide enough that the device Gaussian is band-limited on the n = 64 lattice,
# where a fractional shift of it must not reach the device grid edges.
DELTA_DEVICE = 2.0


def _state(grid):
    """Two displaced Gaussians and an odd component, built directly so that
    the coarse n = 64 lattices need no envelope check."""
    x = grid.x
    amp = (np.exp(-((x + 2.0) ** 2) / 2.0 + 0.7j * x)
           + (0.5 + 0.3j) * np.exp(-((x - 1.5) ** 2) / 1.5 - 0.4j * x)
           + 0.3 * x * np.exp(-(x**2) / 2.0))
    return normalize(WaveFunction(grid, Basis.POSITION, amp))


def _rel(a, b):
    return float(np.max(np.abs(a - b))) / float(np.max(np.abs(b)))


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("n", SIZES)
class TestAgainstPhaseKernels:
    @pytest.mark.parametrize("g", [1.0, 0.5])
    def test_apply_interaction(self, n, domain, g):
        psi = _state(make_grid(n, *domain))
        dg = device_grid_for(psi.grid, CouplingSpec(g=g, delta_device=DELTA_DEVICE))
        comp = make_composite(dg, DELTA_DEVICE, psi)
        assert _rel(apply_interaction(comp, g).amp, oracles.apply_interaction_reference(comp, g)) <= 1e-9

    # s = 1 multiplies round-off by exp((u^2 + v^2)/4), so at the lattice
    # corners both kernels return noise; it is not compared.
    @pytest.mark.parametrize("s", [-1.0, 0.0])
    def test_characteristic(self, n, domain, s):
        psi = _state(make_grid(n, *domain))
        cg = characteristic(psi, s)
        # on a fractional domain the v lattice runs through the origin, off the x lattice
        v = cg.v if domain in FRACTIONAL else None
        assert _rel(cg.values, oracles.characteristic_reference(psi, s, v=v)) <= 1e-9


def test_non_commensurate_coupling_is_the_phase_kernel(grid, rng):
    from conftest import random_state

    dev = make_grid(512, -32.0, 32.0)
    comp = make_composite(dev, 1.0, random_state(grid, rng))
    for g in (0.3, 0.75, 1.3):
        assert np.array_equal(apply_interaction(comp, g).amp,
                              oracles.apply_interaction_reference(comp, g))


def test_pointer_peak_memory():
    psi = _state(make_grid(1024, -16.0, 16.0))
    tracemalloc.start()
    try:
        pointer_vs_direct(psi, CouplingSpec(g=0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 192 * 2**20  # the device lattice holds 4096 x 1024 complex128, 64 MiB


def test_coupling_never_uses_the_direct_route(grid, monkeypatch, rng):
    """The pointer route stays independent of the operator route it is
    compared with: coupling and readout run with that route disabled."""
    from conftest import random_state

    psi = random_state(grid, rng)
    expected = husimi(psi, 1.0).values

    def disabled(*args, **kwargs):
        raise AssertionError("the pointer route called the direct route")

    monkeypatch.setattr(measurement, "_m_diag", disabled)
    monkeypatch.setattr(phasespace, "husimi", disabled)
    monkeypatch.setattr(pointer, "successive_density", disabled)
    dg = device_grid_for(grid, CouplingSpec(g=1.0))
    joint = readout_joint(apply_interaction(make_composite(dg, 1.0, psi), 1.0))
    margin = round((grid.x[0] - dg.x[0]) / grid.dx)
    assert np.max(np.abs(joint.values[margin : margin + grid.n] - expected)) < 1e-6
