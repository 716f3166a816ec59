"""The pointer coupling and the characteristic family as lattice translations,
against the momentum-phase kernels they replaced, and the row-blocked
phase-space kernels against the whole-array kernels they replaced (all kept
in oracles)."""


import numpy as np
import pytest

import oracles
from conftest import traced_peak
from phaselab import (
    CompositeWaveFunction,
    CouplingSpec,
    apply_interaction,
    characteristic,
    coherent_state,
    device_grid_for,
    husimi,
    make_composite,
    make_grid,
    normalize,
    pointer_vs_direct,
    readout_joint,
    weak_rescale,
    wigner,
)
from phaselab import measurement, phasespace, pointer
from phaselab.core import Basis, Grid, WaveFunction, gaussian_window

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


def test_non_commensurate_coupling_is_the_sampled_shift(grid, rng):
    """Where r = g*dx/dx_dev is not whole the gather samples the device
    Gaussian at x_dev - g*x_sys itself: within round-off of that sampling
    (the momentum-phase kernel read 2.7e-12 here) and within 1e-9 of the
    momentum-phase kernel."""
    from conftest import random_state

    dev = make_grid(512, -32.0, 32.0)
    comp = make_composite(dev, 1.0, random_state(grid, rng))
    for g in (0.05, 0.3, 0.75, 1.3, 1.9):
        amp = apply_interaction(comp, g).amp
        assert _rel(amp, oracles.apply_interaction_reference(comp, g)) <= 1e-9
        assert _rel(amp, oracles.apply_interaction_sampled(comp, g)) <= 1e-14


def test_non_commensurate_coupling_never_uses_fourier_sum(grid, monkeypatch, rng):
    from conftest import random_state

    def disabled(*args, **kwargs):
        raise AssertionError("the coupling called fourier_sum")

    comp = make_composite(make_grid(512, -32.0, 32.0), 1.0, random_state(grid, rng))
    monkeypatch.setattr(pointer, "fourier_sum", disabled)
    for g in (0.05, 0.3, 1.3):
        assert _rel(apply_interaction(comp, g).amp, oracles.apply_interaction_sampled(comp, g)) <= 1e-14


@pytest.mark.parametrize("g", [0.05, 1.3])
def test_non_commensurate_coupling_peak_memory(grid, g):
    # the 4096 x 256 complex128 output is 16 MiB; the momentum-phase kernel in
    # column blocks peaked at 40.3 MiB
    comp = make_composite(make_grid(4096, -32.0, 32.0), 1.0, _state(grid))
    assert traced_peak(lambda: apply_interaction(comp, g)) < 28 * 2**20


def test_pointer_peak_memory():
    psi = _state(make_grid(1024, -16.0, 16.0))
    assert traced_peak(lambda: pointer_vs_direct(psi, CouplingSpec(g=0.5))) < 128 * 2**20  # the device lattice holds 1976 x 1024 complex128, 31 MiB


# (n, domain, g, delta_device); the whole composite of the fractional n = 1024
# lattice at g = 0.08 would take the reference about 1 GiB.
POINTER_CASES = [(n, domain, g, dd) for n in (256, 1024) for domain in DOMAINS
                 for g, dd in ((1.0, 1.0), (0.5, 1.0), (0.08, 4.0))
                 if not (n == 1024 and domain in FRACTIONAL and g == 0.08)]


def _whole_composite_deviation(psi, spec):
    """The deviation of the whole composite that ``apply_interaction`` couples,
    read out on its n readout rows in one transform."""
    sg = psi.grid
    dg = device_grid_for(sg, spec)
    amp = apply_interaction(make_composite(dg, spec.delta_device, psi), spec.g).amp
    left = round((spec.g * sg.x_min - dg.x_min) / dg.dx)
    rows = CompositeWaveFunction(Grid(n=sg.n, x_min=float(dg.x[left]), dx=dg.dx), sg,
                                 amp[left : left + sg.n], spec.delta_device)
    joint = weak_rescale(readout_joint(rows), spec.g).values
    direct = oracles.successive_density_whole(psi, spec.delta_device / spec.g**2)
    return float(np.max(np.abs(joint - direct)))


@pytest.mark.parametrize("n, domain, g, delta_device", POINTER_CASES)
def test_pointer_rows_match_the_whole_composite(n, domain, g, delta_device):
    """Coupling only the readout rows, in row blocks, gives the deviation of
    the whole coupled composite bit for bit.  On a centred domain that is also
    the deviation of the whole-composite reference; on an offset domain the
    shifted device Gaussian deviates no more than its momentum-phase kernel."""
    psi = _state(make_grid(n, *domain))
    spec = CouplingSpec(g=g, delta_device=delta_device)
    deviation = pointer_vs_direct(psi, spec)
    assert deviation == _whole_composite_deviation(psi, spec)
    reference = oracles.pointer_vs_direct_reference(psi, spec)
    if domain in FRACTIONAL:
        assert deviation <= reference
    else:
        assert deviation == reference


# The momentum-phase kernel read 6.9e-15 to 1.3e-13 here; the shifted Gaussian
# has no interpolation round-off.
@pytest.mark.parametrize("g, delta_device", [(1.0, 1.0), (0.5, 1.0), (0.08, 4.0)])
@pytest.mark.parametrize("n", [256, 1024])
def test_offset_domain_deviation(n, g, delta_device):
    psi = _state(make_grid(n, *FRACTIONAL[0]))
    assert pointer_vs_direct(psi, CouplingSpec(g=g, delta_device=delta_device)) < 1e-15


@pytest.mark.parametrize("domain, g, delta_device, bound_mib", [
    ((-16.0, 16.0), 0.08, 4.0, 48),  # the whole composite: n_d = 12920, 505 MiB
    ((-15.0, 17.3), 0.5, 1.0, 64),  # the momentum-phase route on all columns: 123 MiB
    ((-15.0, 17.3), 0.08, 4.0, 48),  # the momentum-phase route in column blocks: 150 MiB
])
def test_pointer_peak_memory_by_blocks(domain, g, delta_device, bound_mib):
    psi = _state(make_grid(1024, *domain))
    spec = CouplingSpec(g=g, delta_device=delta_device)
    assert traced_peak(lambda: pointer_vs_direct(psi, spec)) < bound_mib * 2**20


def test_coupling_never_uses_the_direct_route(grid, monkeypatch, rng):
    """The pointer route stays independent of the operator route it is
    compared with: coupling and readout run with that route disabled, and on
    an offset domain the shifted device Gaussian comes from the window."""
    from conftest import random_state

    states = [random_state(sg, rng) for sg in (grid, make_grid(256, *FRACTIONAL[0]))]
    expected = [husimi(psi, 1.0).values for psi in states]

    def disabled(*args, **kwargs):
        raise AssertionError("the pointer route called the direct route")

    centers = []

    def window(c, x, delta):
        centers.append(x)
        return gaussian_window(c, x, delta)

    monkeypatch.setattr(measurement, "_m_diag", disabled)
    monkeypatch.setattr(phasespace, "husimi", disabled)
    monkeypatch.setattr(pointer, "successive_density", disabled)
    monkeypatch.setattr(pointer, "gaussian_window", window)
    for psi, values in zip(states, expected):
        sg = psi.grid
        dg = device_grid_for(sg, CouplingSpec(g=1.0))
        centers.clear()
        joint = readout_joint(apply_interaction(make_composite(dg, 1.0, psi), 1.0))
        margin = round((sg.x[0] - dg.x[0]) / sg.dx)
        assert np.max(np.abs(joint.values[margin : margin + sg.n] - values)) < 1e-6
        # make_composite's Gaussian at 0, then on the offset domain the shifted one
        assert centers[0] == 0.0 and len(centers) == (1 if sg is grid else 2)
        assert 0.0 not in centers[1:]


def _same_bits(a, b):
    """Equal shapes and equal bits, NaN and inf included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                                      b.view(np.uint64))


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("n", SIZES)
class TestRowBlocksAgainstWholeArrays:
    def test_husimi(self, n, domain):
        psi = _state(make_grid(n, *domain))
        assert _same_bits(husimi(psi, 2.0).values, oracles.husimi_whole(psi, 2.0))

    def test_wigner(self, n, domain):
        psi = _state(make_grid(n, *domain))
        assert _same_bits(wigner(psi).values, oracles.wigner_whole(psi)[0])

    @pytest.mark.parametrize("s", [-1.0, 0.0, 1.0])
    def test_characteristic(self, n, domain, s):
        psi = _state(make_grid(n, *domain))
        got, ref = characteristic(psi, s).values, oracles.characteristic_whole(psi, s)
        assert _same_bits(got, ref) and got.strides == ref.strides
        # at s = 1 and n = 1024 exp((u^2 + v^2)/4) overflows at the lattice corners
        assert np.isfinite(ref).all() == (s < 1.0 or n < 1024)


KERNELS = {
    "husimi": lambda psi: husimi(psi, 1.0),
    "wigner": wigner,
    "characteristic": lambda psi: characteristic(psi, -1.0),
}


# The whole-array kernels peaked at 48 MiB at n = 1024 and 192 MiB at n = 2048:
# three n x n complex128 temporaries.  In blocks the peak is the n x n output
# (and, for a PhaseSpaceGrid, its copy) plus a few 128 x n blocks.
@pytest.mark.parametrize("name, n, domain, bound_mib", [
    ("husimi", 1024, (-16.0, 16.0), 24),
    ("wigner", 1024, (-16.0, 16.0), 24),
    ("characteristic", 1024, (-16.0, 16.0), 28),
    ("husimi", 2048, (-32.0, 32.0), 96),
    ("wigner", 2048, (-32.0, 32.0), 96),
    ("characteristic", 2048, (-32.0, 32.0), 96),
])
def test_kernel_peak_memory_by_row_blocks(name, n, domain, bound_mib):
    psi = coherent_state(make_grid(n, *domain), 0.5, -0.5, 1.0)
    assert traced_peak(lambda: KERNELS[name](psi)) < bound_mib * 2**20


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("g, delta_device", [(1.0, 1.0), (0.5, 1.0), (0.08, 4.0)])
def test_row_blocks_are_one_gather_of_every_row(domain, g, delta_device):
    """``apply_interaction`` fills its output BLOCK rows at a time with the
    bits of one gather of all n_d rows; no lattice here is whole blocks."""
    psi = _state(make_grid(256, *domain))
    dg = device_grid_for(psi.grid, CouplingSpec(g=g, delta_device=delta_device))
    comp = make_composite(dg, delta_device, psi)
    whole = pointer._row_gather(comp, g)(np.arange(dg.n))
    assert dg.n % pointer.BLOCK and _same_bits(apply_interaction(comp, g).amp, whole)


def test_apply_interaction_peak_memory_by_row_blocks():
    # the 1976 x 1024 complex128 output is 31 MiB; the bound leaves room for
    # a few BLOCK x n blocks, not for an n_d x n int64 index array (15 MiB)
    psi = _state(make_grid(1024, -16.0, 16.0))
    dg = device_grid_for(psi.grid, CouplingSpec(g=0.5))
    comp = make_composite(dg, 1.0, psi)
    assert traced_peak(lambda: apply_interaction(comp, 0.5)) < 40 * 2**20
