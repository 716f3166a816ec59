import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_state
from phaselab import (
    CouplingSpec,
    apply_interaction,
    coherent_state,
    device_grid_for,
    husimi,
    make_composite,
    make_grid,
    pointer_vs_direct,
    readout_joint,
    superpose,
    weak_rescale,
)
from phaselab.core import (
    EDGE_DECAY,
    Basis,
    EnvelopeError,
    Grid,
    ResolutionError,
    WaveFunction,
    as_momentum,
    gaussian_window,
)
from phaselab.pointer import MAX_DEVICE_CELLS

@pytest.fixture(scope="module")
def sys_grid():
    return make_grid(256, -16.0, 16.0)


@pytest.fixture(scope="module")
def dev_grid():
    # fixed device grid wide enough for unit coupling with the default system
    return make_grid(512, -32.0, 32.0)


# System lattices of 256 points: two domains around the origin, two beside it.
SYSTEM_GRIDS = {
    "whole": make_grid(256, -16.0, 16.0),
    "fractional": make_grid(256, -15.0, 17.3),
    "right-of-origin": Grid(n=256, x_min=4.0, dx=0.125),
    "left-of-origin": Grid(n=256, x_min=-36.0, dx=0.125),
}


class TestDeviceGridFor:
    @pytest.mark.parametrize("name", SYSTEM_GRIDS)
    @pytest.mark.parametrize("delta", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("g", [1.0, 0.5, 0.3, 0.1, 0.05])
    def test_margin_reaches_edge_decay(self, g, delta, name):
        sg = SYSTEM_GRIDS[name]
        dg = device_grid_for(sg, CouplingSpec(g=g, delta_device=delta))
        assert dg.dx == pytest.approx(g * sg.dx, rel=1e-15)
        # whole cells to the left of the system lattice scaled by g; the rows
        # after them, rescaled by 1/g, are the system lattice
        left = (g * sg.x_min - dg.x_min) / dg.dx
        assert left == pytest.approx(round(left), abs=1e-9)
        left = round(left)
        assert np.allclose(dg.x[left : left + sg.n] / g, sg.x, rtol=0.0, atol=1e-9)
        # the device Gaussian, centred on 0 before the coupling and on g*x after
        # it, has fallen to EDGE_DECAY at both edges but not one cell inside them
        centers = np.array([0.0, g * sg.x[0], g * sg.x[-1]])[:, None]
        assert np.all(gaussian_window(centers, dg.x[[0, -1]], delta) <= EDGE_DECAY)
        assert np.all(gaussian_window(centers, dg.x[[1, -2]], delta).max(axis=0) > EDGE_DECAY)
        if sg.x_min < 0.0 < sg.x_max:
            margin = math.ceil(math.sqrt(2.0 * delta * math.log(1.0 / EDGE_DECAY)) / (g * sg.dx))
            assert (left, dg.n) == (margin, sg.n + 2 * margin)

    def test_too_weak_coupling_stops_before_allocating(self, sys_grid):
        spec = CouplingSpec(g=1e-9)
        with pytest.raises(ValueError, match=f"exceeds {MAX_DEVICE_CELLS}"):
            device_grid_for(sys_grid, spec)
        vac = coherent_state(sys_grid, 0, 0, 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="device lattice"):
                pointer_vs_direct(vac, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("g, delta", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                          (1.0, math.inf), (0.0, 1.0)])
    def test_coupling_spec_rejects_non_finite_or_non_positive(self, g, delta):
        with pytest.raises(ValueError, match="must be positive and finite"):
            CouplingSpec(g=g, delta_device=delta)


class TestMakeComposite:
    def test_product_structure(self, sys_grid, dev_grid):
        vac = coherent_state(sys_grid, 0, 0, 1)
        comp = make_composite(dev_grid, 1.0, vac)
        assert comp.norm() == pytest.approx(1.0, abs=1e-9)
        # rank-1 product: every column proportional to the device envelope
        col0 = comp.amp[:, 128]
        col1 = comp.amp[:, 100]
        ratio = vac.amp[100] / vac.amp[128]
        assert np.max(np.abs(col1 - ratio * col0)) < 1e-12

    def test_device_marginal_variance(self, sys_grid, dev_grid):
        delta = 2.0
        comp = make_composite(dev_grid, delta, coherent_state(sys_grid, 0, 0, 1))
        dens = np.sum(np.abs(comp.amp) ** 2, axis=1) * sys_grid.dx
        var = float(np.sum(dev_grid.x**2 * dens) * dev_grid.dx)
        assert var == pytest.approx(delta / 2, abs=1e-6)

    def test_envelope_rejection(self, sys_grid):
        tiny = make_grid(16, -2, 2)
        with pytest.raises(EnvelopeError):
            make_composite(tiny, 4.0, coherent_state(sys_grid, 0, 0, 1))


class TestApplyInteraction:
    def test_zero_coupling_is_identity(self, sys_grid, dev_grid, rng):
        comp = make_composite(dev_grid, 1.0, random_state(sys_grid, rng))
        out = apply_interaction(comp, 0.0)
        assert np.max(np.abs(out.amp - comp.amp)) < 1e-12

    def test_device_shifts_by_system_position(self, sys_grid, dev_grid):
        # narrow system state near x0: the device marginal shifts by ~ g*x0
        x0, g = 3.0, 1.0
        narrow = coherent_state(sys_grid, x0, 0.0, 0.1)
        comp = apply_interaction(make_composite(dev_grid, 1.0, narrow), g)
        dens = np.sum(np.abs(comp.amp) ** 2, axis=1) * sys_grid.dx
        mean = float(np.sum(dev_grid.x * dens) * dev_grid.dx)
        assert mean == pytest.approx(g * x0, abs=1e-3)

    def test_unitarity_random_couplings(self, sys_grid, dev_grid, rng):
        comp = make_composite(dev_grid, 1.0, random_state(sys_grid, rng))
        for g in rng.uniform(0.05, 2.0, size=5):
            assert abs(apply_interaction(comp, float(g)).norm() - 1.0) < 1e-12

    def test_off_grid_shift_rejected(self, sys_grid):
        small_dev = make_grid(64, -4, 4)
        psi = coherent_state(sys_grid, 3.0, 0.0, 0.25)
        comp = make_composite(small_dev, 0.25, psi)
        with pytest.raises(EnvelopeError):
            apply_interaction(comp, 2.0)

    def test_weakness_monotone(self, sys_grid, dev_grid, rng):
        psi = random_state(sys_grid, rng)
        initial = make_composite(dev_grid, 1.0, psi)
        ref = np.sum(np.abs(initial.amp) ** 2, axis=1) * sys_grid.dx
        l1 = []
        for g in (1.0, 0.3, 0.1):
            out = apply_interaction(initial, g)
            dens = np.sum(np.abs(out.amp) ** 2, axis=1) * sys_grid.dx
            l1.append(float(np.sum(np.abs(dens - ref)) * dev_grid.dx))
        assert l1[0] > l1[1] > l1[2]


class TestReadoutJoint:
    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_unit_coupling_reproduces_husimi(self, sys_grid, dev_grid, rng, delta):
        psi = random_state(sys_grid, rng)
        comp = apply_interaction(make_composite(dev_grid, delta, psi), 1.0)
        joint = readout_joint(comp)
        ref = husimi(psi, delta)
        # device lattice spans twice the system lattice; compare the overlap
        margin = round((sys_grid.x[0] - dev_grid.x[0]) / sys_grid.dx)
        block = joint.values[margin : margin + sys_grid.n, :]
        assert np.max(np.abs(block - ref.values)) < 1e-6

    def test_uncoupled_factorizes(self, sys_grid, dev_grid, rng):
        psi = random_state(sys_grid, rng)
        comp = make_composite(dev_grid, 1.0, psi)
        joint = readout_joint(comp)
        dev_dens = np.sum(np.abs(comp.amp) ** 2, axis=1) * sys_grid.dx
        prod = np.outer(dev_dens, as_momentum(psi).density())
        assert np.max(np.abs(joint.values - prod)) < 1e-10

    def test_normalization(self, sys_grid, dev_grid, rng):
        psi = random_state(sys_grid, rng)
        joint = readout_joint(apply_interaction(make_composite(dev_grid, 1.0, psi), 1.0))
        assert joint.normalization() == pytest.approx(1.0, abs=1e-6)


class TestWeakRescale:
    def test_identity_at_unit_coupling(self, sys_grid, dev_grid, rng):
        joint = readout_joint(
            apply_interaction(make_composite(dev_grid, 1.0, random_state(sys_grid, rng)), 1.0)
        )
        out = weak_rescale(joint, 1.0)
        assert np.array_equal(out.values, joint.values)
        assert np.array_equal(out.x, joint.x)

    def test_half_coupling_maps_to_delta_four(self, sys_grid, rng):
        psi = random_state(sys_grid, rng)
        spec = CouplingSpec(g=0.5, delta_device=1.0)
        dg = device_grid_for(sys_grid, spec)
        joint = weak_rescale(
            readout_joint(apply_interaction(make_composite(dg, 1.0, psi), 0.5)), 0.5
        )
        ref = husimi(psi, 4.0)
        margin = round((sys_grid.x[0] - joint.x[0]) / sys_grid.dx)
        block = joint.values[margin : margin + sys_grid.n, :]
        assert np.max(np.abs(block - ref.values)) < 1e-5

    def test_normalization_preserved(self, sys_grid, dev_grid, rng):
        joint = readout_joint(
            apply_interaction(make_composite(dev_grid, 1.0, random_state(sys_grid, rng)), 0.8)
        )
        out = weak_rescale(joint, 0.8)
        assert abs(out.normalization() - joint.normalization()) < 1e-8

    def test_rejects_zero_coupling(self, sys_grid, dev_grid, vacuum):
        joint = readout_joint(make_composite(dev_grid, 1.0, vacuum))
        with pytest.raises(ValueError):
            weak_rescale(joint, 0.0)


class TestPointerVsDirect:
    def test_vacuum(self, sys_grid):
        vac = coherent_state(sys_grid, 0, 0, 1)
        assert pointer_vs_direct(vac, CouplingSpec(g=1.0, delta_device=1.0)) < 1e-5

    def test_fock1(self, sys_grid):
        from phaselab import fock_state

        assert pointer_vs_direct(fock_state(sys_grid, 1), CouplingSpec(g=1.0)) < 1e-5

    def test_cat_weak_regime(self, sys_grid):
        cat = superpose(
            1.0, coherent_state(sys_grid, -2, 0, 1), 1.0, coherent_state(sys_grid, 2, 0, 1)
        )
        assert pointer_vs_direct(cat, CouplingSpec(g=0.5, delta_device=1.0)) < 1e-5

    # The (n, g, delta_device) runs of the weak-coupling sweep whose power-of-two
    # device lattice stopped short of EDGE_DECAY, and one control that never did.
    @pytest.mark.parametrize("n, g, delta", [
        (256, 0.2, 1.0),
        (256, 0.08, 2.0),
        (256, 0.05, 4.0),
        (256, 0.02, 0.5),
        (256, 0.02, 2.0),
        (1024, 0.08, 2.0),
    ])
    def test_weak_coupling(self, n, g, delta):
        vac = coherent_state(make_grid(n, -16.0, 16.0), 0, 0, 1)
        assert pointer_vs_direct(vac, CouplingSpec(g=g, delta_device=delta)) < 1e-12

    @pytest.mark.parametrize("name", ["right-of-origin", "left-of-origin"])
    @pytest.mark.parametrize("g", [1.0, 0.5])
    def test_domain_beside_the_origin(self, name, g):
        # the device Gaussian starts at 0, outside the g-scaled system lattice
        sg = SYSTEM_GRIDS[name]
        psi = coherent_state(sg, sg.x_min + 16.0, 0.5, 1)
        assert pointer_vs_direct(psi, CouplingSpec(g=g, delta_device=1.0)) < 1e-12

    def test_under_resolved_device_lattice(self):
        # device spacing g*dx = 0.505 > sqrt(delta_device)/2: the device Gaussian
        # is too narrow for its lattice, however wide that lattice is
        grid = make_grid(64, -15.0, 17.3)
        psi = WaveFunction(grid, Basis.POSITION, np.exp(-(grid.x**2) / 2.0))
        with pytest.raises(ResolutionError, match="under-resolved"):
            pointer_vs_direct(psi, CouplingSpec(g=1.0, delta_device=1.0))
