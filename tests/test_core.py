import math
import re

import numpy as np
import pytest

import oracles
from conftest import random_state
from phaselab import (
    Basis,
    EnvelopeError,
    Observable,
    WaveFunction,
    coherent_state,
    expectation,
    fock_state,
    inner,
    make_grid,
    normalize,
    superpose,
    to_momentum,
    to_position,
)
from phaselab.core import (
    Grid,
    ResolutionError,
    as_momentum,
    check_resolved,
    fourier_sum,
    gaussian_window,
)


class TestMakeGrid:
    def test_spacings(self):
        g = make_grid(256, -16, 16)
        assert g.dx == pytest.approx(0.125)
        assert g.dp == pytest.approx(2 * math.pi / 32)

    def test_small_grid(self):
        g = make_grid(16, -4, 4)
        assert g.dx == pytest.approx(0.5)
        assert g.dp == pytest.approx(math.pi / 4)

    def test_conjugacy_exact(self):
        g = make_grid(64, -5, 11)
        assert g.dx * g.dp * g.n == pytest.approx(2 * math.pi, abs=1e-14)
        assert g.p[g.n // 2] == 0.0
        assert np.all(np.diff(g.p) > 0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            make_grid(100, -8, 8)

    def test_rejects_domain_without_origin(self):
        with pytest.raises(ValueError):
            make_grid(64, 1, 9)

    @pytest.mark.parametrize("x_min, x_max", [(-8, math.inf), (-math.inf, 8), (math.nan, 8)])
    def test_rejects_non_finite_domain(self, x_min, x_max):
        with pytest.raises(ValueError, match="must be finite"):
            make_grid(64, x_min, x_max)


class TestCoherentState:
    def test_vacuum_amplitudes(self, grid, vacuum):
        expected = math.pi**-0.25 * np.exp(-grid.x**2 / 2)
        assert np.max(np.abs(vacuum.amp - expected)) < 1e-12

    def test_centers(self, grid):
        psi = coherent_state(grid, 2.0, 1.0, 1.0)
        assert expectation(psi, Observable.X) == pytest.approx(2.0, abs=1e-6)
        assert expectation(psi, Observable.P) == pytest.approx(1.0, abs=1e-6)

    def test_wide_state_variance(self, grid):
        psi = coherent_state(grid, 0.0, 0.0, 4.0)
        var = oracles.quadrature_moment(psi.amp, grid.x, 2)
        assert var == pytest.approx(2.0, abs=1e-6)

    def test_envelope_rejection(self, grid):
        with pytest.raises(EnvelopeError):
            coherent_state(grid, 14.0, 0.0, 1.0)

    @pytest.mark.parametrize("x0, p0", [(40.0, 0.0), (-16.5, 0.0), (16.0, 0.0), (0.0, 30.0),
                                        (0.0, -26.0), (-1e300, 0.0)])
    def test_rejects_centre_outside_the_lattice(self, grid, x0, p0):
        # [-16, 16) x [-8*pi, 8*pi): the edge test would read the Gaussian's tail as its peak
        with pytest.raises(EnvelopeError, match="centre .* outside the lattice"):
            coherent_state(grid, x0, p0, 1.0)

    def test_rejects_bad_delta(self, grid):
        with pytest.raises(ValueError):
            coherent_state(grid, 0.0, 0.0, -1.0)

    @pytest.mark.parametrize("x0, p0, delta", [
        (math.nan, 0.0, 1.0), (0.0, math.inf, 1.0), (0.0, 0.0, math.nan), (0.0, 0.0, math.inf),
    ])
    def test_rejects_non_finite_parameters(self, grid, x0, p0, delta):
        with pytest.raises(ValueError, match="finite"):
            coherent_state(grid, x0, p0, delta)

    @pytest.mark.parametrize("delta", [0.25, 1.0, 4.0])
    def test_heisenberg_product(self, grid, delta):
        psi = coherent_state(grid, 0.5, -0.5, delta)
        var_x = expectation(psi, Observable.X2) - expectation(psi, Observable.X) ** 2
        var_p = expectation(psi, Observable.P2) - expectation(psi, Observable.P) ** 2
        assert var_x * var_p == pytest.approx(0.25, abs=1e-5)


class TestFockState:
    def test_vacuum_is_ground_state(self, grid, vacuum):
        assert np.max(np.abs(fock_state(grid, 0).amp - vacuum.amp)) < 1e-10

    def test_odd_parity(self, grid):
        psi = fock_state(grid, 1)
        assert abs(psi.amp[np.argmin(np.abs(grid.x))]) < 1e-12

    def test_orthogonality(self, grid):
        assert abs(inner(fock_state(grid, 2), fock_state(grid, 3))) < 1e-8

    def test_all_normalized_and_orthogonal(self, grid):
        states = [fock_state(grid, m) for m in range(10)]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                expected = 1.0 if i == j else 0.0
                assert abs(inner(a, b) - expected) < 1e-8

    def test_rejects_out_of_range(self, grid):
        with pytest.raises(ValueError):
            fock_state(grid, 25)
        with pytest.raises(ValueError):
            fock_state(grid, -1)

    def test_envelope_rejection_small_grid(self):
        g = make_grid(16, -2, 2)
        with pytest.raises(EnvelopeError):
            fock_state(g, 5)


class TestSuperpose:
    def test_identity_case(self, grid, vacuum):
        out = superpose(1.0, vacuum, 0.0, fock_state(grid, 1))
        assert np.max(np.abs(out.amp - vacuum.amp)) < 1e-12

    def test_idempotent_renormalization(self, grid, vacuum):
        out = superpose(1.0, vacuum, 1.0, vacuum)
        assert np.max(np.abs(out.amp - vacuum.amp)) < 1e-12

    def test_cat_norm(self, grid):
        cat = superpose(
            1.0, coherent_state(grid, -3, 0, 1), 1.0, coherent_state(grid, 3, 0, 1)
        )
        assert cat.norm() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_zero_result(self, grid, vacuum):
        with pytest.raises(ValueError):
            superpose(1.0, vacuum, -1.0, vacuum)


class TestTransforms:
    def test_roundtrip_random_states(self, grid, rng):
        for _ in range(100):
            psi = random_state(grid, rng)
            back = to_position(to_momentum(psi))
            assert np.max(np.abs(back.amp - psi.amp)) < 1e-10

    def test_parseval(self, grid, rng):
        for _ in range(20):
            psi = random_state(grid, rng)
            assert abs(to_momentum(psi).norm() - psi.norm()) < 1e-10

    def test_momentum_gaussian(self, grid, vacuum):
        phi = to_momentum(vacuum)
        var = oracles.quadrature_moment(phi.amp, grid.p, 2)
        assert var == pytest.approx(0.5, abs=1e-6)

    def test_shift_theorem_peak(self, grid):
        p0 = 2.0
        phi = to_momentum(coherent_state(grid, 0, p0, 1.0))
        peak = grid.p[np.argmax(np.abs(phi.amp))]
        assert abs(peak - p0) <= grid.dp / 2 + 1e-12

    def test_basis_tag_enforced(self, grid, vacuum):
        with pytest.raises(ValueError):
            to_position(vacuum)
        with pytest.raises(ValueError):
            to_momentum(to_momentum(vacuum))

    def test_conjugacy_check_on_a_fine_offset_lattice(self):
        # the device lattice of n = 1024 on [-15, 17.3) at g = 0.08, delta_device = 4:
        # x[1] - x[0] is off by about 1.4e-12 relative, more than the check's tolerance
        g = Grid(n=12808, x_min=-16.06809375, dx=0.0025234374999999996)
        f = np.exp(-(g.x**2))
        back = fourier_sum(fourier_sum(f, g.x, g.p, 1.0, sign=-1), g.p, g.x, 1.0 / g.n, sign=+1)
        # the output phase still steps by x[1] - x[0]: about 1e-8 after the round trip
        assert np.max(np.abs(back - f)) < 1e-6
        with pytest.raises(ValueError, match="not Fourier-conjugate"):
            fourier_sum(f, g.x, g.p * (1.0 + 1e-9), 1.0, sign=-1)

    def test_lattice_shift_is_pure_phase(self, grid, rng):
        psi = random_state(grid, rng)
        rolled = WaveFunction(grid, Basis.POSITION, np.roll(psi.amp, 5))
        a = np.abs(to_momentum(psi).amp)
        b = np.abs(to_momentum(rolled).amp)
        assert np.max(np.abs(a - b)) < 1e-12


class TestInner:
    def test_self_inner(self, grid, rng):
        for _ in range(5):
            psi = random_state(grid, rng)
            assert abs(inner(psi, psi) - 1.0) < 1e-9

    def test_fock_orthogonality(self, grid):
        assert abs(inner(fock_state(grid, 0), fock_state(grid, 1))) < 1e-8

    def test_gaussian_overlap(self, grid):
        a = coherent_state(grid, 0, 0, 1)
        b = coherent_state(grid, 3, 0, 1)
        assert abs(inner(a, b)) == pytest.approx(math.exp(-9 / 4), abs=1e-6)

    def test_grid_mismatch(self, grid, vacuum):
        other = coherent_state(make_grid(128, -16, 16), 0, 0, 1)
        with pytest.raises(ValueError):
            inner(vacuum, other)


class TestExpectation:
    def test_coherent_center(self, grid):
        psi = coherent_state(grid, 2, 1, 1)
        assert expectation(psi, Observable.X) == pytest.approx(2.0, abs=1e-6)

    def test_fock1_number(self, grid):
        assert expectation(fock_state(grid, 1), Observable.NUMBER) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_vacuum_x2(self, grid, vacuum):
        assert expectation(vacuum, Observable.X2) == pytest.approx(0.5, abs=1e-6)

    def test_momentum_basis_input(self, grid, vacuum):
        phi = to_momentum(vacuum)
        assert expectation(phi, Observable.X2) == pytest.approx(0.5, abs=1e-9)


def test_constructors_normalized(grid, rng):
    for _ in range(20):
        assert abs(random_state(grid, rng).norm() - 1.0) < 1e-9


def test_resolution_check_on_a_huge_spacing():
    # 4*dx**2 overflows: the check still ends in a ResolutionError naming delta and dx
    with pytest.raises(ResolutionError, match=r"delta = 1 under-resolved on spacing dx = 1e\+299"):
        check_resolved(Grid(n=256, x_min=-1.6e301, dx=1e299), 1.0)


@pytest.mark.parametrize("delta", [1e308, 6e307])
def test_resolution_check_refuses_a_vanishing_prefactor(grid, delta):
    # delta*pi overflows, so (delta*pi)^(-1/2) = 0 and every Husimi value would be 0
    with pytest.raises(ResolutionError, match=r"delta = .* too large: delta\*pi overflows"):
        check_resolved(grid, delta)


def test_resolution_check_keeps_a_huge_finite_prefactor(grid):
    check_resolved(grid, 5e307)  # delta*pi = 1.6e308 is finite


@pytest.mark.parametrize("delta", [1e-300, 1e-20, 0.125, 1.0, 3.0, 1e20, 1e300, 1.7e308])
def test_gaussian_window_has_the_bits_of_the_plain_expression(delta):
    """The in-place window against exp(-((c - x)**2) / (2*delta)), (k, 1) against
    (n,) as its callers broadcast: the same bits for every input where the plain
    expression is not NaN, signed zeros and (c - x)**2 overflowing to inf
    included; where it is NaN (a NaN input, or inf/inf at the widest delta), NaN."""
    spans = 10.0 ** np.random.default_rng(5).uniform(-200, 200, 64)
    centers = np.concatenate([[0.0, -0.0, 5e-324, 1.5, 1e154, 1.4e154, 1e200, 1.7e308], spans])
    centers = np.concatenate([centers, -centers])
    x = np.array([0.0, -0.0, 0.3, -2.5, 1e-300, 1e200, -1.7e308, math.nan])[:, None]
    with np.errstate(all="ignore"):
        got = gaussian_window(centers, x, delta)
        want = np.exp(-((centers - x) ** 2) / (2 * delta))
    nan = np.isnan(want)
    assert got.shape == want.shape == (x.size, centers.size)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


# Each refusal of core that no other test reaches: (call on the 256-point
# grid and its vacuum, message).
REFUSALS = {
    "wrong-shape-amp": (lambda g, psi: WaveFunction(g, Basis.POSITION, np.ones(g.n - 1)),
                        "amplitude array has shape (255,), expected (256,)"),
    "zero-state": (lambda g, psi: normalize(WaveFunction(g, Basis.POSITION, np.zeros(g.n))),
                   "cannot normalize a zero state"),
    "superpose-across-grids": (
        lambda g, psi: superpose(1.0, psi, 1.0, coherent_state(make_grid(128, -16.0, 16.0), 0, 0)),
        "superpose requires the same grid and basis"),
    "unknown-observable": (lambda g, psi: expectation(psi, "q"), "unsupported observable q"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_name_their_cause(grid, vacuum, case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(grid, vacuum)
