import math
import re

import numpy as np
import pytest

import oracles
from conftest import random_state, traced_peak
from phaselab import (
    Observable,
    characteristic,
    coherent_state,
    expectation,
    fock_state,
    husimi,
    husimi_via_characteristic,
    make_grid,
    marginal,
    normalize,
    observable_wigner,
    q_moment,
    superpose,
    trace_product,
    wigner,
)
from phaselab.core import Basis, ResolutionError, WaveFunction, as_momentum
from phaselab.phasespace import (
    CharacteristicGrid,
    DistributionKind,
    PhaseSpaceGrid,
    MarginalAxis,
    invert_characteristic,
    moment_correction,
)

# Domain per lattice size for the reference comparisons: wide enough that
# coherent components centred within |x0|, |p0| <= 2 decay at both edges.
REFERENCE_DOMAINS = {64: 10.0, 256: 16.0, 1024: 16.0}


def origin_index(grid):
    return int(np.argmin(np.abs(grid.x))), grid.n // 2


class TestCharacteristic:
    def test_origin_is_trace(self, grid, rng):
        for s in (-1.0, 0.0, 1.0):
            psi = random_state(grid, rng)
            cg = characteristic(psi, s)
            iv = int(np.argmin(np.abs(cg.v)))
            assert abs(cg.values[grid.n // 2, iv] - 1.0) < 1e-9

    def test_vacuum_s0(self, grid, vacuum):
        cg = characteristic(vacuum, 0.0)
        ref = np.exp(-(cg.u[:, None] ** 2 + cg.v[None, :] ** 2) / 4)
        assert np.max(np.abs(cg.values - ref)) < 1e-6

    def test_vacuum_s_minus_one(self, grid, vacuum):
        cg = characteristic(vacuum, -1.0)
        ref = np.exp(-(cg.u[:, None] ** 2 + cg.v[None, :] ** 2) / 2)
        assert np.max(np.abs(cg.values - ref)) < 1e-6

    def test_hermitian_symmetry(self, grid, rng):
        psi = random_state(grid, rng)
        cg = characteristic(psi, 0.0)
        # symmetric grid: u_{n-j} = -u_j and v_{n-m} = -v_m for interior indices
        vals = cg.values[1:, 1:]
        flipped = np.conj(vals[::-1, ::-1])
        assert np.max(np.abs(vals - flipped)) < 1e-9

    def test_rejects_s_out_of_range(self, grid, vacuum):
        with pytest.raises(ValueError):
            characteristic(vacuum, 1.5)


class TestWigner:
    def test_vacuum_origin_anchor(self, grid, vacuum):
        expected = oracles.wigner_point(oracles.vacuum, 0.0, 0.0)
        ix, ip = origin_index(grid)
        assert wigner(vacuum).values[ix, ip] == pytest.approx(expected, abs=1e-6)
        assert expected == pytest.approx(1 / math.pi, abs=1e-9)

    def test_fock1_negativity_anchor(self, grid):
        expected = oracles.wigner_point(oracles.fock1, 0.0, 0.0)
        ix, ip = origin_index(grid)
        assert wigner(fock_state(grid, 1)).values[ix, ip] == pytest.approx(
            expected, abs=1e-4
        )
        assert expected == pytest.approx(-1 / math.pi, abs=1e-9)

    def test_position_marginal(self, grid, rng):
        for _ in range(10):
            psi = random_state(grid, rng)
            m = marginal(wigner(psi), MarginalAxis.OVER_P)
            assert np.max(np.abs(m - psi.density())) < 1e-6

    def test_momentum_marginal(self, grid, rng):
        for _ in range(10):
            psi = random_state(grid, rng)
            m = marginal(wigner(psi), MarginalAxis.OVER_X)
            assert np.max(np.abs(m - as_momentum(psi).density())) < 1e-6

    def test_matches_characteristic_inverse(self, grid, rng):
        # arbiter for the operator-splitting phase convention
        psi = random_state(grid, rng)
        w = wigner(psi)
        via = invert_characteristic(characteristic(psi, 0.0), grid).real
        assert np.max(np.abs(w.values - via)) < 1e-6

    def test_normalization(self, grid, rng):
        psi = random_state(grid, rng)
        assert wigner(psi).normalization() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", sorted(REFERENCE_DOMAINS))
    def test_matches_lag_loop_reference(self, n, rng):
        half_width = REFERENCE_DOMAINS[n]
        g = make_grid(n, -half_width, half_width)
        states = [fock_state(g, 0), fock_state(g, 1)]
        for _ in range(3):
            amp = sum(
                (rng.normal() + 1j * rng.normal())
                * coherent_state(g, rng.uniform(-2, 2), rng.uniform(-2, 2)).amp
                for _ in range(3)
            )
            states.append(normalize(WaveFunction(g, Basis.POSITION, amp)))
        for psi in states:
            ref = oracles.wigner_reference(psi)
            assert np.max(np.abs(wigner(psi).values - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_peak_memory_order_n_squared(self):
        # the folded correlation keeps wigner's temporaries to a few n x n
        # arrays; with an n x 4n correlation array and a 2n x n interpolation
        # matrix the peak at n = 1024 is about 160 MiB
        n = 1024
        psi = coherent_state(make_grid(n, -16.0, 16.0), 0.5, -0.5, 1.0)
        assert traced_peak(lambda: wigner(psi)) < 6 * n * n * 16  # six n x n complex128 arrays, 96 MiB


class TestHusimi:
    def test_vacuum_origin_anchor(self, grid, vacuum):
        expected = oracles.husimi_point(oracles.vacuum, 0.0, 0.0, 1.0)
        ix, ip = origin_index(grid)
        assert husimi(vacuum, 1.0).values[ix, ip] == pytest.approx(expected, abs=1e-6)
        assert expected == pytest.approx(1 / (2 * math.pi), abs=1e-9)

    def test_cat_positivity(self, grid):
        cat = superpose(
            1.0, coherent_state(grid, -3, 0, 1), 1.0, coherent_state(grid, 3, 0, 1)
        )
        assert husimi(cat, 1.0).values.min() >= -1e-12

    def test_positivity_random(self, grid, rng):
        for _ in range(100):
            psi = random_state(grid, rng)
            assert husimi(psi, 1.0).values.min() >= -1e-12

    def test_normalization(self, grid, rng):
        for _ in range(5):
            psi = random_state(grid, rng)
            assert husimi(psi, 1.0).normalization() == pytest.approx(1.0, abs=1e-6)

    def test_under_resolved_delta_rejected(self, grid, vacuum):
        with pytest.raises(ResolutionError):
            husimi(vacuum, 0.01)

    def test_smoothed_wigner_relation(self, grid, rng):
        # Husimi(delta=1) equals the Wigner function convolved with the unit
        # Gaussian kernel (1/pi) exp(-(x^2 + p^2)); convolution done by FFT
        # on the lattice, independent of the windowed-transform route.
        psi = random_state(grid, rng)
        w = wigner(psi).values
        kx = np.fft.fftfreq(grid.n, grid.dx) * 2 * np.pi
        kp = np.fft.fftfreq(grid.n, grid.dp) * 2 * np.pi
        spectrum = np.fft.fft2(w)
        spectrum *= np.exp(-(kx[:, None] ** 2) / 4) * np.exp(-(kp[None, :] ** 2) / 4)
        smoothed = np.fft.ifft2(spectrum).real
        q = husimi(psi, 1.0).values
        assert np.max(np.abs(q - smoothed)) < 1e-4


class TestHusimiViaCharacteristic:
    def test_vacuum(self, grid, vacuum):
        direct = husimi(vacuum, 1.0)
        via = husimi_via_characteristic(vacuum)
        assert np.max(np.abs(direct.values - via.values)) < 1e-6

    def test_fock1(self, grid):
        f1 = fock_state(grid, 1)
        assert np.max(
            np.abs(husimi(f1, 1.0).values - husimi_via_characteristic(f1).values)
        ) < 1e-6

    def test_random_states(self, grid, rng):
        for _ in range(5):
            psi = random_state(grid, rng)
            d = np.max(np.abs(husimi(psi, 1.0).values - husimi_via_characteristic(psi).values))
            assert d < 1e-6

    def test_normalization(self, grid, rng):
        psi = random_state(grid, rng)
        assert husimi_via_characteristic(psi).normalization() == pytest.approx(
            1.0, abs=1e-6
        )


class TestMarginal:
    def test_husimi_position_marginal_is_smeared_density(self, grid, rng):
        psi = random_state(grid, rng)
        m = marginal(husimi(psi, 1.0), MarginalAxis.OVER_P)
        kernel = np.exp(-((grid.x[:, None] - grid.x[None, :]) ** 2)) / math.sqrt(math.pi)
        smeared = kernel @ (psi.density() * grid.dx)
        assert np.max(np.abs(m - smeared)) < 1e-6

    def test_marginals_sum_to_one(self, grid, rng):
        psi = random_state(grid, rng)
        q = husimi(psi, 1.0)
        assert np.sum(marginal(q, MarginalAxis.OVER_P)) * grid.dx == pytest.approx(
            1.0, abs=1e-6
        )
        assert np.sum(marginal(q, MarginalAxis.OVER_X)) * grid.dp == pytest.approx(
            1.0, abs=1e-6
        )

    def test_marginal_axis_by_value(self, grid, rng):
        w = wigner(random_state(grid, rng))
        for axis in MarginalAxis:
            assert np.array_equal(marginal(w, axis.value), marginal(w, axis))
        with pytest.raises(ValueError, match="nonsense"):
            marginal(w, "nonsense")


class TestTraceProduct:
    def test_purity(self, grid, rng):
        for _ in range(5):
            w = wigner(random_state(grid, rng))
            assert trace_product(w, w) == pytest.approx(1.0, abs=1e-5)

    def test_expectation_of_x(self, grid):
        w = wigner(coherent_state(grid, 2, 1, 1))
        assert trace_product(w, observable_wigner(grid, Observable.X)) == pytest.approx(
            2.0, abs=1e-5
        )

    def test_orthogonal_states(self, grid):
        w0 = wigner(fock_state(grid, 0))
        w1 = wigner(fock_state(grid, 1))
        assert trace_product(w0, w1) == pytest.approx(0.0, abs=1e-5)

    def test_all_observables_match_direct(self, grid, rng):
        for _ in range(10):
            psi = random_state(grid, rng)
            w = wigner(psi)
            for obs in Observable:
                via_wigner = trace_product(w, observable_wigner(grid, obs))
                assert via_wigner == pytest.approx(expectation(psi, obs), abs=1e-5)

    def test_kind_check(self, grid, vacuum):
        q = husimi(vacuum, 1.0)
        with pytest.raises(ValueError):
            trace_product(q, q)


class TestQMoment:
    def test_first_moment_no_correction(self, grid, rng):
        psi = random_state(grid, rng)
        q = husimi(psi, 1.0)
        assert moment_correction(Observable.X, 1.0) == 0.0
        assert q_moment(q, Observable.X) == pytest.approx(
            expectation(psi, Observable.X), abs=1e-5
        )

    def test_vacuum_x2(self, grid, vacuum):
        assert q_moment(husimi(vacuum, 1.0), Observable.X2) == pytest.approx(0.5, abs=1e-5)

    def test_fock1_number(self, grid):
        f1 = fock_state(grid, 1)
        assert q_moment(husimi(f1, 1.0), Observable.NUMBER) == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_correction_constancy_oracle(self, grid, rng, delta):
        # pre-build oracle: the raw-moment excess over the direct expectation
        # must be the same constant across states, and match the frozen value
        for obs in (Observable.X2, Observable.P2, Observable.NUMBER):
            excesses = []
            for _ in range(20):
                psi = random_state(grid, rng)
                q = husimi(psi, delta)
                raw = q_moment(q, obs) + moment_correction(obs, delta)
                excesses.append(raw - expectation(psi, obs))
            excesses = np.asarray(excesses)
            assert np.max(np.abs(excesses - excesses.mean())) < 1e-4
            assert excesses.mean() == pytest.approx(moment_correction(obs, delta), abs=1e-4)

    def test_requires_husimi_kind(self, grid, vacuum):
        with pytest.raises(ValueError):
            q_moment(wigner(vacuum), Observable.X)


def _wigner_2x2(x1):
    """A Wigner-kind 2 x 2 grid on x = (0, x1), p = (0, 1)."""
    return PhaseSpaceGrid(x=np.array([0.0, x1]), p=np.array([0.0, 1.0]),
                          kind=DistributionKind.WIGNER, values=np.zeros((2, 2)))


# Each refusal of phasespace that no other test reaches: (call, message).
REFUSALS = {
    "grid-values-shape": (
        lambda: PhaseSpaceGrid(x=np.zeros(3), p=np.zeros(2), kind=DistributionKind.HUSIMI,
                               values=np.zeros((2, 2))),
        "values shape (2, 2) does not match axes"),
    "characteristic-values-shape": (
        lambda: CharacteristicGrid(u=np.zeros(3), v=np.zeros(2), s=0.0,
                                   values=np.zeros((2, 2), complex)),
        "values shape does not match (u, v) lattices"),
    "trace-product-lattices": (lambda: trace_product(_wigner_2x2(1.0), _wigner_2x2(2.0)),
                               "trace_product requires matching lattices"),
    "q-moment-without-delta": (
        lambda: q_moment(PhaseSpaceGrid(x=np.zeros(2), p=np.zeros(2), kind=DistributionKind.HUSIMI,
                                        values=np.zeros((2, 2))), Observable.X),
        "Husimi grid is missing its delta parameter"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_name_their_cause(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
