import math
import re
import time

import numpy as np
import pytest

import oracles
from conftest import random_state
from phaselab import (
    GaussianMeasurement,
    Observable,
    apply_m,
    coherent_state,
    conditional_q,
    expectation,
    fock_state,
    husimi,
    inner,
    m_density,
    make_grid,
    marginal,
    normalize,
    povm_completeness,
    sample_joint,
    shot_noise_bound,
    sqrt_form_check,
    successive_density,
    superpose,
    tv_distance,
)
from phaselab import measurement
from phaselab.core import Basis, ResolutionError, WaveFunction, as_momentum, to_position
from phaselab.measurement import (
    CHUNK,
    OutcomeIncompatibleError,
    _inverse_cdf,
    coarsen,
    identity_composition_deviation,
)
from phaselab.phasespace import DistributionKind, MarginalAxis, PhaseSpaceGrid


class TestMDensity:
    def test_vacuum_smeared_variance(self, grid, vacuum):
        dens = m_density(vacuum, 1.0)
        var = float(np.sum(grid.x**2 * dens) * grid.dx)
        assert var == pytest.approx(1.0, abs=1e-6)
        # spot-check against the direct convolution oracle
        k = int(np.argmin(np.abs(grid.x - 0.5)))
        assert dens[k] == pytest.approx(
            oracles.smeared_density(oracles.vacuum, float(grid.x[k]), 1.0), abs=1e-9
        )

    def test_completeness_normalization(self, grid, rng):
        for _ in range(5):
            psi = random_state(grid, rng)
            assert float(np.sum(m_density(psi, 1.0)) * grid.dx) == pytest.approx(
                1.0, abs=1e-8
            )

    def test_equals_husimi_marginal(self, grid, rng):
        psi = random_state(grid, rng)
        assert np.max(
            np.abs(m_density(psi, 1.0) - marginal(husimi(psi, 1.0), MarginalAxis.OVER_P))
        ) < 1e-6

    def test_under_resolved_rejected(self, grid, vacuum):
        with pytest.raises(ResolutionError):
            m_density(vacuum, 0.001)

    @pytest.mark.parametrize("state_seed", range(10))
    def test_sharp_limit_monotone(self, state_seed):
        g = make_grid(1024, -16, 16)
        rng = np.random.default_rng(1000 + state_seed)
        psi = random_state(g, rng)
        dists = []
        for delta in (1.0, 0.1, 0.01):
            dens = m_density(psi, delta)
            dists.append(float(np.sum(np.abs(dens - psi.density())) * g.dx))
        assert dists[0] > dists[1] > dists[2]


class TestApplyM:
    def test_sharp_collapse_concentrates(self):
        g = make_grid(512, -8, 8)
        psi = coherent_state(g, 0, 0, 1)
        delta = 0.01
        out = apply_m(psi, GaussianMeasurement(x=0.4, delta=delta))
        mean = expectation(out, Observable.X)
        var = expectation(out, Observable.X2) - mean**2
        assert var < delta

    def test_generates_coherent_state_from_plane_wave(self, grid):
        p0 = float(grid.p[grid.n // 2 + 5])
        amp = np.zeros(grid.n, dtype=np.complex128)
        amp[grid.n // 2 + 5] = 1.0 / math.sqrt(grid.dp)
        plane = to_position(WaveFunction(grid, Basis.MOMENTUM, amp))
        out = apply_m(plane, GaussianMeasurement(x=1.0, delta=1.0))
        target = coherent_state(grid, 1.0, p0, 1.0)
        assert abs(inner(out, target)) > 1 - 1e-4

    def test_unsharp_limit_identity(self, grid, rng):
        psi = random_state(grid, rng)
        meas = GaussianMeasurement(x=0.0, delta=1e6)
        out = apply_m(psi, meas)
        assert abs(inner(out, psi)) > 1 - 1e-4

    def test_unsharp_fidelity_increases(self, grid, rng):
        psi = random_state(grid, rng)
        fids = [
            abs(inner(apply_m(psi, GaussianMeasurement(x=0.3, delta=d)), psi))
            for d in (10.0, 1e3, 1e6)
        ]
        assert fids[0] < fids[1] < fids[2] <= 1.0 + 1e-12

    def test_unsharp_momentum_density_preserved(self, grid, rng):
        psi = random_state(grid, rng)
        ref = as_momentum(psi).density()
        l1 = []
        for d in (10.0, 1e3, 1e6):
            out = apply_m(psi, GaussianMeasurement(x=0.3, delta=d))
            l1.append(float(np.sum(np.abs(as_momentum(out).density() - ref)) * grid.dp))
        assert l1[0] > l1[1] > l1[2]

    def test_deep_tail_outcome_rejected(self, grid, vacuum):
        with pytest.raises(OutcomeIncompatibleError):
            apply_m(vacuum, GaussianMeasurement(x=15.0, delta=0.1))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_outcome_refused(self, vacuum, x):
        # a NaN outcome would collapse into a state of NaN amplitudes
        with pytest.raises(ValueError, match=f"x must be finite, got {x}"):
            apply_m(vacuum, GaussianMeasurement(x=x, delta=1.0))

    def test_information_preserved_under_the_window(self, grid, rng):
        psi = random_state(grid, rng)
        meas = GaussianMeasurement(x=0.7, delta=1.0)
        out = apply_m(psi, meas)
        weight = np.exp(-((meas.x - grid.x) ** 2) / (2 * meas.delta))
        scale = math.sqrt(m_density(psi, meas.delta)[np.argmin(np.abs(grid.x - meas.x))])
        # renormalization constant recovered from the outcome density itself
        nrm = np.sqrt(np.sum(np.abs(weight * psi.amp) ** 2) * grid.dx)
        mask = weight > 1e-6
        recovered = out.amp[mask] * nrm / weight[mask]
        err = np.abs(recovered - psi.amp[mask])
        tol = 1e-6 * (np.abs(psi.amp[mask]) + 1e-3 * np.max(np.abs(psi.amp)))
        assert np.all(err < tol)


class TestSuccessiveDensity:
    @pytest.mark.parametrize("delta", [0.25, 1.0, 4.0])
    def test_equals_husimi(self, grid, rng, delta):
        for _ in range(5):
            psi = random_state(grid, rng)
            d = np.max(np.abs(successive_density(psi, delta).values - husimi(psi, delta).values))
            assert d < 1e-8

    @pytest.mark.parametrize("delta", [0.25, 1.0, 4.0])
    def test_equals_per_row_reference(self, grid, rng, delta):
        for _ in range(3):
            psi = random_state(grid, rng)
            for state in (psi, as_momentum(psi)):
                ref = oracles.successive_density_reference(state, delta)
                assert np.array_equal(successive_density(state, delta).values, ref)

    @pytest.mark.parametrize("domain", [(-16.0, 16.0), (-15.0, 17.3)])
    @pytest.mark.parametrize("n", [256, 1024])
    def test_row_blocks_equal_one_transform(self, rng, n, domain):
        psi = random_state(make_grid(n, *domain), rng)
        for delta in (0.25, 4.0):
            ref = oracles.successive_density_whole(psi, delta)
            assert np.array_equal(successive_density(psi, delta).values, ref)

    def test_vacuum_small_delta_shape(self, grid, vacuum):
        q = successive_density(vacuum, 0.25)
        ref = husimi(vacuum, 0.25)
        assert np.max(np.abs(q.values - ref.values)) < 1e-8
        # x-narrowed, p-widened relative to delta = 1
        mx = marginal(q, MarginalAxis.OVER_P)
        mp = marginal(q, MarginalAxis.OVER_X)
        var_x = float(np.sum(grid.x**2 * mx) * grid.dx)
        var_p = float(np.sum(grid.p**2 * mp) * grid.dp)
        assert var_x < 1.0 < var_p


class TestPovm:
    def test_completeness_on_basis_vectors(self, grid):
        assert povm_completeness(grid, 1.0) < 1e-8

    def test_completeness_other_delta(self, grid):
        assert povm_completeness(grid, 0.25) < 1e-8

    def test_sqrt_form(self):
        g = make_grid(64, -8, 8)
        assert sqrt_form_check(g, 0.0, 1.0) < 1e-4

    def test_sqrt_form_translated(self):
        g = make_grid(64, -8, 8)
        assert sqrt_form_check(g, 2.0, 1.0) < 1e-4

    def test_identity_composition(self):
        g = make_grid(64, -8, 8)
        assert identity_composition_deviation(g, 1.0) < 1e-4


class TestSampler:
    def test_zero_shots(self, grid, vacuum):
        res = sample_joint(vacuum, 1.0, 0, seed=1)
        assert res.shots == 0
        assert np.all(res.histogram.values == 0.0)

    def test_negative_shots_rejected(self, grid, vacuum):
        with pytest.raises(ValueError):
            sample_joint(vacuum, 1.0, -1, seed=1)

    @pytest.mark.parametrize("shots", [1e4, 2.5, True, np.float64(8.0)])
    def test_shots_that_are_not_integers_rejected(self, vacuum, shots):
        with pytest.raises(ValueError, match="^shots must be a non-negative integer"):
            sample_joint(vacuum, 1.0, shots, seed=1)

    def test_shot_count_too_large_to_hold_fails_at_once(self, vacuum):
        start = time.perf_counter()
        with pytest.raises((ValueError, MemoryError)):
            sample_joint(vacuum, 1.0, 10**20, seed=0)
        assert time.perf_counter() - start < 5.0

    # NumPy refuses these counts at once, without allocating; a count it might
    # really allocate (10**12 shots, 16 TB) is not tried.  10**400 bytes are
    # beyond a float.
    @pytest.mark.parametrize("shots, need", [(10**20, "1.6e+21"), (2**60, "1.8e+19"),
                                             (10**400, "1.6e+401")])
    def test_shot_count_too_large_names_shots_and_bytes(self, vacuum, shots, need):
        message = f"shots = {shots} needs {need} bytes for its x and p outcomes"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_joint(vacuum, 1.0, shots, seed=0)

    @pytest.mark.parametrize("bins", [(0, 0), (-2, 2), (32,), (32, 32, 32), (32.0, 32)])
    def test_bins_must_be_two_positive_integers(self, vacuum, bins):
        with pytest.raises(ValueError, match="^bins must be two positive integers"):
            sample_joint(vacuum, 1.0, 0, seed=1, bins=bins)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_seed_must_fit_64_bits(self, vacuum, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\)"):
            sample_joint(vacuum, 1.0, 10, seed=seed)

    def test_largest_seed_accepted(self, vacuum):
        assert sample_joint(vacuum, 1.0, 10, seed=2**64 - 1).shots == 10

    def test_coarsening_checks_bins_before_dividing(self, vacuum):
        with pytest.raises(ValueError, match="^bins must be two positive integers"):
            coarsen(husimi(vacuum, 1.0), (0, 32))
        with pytest.raises(ValueError, match="^bin counts 3 x 32 must divide"):
            coarsen(husimi(vacuum, 1.0), (3, 32))

    def test_determinism(self, grid, vacuum):
        a = sample_joint(vacuum, 1.0, 5000, seed=42)
        b = sample_joint(vacuum, 1.0, 5000, seed=42)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.p, b.p)

    def test_seed_changes_draws(self, grid, vacuum):
        a = sample_joint(vacuum, 1.0, 1000, seed=1)
        b = sample_joint(vacuum, 1.0, 1000, seed=2)
        assert not np.array_equal(a.x, b.x)

    def test_worker_count_independence(self, grid, vacuum, monkeypatch):
        monkeypatch.delenv("PHASESPACE_THREADS", raising=False)
        base = sample_joint(vacuum, 1.0, 20000, seed=9)
        monkeypatch.setenv("PHASESPACE_THREADS", "4")
        threaded = sample_joint(vacuum, 1.0, 20000, seed=9)
        assert np.array_equal(base.x, threaded.x) and np.array_equal(base.p, threaded.p)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_chunk_histograms_sum_to_one_histogram(self, grid, monkeypatch, threads):
        # three whole chunks and a partial one, histogrammed chunk by chunk
        monkeypatch.setenv("PHASESPACE_THREADS", threads)
        psi = superpose(1.0, coherent_state(grid, -2.0, 0.0), 1.0, coherent_state(grid, 2.0, 0.5))
        shots = 3 * CHUNK + 123
        res = sample_joint(psi, 1.0, shots, seed=13, bins=(16, 8))
        x_edges = np.linspace(grid.x[0] - grid.dx / 2.0, grid.x[-1] + grid.dx / 2.0, 17)
        p_edges = np.linspace(grid.p[0] - grid.dp / 2.0, grid.p[-1] + grid.dp / 2.0, 9)
        counts = np.histogram2d(res.x, res.p, bins=[x_edges, p_edges])[0]
        area = (x_edges[1] - x_edges[0]) * (p_edges[1] - p_edges[0])
        assert np.array_equal(res.histogram.values, counts / (shots * area))

    def test_exhausted_redraws_raise(self, monkeypatch):
        # every outcome's collapse norm is below an impossible threshold
        g = make_grid(64, -8, 8)
        monkeypatch.setattr(measurement, "MIN_COLLAPSE_NORM", 10.0)
        with pytest.raises(OutcomeIncompatibleError, match="after 64 redraws"):
            sample_joint(coherent_state(g, 0.0, 0.0, 1.0), 1.0, 100, seed=1)

    def test_histogram_matches_husimi(self, grid, vacuum):
        shots = 200_000
        res = sample_joint(vacuum, 1.0, shots, seed=42)
        ref = coarsen(husimi(vacuum, 1.0), (32, 32))
        sampled = res.histogram.values * res.histogram.weight
        assert tv_distance(sampled, ref) < 0.02

    def test_shot_noise_bound_on_synthetic_multinomial(self, grid, vacuum):
        # pre-validation of the TV threshold: ideal multinomial draws from the
        # coarsened Husimi masses stay within a few times the analytic bound
        ref = coarsen(husimi(vacuum, 1.0), (32, 32))
        probs = ref.flatten() / ref.sum()
        shots = 100_000
        rng = np.random.default_rng(7)
        tvs = []
        for _ in range(5):
            counts = rng.multinomial(shots, probs)
            tvs.append(tv_distance(counts / shots, probs))
        bound = shot_noise_bound(ref, shots)
        assert np.mean(tvs) < 3 * bound

    def test_records_in_range(self, grid, vacuum):
        res = sample_joint(vacuum, 1.0, 2000, seed=3)
        assert np.all(res.x >= grid.x[0] - grid.dx) and np.all(res.x <= grid.x[-1] + grid.dx)
        assert np.all(res.p >= grid.p[0] - grid.dp) and np.all(res.p <= grid.p[-1] + grid.dp)


def _compact_state(grid, rng):
    """Random superposition of three coherent states that decay inside [-8, 8)."""
    amp = sum(
        (rng.normal() + 1j * rng.normal())
        * coherent_state(grid, rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0), rng.uniform(0.5, 0.6)).amp
        for _ in range(3)
    )
    return normalize(WaveFunction(grid, Basis.POSITION, amp))


class TestSampleChunk:
    """The blocked chunk against the chunk as first written (oracles)."""

    @pytest.mark.parametrize("min_norm", [None, 0.1], ids=["unpatched", "rejecting"])
    @pytest.mark.parametrize("state", ["vacuum", "random"])
    @pytest.mark.parametrize("delta", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("n, half", [(64, 8.0), (256, 16.0)])
    def test_matches_reference(self, monkeypatch, n, half, delta, state, min_norm):
        g = make_grid(n, -half, half)
        if state == "vacuum":
            psi = coherent_state(g, 0.0, 0.0, 1.0)
        else:
            psi = _compact_state(g, np.random.default_rng([n, int(4 * delta)]))
        if min_norm is not None:
            monkeypatch.setattr(measurement, "MIN_COLLAPSE_NORM", min_norm)
        threshold = measurement.MIN_COLLAPSE_NORM
        px = m_density(psi, delta)
        xs, ps, rejected = measurement._sample_chunk(psi, px, delta, 11, 2, CHUNK)
        ref_x, ref_p, ref_rejected = oracles.sample_chunk_reference(
            psi, px, delta, 11, 2, CHUNK, threshold
        )
        assert rejected == ref_rejected
        assert (rejected > 0) == (min_norm is not None)
        assert np.array_equal(xs, ref_x)
        assert np.max(np.abs(ps - ref_p)) <= 1e-9 * g.dp
        window = np.exp(-((g.x - xs[:, None]) ** 2) / (2.0 * delta))
        amps = (delta * np.pi) ** -0.25 * window * psi.amp
        assert np.all(np.sum(np.abs(amps) ** 2, axis=1) * g.dx > threshold**2)


class TestWorkerCount:
    @pytest.mark.parametrize("threads, cpus, n_chunks, expected", [
        (None, 64, 3, 1),
        ("0", 64, 3, 3),
        ("0", 2, 5, 2),
        ("0", None, 5, 1),
        ("8", 2, 3, 3),
        ("2", 64, 1, 1),
        ("many", 64, 3, 1),
    ])
    def test_capped_at_chunk_count(self, monkeypatch, threads, cpus, n_chunks, expected):
        monkeypatch.setattr(measurement.os, "cpu_count", lambda: cpus)
        if threads is None:
            monkeypatch.delenv("PHASESPACE_THREADS", raising=False)
        else:
            monkeypatch.setenv("PHASESPACE_THREADS", threads)
        assert measurement._worker_count(n_chunks) == expected

    def test_sampler_asks_for_capped_workers(self, monkeypatch, vacuum):
        seen = []

        class RecordingExecutor:
            """Runs the chunks in this thread and records the pool size asked for."""

            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(measurement, "ThreadPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(measurement.os, "cpu_count", lambda: 64)
        monkeypatch.setenv("PHASESPACE_THREADS", "0")
        res = sample_joint(vacuum, 1.0, 2 * CHUNK + 1, seed=5)
        assert seen == [3]
        assert res.shots == 2 * CHUNK + 1


class TestInverseCdf:
    # odd sizes give the lookup's bisection uneven halves
    SIZES = (3, 17, 64, 1024)

    @staticmethod
    def _density(rng, n):
        # zero-mass cells, tiny negative densities (clipped to zero mass) and
        # ordinary cells
        dens = rng.random(n)
        dens[rng.random(n) < 0.3] = 0.0
        dens[rng.random(n) < 0.1] = -1e-18
        dens[:min(3, n - 1)] = 0.0
        return dens

    @staticmethod
    def _uniforms(rng, count=2000):
        u = rng.random(count)
        u[:4] = [0.0, 0.0, 1.0 - 2**-53, 0.5]
        return u

    def test_shared_row_matches_searchsorted_reference(self, rng):
        for dens in [self._density(rng, n) for n in self.SIZES] + [np.zeros(64)]:
            u = self._uniforms(rng)
            got = _inverse_cdf(dens, -3.0, 0.125, u)
            assert np.array_equal(got, oracles.inverse_cdf_row(dens, -3.0, 0.125, u))

    def test_cell_index_is_searchsorted_left(self, rng):
        for n in self.SIZES:
            dens, u = self._density(rng, n), self._uniforms(rng)
            cdf = np.cumsum(np.maximum(dens, 0.0))
            idx = np.minimum(np.searchsorted(cdf, u * cdf[-1], "left"), dens.size - 1)
            draws = _inverse_cdf(dens, 0.0, 1.0, u)
            assert np.all((draws >= idx) & (draws <= idx + 1))
            inside = (draws > idx) & (draws < idx + 1)
            assert np.all(dens[idx[inside]] > 0.0)  # no draw inside a zero-mass cell
            assert draws[0] == draws[1] == 0.0  # u = 0 is the left edge of the lattice

    def test_shared_row_equals_broadcast_rows(self, rng):
        for n in self.SIZES:
            dens, u = self._density(rng, n), self._uniforms(rng)
            rows = np.repeat(dens[None, :], u.size, axis=0)
            assert np.array_equal(_inverse_cdf(dens, 1.5, 0.25, u), _inverse_cdf(rows, 1.5, 0.25, u))

    def test_rows_draw_each_row_like_the_reference(self, rng):
        for n in self.SIZES:
            rows = np.stack([self._density(rng, n) for _ in range(50)])
            rows[7] = 0.0  # a momentum row with no mass
            u = self._uniforms(rng, 50)
            got = _inverse_cdf(rows, -1.0, 0.5, u)
            want = [oracles.inverse_cdf_row(r, -1.0, 0.5, u[i:i + 1])[0] for i, r in enumerate(rows)]
            assert np.array_equal(got, np.array(want))
            assert np.array_equal(got, oracles.inverse_cdf_rows(rows, -1.0, 0.5, u))


class TestDeltaPositive:
    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("call", [
        lambda psi, d: husimi(psi, d),
        lambda psi, d: m_density(psi, d),
        lambda psi, d: successive_density(psi, d),
        lambda psi, d: sample_joint(psi, d, 100, seed=1),
        lambda psi, d: sample_joint(psi, d, 0, seed=1),
    ], ids=["husimi", "m_density", "successive_density", "sample_joint", "sample_joint-0-shots"])
    def test_non_positive_delta_rejected(self, vacuum, call, delta):
        with pytest.raises(ValueError, match="delta must be positive"):
            call(vacuum, delta)


class TestConditional:
    def test_normalized_integrates_to_one(self, grid, rng):
        psi = random_state(grid, rng)
        q = husimi(psi, 1.0)
        cond = conditional_q(q, psi, 0.0)
        assert float(np.sum(cond.normalized) * q.dx) == pytest.approx(1.0, abs=1e-8)

    def test_vacuum_conditional_is_unit_gaussian(self, grid, vacuum):
        cond = conditional_q(husimi(vacuum, 1.0), vacuum, 0.0)
        var = float(np.sum(cond.x**2 * cond.normalized) * grid.dx)
        assert var == pytest.approx(1.0, abs=1e-6)

    def test_ratio_normalization_defect_reported(self, grid, vacuum):
        cond = conditional_q(husimi(vacuum, 1.0), vacuum, 0.0)
        # ratio integral is the smoothed momentum density over the sharp one
        assert cond.ratio_integral == pytest.approx(1 / math.sqrt(2), abs=1e-6)

    def test_q_on_another_momentum_lattice_rejected(self, vacuum):
        psi = coherent_state(make_grid(vacuum.grid.n, -8.0, 8.0), 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="momentum lattice"):  # q's dp is half psi's
            conditional_q(husimi(vacuum, 1.0), psi, 1.0)

    def test_vanishing_denominator_rejected(self, grid):
        f1 = fock_state(grid, 1)
        with pytest.raises(ValueError):
            conditional_q(husimi(f1, 1.0), f1, 0.0)  # odd state: psi~(0) = 0


# Each refusal of measurement that no other test reaches: (call on the
# 256-point grid and its vacuum, message).
REFUSALS = {
    "conditional-zero-mass": (
        lambda g, psi: conditional_q(
            PhaseSpaceGrid(x=g.x, p=g.p, kind=DistributionKind.HUSIMI,
                           values=np.zeros((g.n, g.n)), delta=1.0), psi, 0.0),
        "conditional column has zero mass"),
    "dense-check-beyond-64": (lambda g, psi: sqrt_form_check(make_grid(128, -8.0, 8.0), 0.0, 1.0),
                              "dense operator checks are restricted to grids of n <= 64"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_name_their_cause(grid, vacuum, case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(grid, vacuum)
