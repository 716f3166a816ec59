"""Gaussian-smeared position measurement and the successive-measurement sampler.

The measurement operator M(x) = (delta*pi)^(-1/4) exp(-(x - x_op)^2/(2*delta))
collapses the state on outcome x; a projective momentum measurement follows.
The joint outcome density of that two-step protocol is the Husimi function,
verified here both analytically on the lattice and by Monte Carlo sampling.

The sampler draws shots in chunks of CHUNK, one Philox substream per chunk.
A chunk draws every x from the M^2 outcome density, then makes one pass over
blocks of BLOCK outcomes: the window M(x) times psi_j (-1)^j, a bare FFT, its
squared modulus as the momentum density, the collapse norm from that density
by Parseval, and the p draw.  The phases that ``fourier_sum`` applies before
and after its FFT have unit modulus (p_0 dx = -pi makes the input phase a
constant times (-1)^j), so they drop out of |<p|M(x)|psi>|^2 and are never
computed.  Outcomes whose collapse norm is at most MIN_COLLAPSE_NORM are
redrawn afterwards, in row order, and only their rows are recomputed.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from decimal import Decimal
from numbers import Integral

import numpy as np

from .core import (
    BLOCK,
    TWO_PI,
    Basis,
    Grid,
    WaveFunction,
    as_momentum,
    as_position,
    check_positive,
    check_resolved,
    fourier_sum,
    gaussian_window,
    normalize,
)
from .phasespace import DistributionKind, PhaseSpaceGrid

# Shots per sampling chunk.  Fixed so that the random substream layout (one
# Philox stream per chunk) is independent of the worker count.
CHUNK = 4096

MIN_COLLAPSE_NORM = 1e-12
# Redraw rounds for outcomes whose collapse norm is at or below MIN_COLLAPSE_NORM.
MAX_REDRAWS = 64


class OutcomeIncompatibleError(ValueError):
    """Collapse norm below threshold: outcome lies in the numerical deep tail."""


@dataclass(frozen=True)
class GaussianMeasurement:
    """Outcome center x and sharpness parameter delta of M(x)."""

    x: float
    delta: float

    def __post_init__(self):
        if not math.isfinite(self.x):
            raise ValueError(f"x must be finite, got {self.x}")
        check_positive("delta", self.delta)


@dataclass(frozen=True)
class SampleResult:
    """Outcome arrays of a successive-measurement run plus its histogram."""

    x: np.ndarray
    p: np.ndarray
    histogram: PhaseSpaceGrid
    rejected: int

    @property
    def shots(self) -> int:
        return self.x.size


def _m_diag(grid: Grid, x, delta: float) -> np.ndarray:
    """Diagonal of M(x) on the position lattice, one row per outcome if x is an array."""
    return (delta * math.pi) ** -0.25 * gaussian_window(grid.x, x, delta)


def _m2(grid: Grid, xs: np.ndarray, delta: float) -> np.ndarray:
    """Diagonals of M^2(x) on the position lattice, one row per outcome in `xs`."""
    return gaussian_window(grid.x, xs[:, None], delta / 2.0) / math.sqrt(delta * math.pi)


def m_density(psi: WaveFunction, delta: float) -> np.ndarray:
    """Outcome density p(x) = <psi|M^2(x)|psi> on the position lattice.

    Equals the Gaussian-smoothed position density, and the over-p marginal of
    the Husimi function with the same delta.
    """
    pos = as_position(psi)
    g = pos.grid
    check_resolved(g, delta)
    return _m2(g, g.x, delta) @ (pos.density() * g.dx)


def apply_m(psi: WaveFunction, meas: GaussianMeasurement) -> WaveFunction:
    """Normalized post-measurement state M(x)|psi> / ||M(x)|psi>||."""
    pos = as_position(psi)
    check_resolved(pos.grid, meas.delta)
    amp = _m_diag(pos.grid, meas.x, meas.delta) * pos.amp
    out = WaveFunction(pos.grid, Basis.POSITION, amp)
    if out.norm() <= MIN_COLLAPSE_NORM:
        raise OutcomeIncompatibleError(
            f"outcome x = {meas.x:g} has collapse norm {out.norm():.3g} <= {MIN_COLLAPSE_NORM:g}"
        )
    return normalize(out)


def successive_density(psi: WaveFunction, delta: float) -> PhaseSpaceGrid:
    """Joint density |<p|M(x)|psi>|^2 of the successive measurement.

    Computed through the measurement-operator route, one outcome x per lattice
    row, in blocks of BLOCK rows, each block in one transform; identical to
    the Husimi function with the same delta.
    """
    pos = as_position(psi)
    g = pos.grid
    check_resolved(g, delta)
    values = np.empty((g.n, g.n))
    for lo in range(0, g.n, BLOCK):
        rows = slice(lo, lo + BLOCK)
        amps = _m_diag(g, g.x[rows, None], delta) * pos.amp
        phi = fourier_sum(amps, g.x, g.p, g.dx / math.sqrt(TWO_PI), sign=-1, axis=-1)
        values[rows] = np.abs(phi) ** 2
    return PhaseSpaceGrid(
        x=g.x, p=g.p, kind=DistributionKind.HUSIMI, values=values, delta=float(delta)
    )


def _inverse_cdf(density: np.ndarray, left_edge: float, spacing: float, u: np.ndarray) -> np.ndarray:
    """Draw from piecewise-constant densities over cells centered on a lattice.

    `density` is one row shared by every uniform in `u`, or one row per
    uniform.  The CDF is linear inside each cell, so a draw is a cell lookup
    plus a linear interpolation; outcomes are continuous reals.

    Both cases share one lookup, a lower-bound bisection over the flattened
    CDF: each draw's search starts at its row's offset (0 for the shared row,
    n*i for row i, the one place the cases differ) and halves its span until
    it rests on the first CDF value not below the target.  On a nondecreasing
    row, that index counted from the row's start is the number of CDF values
    below the target, the left insertion point of a sorted search.  Each row
    keeps its whole sequential ``cumsum``: `below`, the CDF value before a
    draw's cell, must be that sum's prefix for the draws to keep their bits.
    """
    mass = np.maximum(density, 0.0)
    mass *= spacing
    n = mass.shape[-1]
    cdf = np.cumsum(mass, axis=-1).ravel()
    start = np.zeros(u.size, np.intp) if density.ndim == 1 else n * np.arange(u.size)
    target = u * cdf[start + (n - 1)]
    idx, size = start.copy(), n
    while size > 1:
        half = size // 2
        idx += half * (cdf[idx + half] < target)
        size -= half
    idx = np.minimum(idx + (cdf[idx] < target), start + (n - 1))
    below = np.where(idx > start, cdf[idx - 1], 0.0)
    frac = np.clip((target - below) / np.maximum(mass.ravel()[idx], 1e-300), 0.0, 1.0)
    return left_edge + (idx - start + frac) * spacing


def _worker_count(n_chunks: int) -> int:
    """PHASESPACE_THREADS workers (unset: 1, 0: one per CPU), at most one per chunk.

    Unset means 1: results do not depend on the count, and a call from inside a
    caller's own pool should not start one thread per CPU unasked."""
    raw = os.environ.get("PHASESPACE_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 1
    if workers == 0:
        workers = os.cpu_count() or 1
    return max(1, min(workers, n_chunks))


def _collapse_draws(grid: Grid, psi_alt: np.ndarray, delta: float, xs: np.ndarray, u: np.ndarray):
    """Momentum draws and squared collapse norms ||M(x)psi||^2 for outcomes `xs`.

    `psi_alt` is psi_j * (-1)^j.  The bare FFT of M(x)psi_alt differs from
    <p|M(x)|psi> only by a unit-modulus phase per p and the factor
    dx/sqrt(2 pi), and neither moves a draw, so its squared modulus serves as
    the momentum density.  By Parseval, the squared norm is the sum of that
    density times dx/n.
    """
    ps = np.empty(xs.size)
    norms2 = np.empty(xs.size)
    left_p = grid.p[0] - grid.dp / 2.0
    for lo in range(0, xs.size, BLOCK):
        rows = slice(lo, lo + BLOCK)
        phi = np.fft.fft(_m_diag(grid, xs[rows, None], delta) * psi_alt, axis=-1)
        pdens = np.square(phi.real)
        pdens += np.square(phi.imag)
        norms2[rows] = pdens.sum(axis=1) * (grid.dx / grid.n)
        ps[rows] = _inverse_cdf(pdens, left_p, grid.dp, u[rows])
    return ps, norms2


def _sample_chunk(pos, px, delta, seed, chunk_index, count):
    """Sample `count` successive-measurement shots from chunk substream `chunk_index`."""
    g = pos.grid
    bg = np.random.Philox(key=np.array([seed, chunk_index], dtype=np.uint64))
    rng = np.random.Generator(bg)
    u = rng.random((count, 2))
    left_x = g.x[0] - g.dx / 2.0
    psi_alt = pos.amp.copy()
    psi_alt[1::2] *= -1.0
    xs, ps = np.empty(count), np.empty(count)
    rows, fresh, rejected = np.arange(count), u[:, 0], 0
    # deep-tail outcomes (practically unreachable) are rejected and redrawn, in row order
    for _ in range(MAX_REDRAWS + 1):
        xs[rows] = _inverse_cdf(px, left_x, g.dx, fresh)
        ps[rows], norms2 = _collapse_draws(g, psi_alt, delta, xs[rows], u[rows, 1])
        rows = rows[norms2 <= MIN_COLLAPSE_NORM**2]
        if rows.size == 0:
            return xs, ps, rejected
        rejected += rows.size
        fresh = rng.random(rows.size)
    raise OutcomeIncompatibleError(
        f"{rows.size} outcome(s) of sampling chunk {chunk_index} still have collapse norm "
        f"<= {MIN_COLLAPSE_NORM:g} after {MAX_REDRAWS} redraws"
    )


def sample_joint(
    psi: WaveFunction,
    delta: float,
    shots: int,
    seed: int,
    bins=(32, 32),
) -> SampleResult:
    """Monte Carlo run of the successive measurement.

    Per shot: draw x* from the M^2 outcome density, collapse with M(x*), draw
    p* from the collapsed momentum density.  Deterministic for a fixed seed
    and independent of the worker count (fixed-size chunk substreams).
    """
    if not (isinstance(shots, Integral) and not isinstance(shots, bool) and shots >= 0):
        raise ValueError(f"shots must be a non-negative integer, got {shots!r}")
    if not (isinstance(seed, Integral) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    nx_bins, np_bins = check_bins(bins)
    pos = as_position(psi)
    g = pos.grid
    x_edges = np.linspace(g.x[0] - g.dx / 2.0, g.x[-1] + g.dx / 2.0, nx_bins + 1)
    p_edges = np.linspace(g.p[0] - g.dp / 2.0, g.p[-1] + g.dp / 2.0, np_bins + 1)

    px = m_density(pos, delta)
    # Each chunk fills its rows here, so no chunk's arrays outlive it in a worker's heap.
    # Allocated before any chunk is queued, so a shot count too large to hold fails at once
    # (NumPy refuses a count beyond its largest array size without allocating).
    try:
        xs, ps = np.empty(shots), np.empty(shots)
    except (ValueError, MemoryError):
        # Decimal: the byte count of any int, where float() would overflow
        raise ValueError(f"shots = {shots} needs {Decimal(16 * shots):.2g} bytes "
                         "for its x and p outcomes") from None
    n_chunks = (shots + CHUNK - 1) // CHUNK

    def run(c):
        """The chunk's rejections and its histogram counts, whole numbers that
        sum exactly in any order."""
        rows = slice(c * CHUNK, min(shots, (c + 1) * CHUNK))
        xs[rows], ps[rows], rejected = _sample_chunk(pos, px, delta, seed, c, rows.stop - rows.start)
        return rejected, np.histogram2d(xs[rows], ps[rows], bins=[x_edges, p_edges])[0]

    rejected, counts = 0, np.zeros((nx_bins, np_bins))
    with ThreadPoolExecutor(max_workers=_worker_count(n_chunks)) as ex:
        for chunk_rejected, chunk_counts in ex.map(run, range(n_chunks)):
            rejected += chunk_rejected
            counts += chunk_counts
    hist = _histogram(counts, x_edges, p_edges, shots)
    return SampleResult(x=xs, p=ps, histogram=hist, rejected=rejected)


def _histogram(counts, x_edges, p_edges, shots) -> PhaseSpaceGrid:
    area = (x_edges[1] - x_edges[0]) * (p_edges[1] - p_edges[0])
    density = counts / (shots * area) if shots > 0 else counts
    centers_x = 0.5 * (x_edges[:-1] + x_edges[1:])
    centers_p = 0.5 * (p_edges[:-1] + p_edges[1:])
    return PhaseSpaceGrid(
        x=centers_x, p=centers_p, kind=DistributionKind.HISTOGRAM, values=density
    )


def check_bins(bins, shape=None) -> tuple:
    """(x bins, p bins): two integers of at least 2, as a histogram needs a
    spacing; with a lattice `shape`, each divides its axis."""
    if not (len(bins) == 2 and all(isinstance(b, Integral) and b > 1 for b in bins)):
        raise ValueError(f"bins must be two positive integers of at least 2, got {tuple(bins)!r}")
    if shape is not None and (shape[0] % bins[0] or shape[1] % bins[1]):
        raise ValueError(f"bin counts {bins[0]} x {bins[1]} must divide the lattice size "
                         f"{shape[0]} x {shape[1]}")
    return tuple(bins)


def coarsen(dist: PhaseSpaceGrid, bins=(32, 32)) -> np.ndarray:
    """Bin masses of a lattice distribution on a uniform bin layout over its bounding box."""
    nx_bins, np_bins = check_bins(bins, dist.values.shape)
    nx, npts = dist.values.shape
    mass = dist.values * dist.weight
    return mass.reshape(nx_bins, nx // nx_bins, np_bins, npts // np_bins).sum(axis=(1, 3))


def tv_distance(mass_a: np.ndarray, mass_b: np.ndarray) -> float:
    """Total variation distance between two bin-mass arrays."""
    return 0.5 * float(np.sum(np.abs(mass_a - mass_b)))


def shot_noise_bound(mass: np.ndarray, shots: int) -> float:
    """Expected multinomial TV distance: sum_b sqrt(q_b (1-q_b) / N) / 2."""
    q = np.clip(mass, 0.0, 1.0)
    return 0.5 * float(np.sum(np.sqrt(q * (1.0 - q) / max(shots, 1))))


@dataclass(frozen=True)
class ConditionalResult:
    """Conditional position distribution at fixed momentum outcome.

    `ratio` is the literal Q(x, p)/|<p|psi>|^2, which does not integrate to 1
    in general; `normalized` divides by the x-integral instead.  The two are
    reported side by side with the normalization defect of the ratio.
    """

    x: np.ndarray
    p: float
    ratio: np.ndarray
    normalized: np.ndarray
    ratio_integral: float


def conditional_q(q: PhaseSpaceGrid, psi: WaveFunction, p: float) -> ConditionalResult:
    """Conditional distribution of x given momentum outcome p (nearest lattice
    point); ``q`` must be on psi's momentum lattice."""
    mom = as_momentum(psi)
    g = mom.grid
    if q.p.shape != g.p.shape or not np.allclose(q.p, g.p, rtol=0.0, atol=1e-9 * g.dp):
        raise ValueError("q's momentum lattice is not psi's")
    l = int(np.argmin(np.abs(g.p - p)))
    dens_p = float(np.abs(mom.amp[l]) ** 2)
    if dens_p <= 1e-12:
        raise ValueError(f"momentum density {dens_p:.3g} at p = {g.p[l]:g} is vanishing")
    column = q.values[:, l]
    dx = q.dx
    ratio = column / dens_p
    total = float(np.sum(column)) * dx
    if total <= 0.0:
        raise ValueError("conditional column has zero mass")
    return ConditionalResult(
        x=q.x,
        p=float(g.p[l]),
        ratio=ratio,
        normalized=column / total,
        ratio_integral=float(np.sum(ratio)) * dx,
    )


def _coherent_projector_sum(grid: Grid, x: float, delta: float) -> np.ndarray:
    """Matrix of Int dp |x,p><x,p| in the lattice representation (dx folded in)."""
    # columns <x_j|x, p_l; delta> over the momentum lattice
    phi = _m_diag(grid, x, delta)[:, None] * np.exp(1j * np.outer(grid.x, grid.p))
    return (phi @ phi.conj().T) * grid.dp * grid.dx


def _trace_scale(grid: Grid, x: float, delta: float) -> tuple:
    """sqrt(Int dp |x,p><x,p|) and the scalar that matches its trace to that of M(x)."""
    if grid.n > 64:
        raise ValueError("dense operator checks are restricted to grids of n <= 64")
    vals, vecs = np.linalg.eigh(_coherent_projector_sum(grid, x, delta))
    if vals.min() < -1e-10:
        raise ArithmeticError(f"operator not PSD: min eigenvalue {vals.min():.3g}")
    vals = np.clip(vals, 0.0, None)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    return root, float(np.sum(_m_diag(grid, x, delta)).real / np.trace(root).real)


def sqrt_form_check(grid: Grid, x: float, delta: float) -> float:
    """L-inf deviation between sqrt(Int dp |x,p><x,p|) and the diagonal M(x).

    The single scalar prefactor left open by the resolution-of-identity
    normalization is fixed by trace matching; the remaining comparison is a
    full operator equality.
    """
    root, scale = _trace_scale(grid, x, delta)
    return float(np.max(np.abs(scale * root - np.diag(_m_diag(grid, x, delta)))))


def _outcome_lattice(grid: Grid, delta: float) -> np.ndarray:
    """Position-outcome lattice extended past the grid edges so that the
    Gaussian POVM kernels integrate over effectively all of the real line."""
    pad = int(math.ceil((8.0 * math.sqrt(delta) + 8.0) / grid.dx))
    return grid.x_min + grid.dx * np.arange(-pad, grid.n + pad)


def povm_completeness(grid: Grid, delta: float) -> float:
    """Max deviation of sum_k M^2(x_k) dx from the identity on grid basis vectors.

    M^2(x) is diagonal in position, so the deviation per basis vector is the
    deviation of the summed Gaussian weights from 1.
    """
    total = _m2(grid, _outcome_lattice(grid, delta), delta).sum(axis=0) * grid.dx
    return float(np.max(np.abs(total - 1.0)))


def identity_composition_deviation(grid: Grid, delta: float) -> float:
    """L-inf deviation of Int dx M^2(x) from the identity, with M^2 assembled
    from the coherent-state projector sum as in sqrt_form_check."""
    # scalar fixed once by trace matching at a reference outcome x = 0
    _, scale = _trace_scale(grid, 0.0, delta)
    total = np.zeros((grid.n, grid.n), dtype=np.complex128)
    for x in _outcome_lattice(grid, delta):
        total += scale**2 * _coherent_projector_sum(grid, float(x), delta) * grid.dx
    return float(np.max(np.abs(total - np.eye(grid.n))))
