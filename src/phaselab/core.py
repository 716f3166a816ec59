"""Uniform position lattice, its conjugate momentum lattice, and pure states.

Everything downstream operates on these types.  Units are dimensionless with
hbar = 1.  The momentum lattice is the exact Fourier conjugate of the position
lattice (dx * dp * n = 2*pi) and is stored in increasing order.  The single
transform convention used everywhere is <p|x> = exp(-i*x*p) / sqrt(2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Relative amplitude below which a state is considered to have decayed at the
# lattice edges.  States that do not satisfy this are rejected rather than
# silently wrapped by the periodic transforms.
EDGE_DECAY = 1e-12

TWO_PI = 2.0 * math.pi


class EnvelopeError(ValueError):
    """State does not decay below EDGE_DECAY at the lattice edges."""


class ResolutionError(ValueError):
    """A Gaussian width is too small for the lattice spacing."""


class Basis(str, Enum):
    POSITION = "position"
    MOMENTUM = "momentum"


class Observable(str, Enum):
    X = "x"
    P = "p"
    X2 = "x2"
    P2 = "p2"
    NUMBER = "number"


# Each observable as its terms (coefficient, x power, p power).  No term mixes
# x and p, so the operator ordering within a term does not matter.
OBSERVABLE_TERMS = {
    Observable.X: ((1.0, 1, 0),),
    Observable.P: ((1.0, 0, 1),),
    Observable.X2: ((1.0, 2, 0),),
    Observable.P2: ((1.0, 0, 2),),
    Observable.NUMBER: ((0.5, 2, 0), (0.5, 0, 2), (-0.5, 0, 0)),
}


def sum_terms(obs: Observable, term):
    """The sum of term(coefficient, x power, p power) over the terms of obs; a
    one-term sum is that term itself, not 0.0 plus it, so a signed zero stays."""
    if obs not in OBSERVABLE_TERMS:
        raise ValueError(f"unsupported observable {obs}")
    first, *rest = (term(c, a, b) for c, a, b in OBSERVABLE_TERMS[obs])
    return sum(rest, first)


@dataclass(frozen=True)
class Grid:
    """Uniform 1D position lattice with its conjugate momentum lattice.

    x_k = x_min + k*dx for k = 0..n-1, and p_j = (j - n/2)*dp with
    dp = 2*pi/(n*dx), so p spans [-pi/dx, pi/dx).
    """

    n: int
    x_min: float
    dx: float

    @property
    def dp(self) -> float:
        return TWO_PI / (self.n * self.dx)

    @property
    def x_max(self) -> float:
        return self.x_min + self.n * self.dx

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    @property
    def p(self) -> np.ndarray:
        return self.dp * (np.arange(self.n) - self.n // 2)

    def spacing(self, basis: Basis) -> float:
        return self.dx if basis is Basis.POSITION else self.dp


def check_grid_size(n: int) -> None:
    """Lattices are powers of two, >= 16 points."""
    if n < 16 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 16, got {n}")


def check_positive(name: str, value: float) -> None:
    """Refuse a parameter that is not a positive finite number (NaN included)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_resolved(grid: Grid, delta: float) -> None:
    """A Gaussian of width parameter delta must span a few lattice cells."""
    check_positive("delta", delta)
    if delta < 4.0 * grid.dx**2:
        raise ResolutionError(
            f"delta = {delta:g} under-resolved on spacing dx = {grid.dx:g} "
            f"(need delta >= 4*dx^2 = {4 * grid.dx**2:g})"
        )


def gaussian_window(centers, x, delta: float) -> np.ndarray:
    """exp(-(c - x)^2 / (2*delta)) for every center c, broadcast against x.

    Computed in place on the one array of differences; the bytes equal those
    of ``np.exp(-((c - x) ** 2) / (2 * delta))``.
    """
    out = np.subtract(centers, x)
    out *= out
    np.negative(out, out=out)
    out /= 2.0 * delta
    return np.exp(out, out=out)


def make_grid(n: int, x_min: float, x_max: float) -> Grid:
    """Build a lattice of n points (power of two, >= 16) over [x_min, x_max)."""
    check_grid_size(n)
    if not (-math.inf < x_min < 0.0 < x_max < math.inf):
        raise ValueError(f"domain [{x_min}, {x_max}] must be finite and contain the origin")
    return Grid(n=int(n), x_min=float(x_min), dx=(float(x_max) - float(x_min)) / n)


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitudes of a pure state over a Grid, tagged by basis."""

    grid: Grid
    basis: Basis
    amp: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amp, dtype=np.complex128)
        if amp.shape != (self.grid.n,):
            raise ValueError(f"amplitude array has shape {amp.shape}, expected ({self.grid.n},)")
        amp.flags.writeable = False
        object.__setattr__(self, "amp", amp)

    @property
    def spacing(self) -> float:
        return self.grid.spacing(self.basis)

    def norm(self) -> float:
        return math.sqrt(float(np.sum(np.abs(self.amp) ** 2)) * self.spacing)

    def density(self) -> np.ndarray:
        return np.abs(self.amp) ** 2


def normalize(psi: WaveFunction) -> WaveFunction:
    nrm = psi.norm()
    if nrm < 1e-300:
        raise ValueError("cannot normalize a zero state")
    return WaveFunction(psi.grid, psi.basis, psi.amp / nrm)


def _check_envelope(grid: Grid, x0: float, p0: float, delta: float) -> None:
    for edge in (grid.x[0], grid.x[-1]):
        env = math.exp(-((edge - x0) ** 2) / (2.0 * delta))
        if env > EDGE_DECAY:
            raise EnvelopeError(
                f"position envelope {env:.3g} at x = {edge:g} exceeds {EDGE_DECAY:g}; "
                "enlarge the grid or reduce delta"
            )
    for edge in (grid.p[0], grid.p[-1]):
        env = math.exp(-delta * (edge - p0) ** 2 / 2.0)
        if env > EDGE_DECAY:
            raise EnvelopeError(
                f"momentum envelope {env:.3g} at p = {edge:g} exceeds {EDGE_DECAY:g}"
            )


def coherent_state(grid: Grid, x0: float, p0: float, delta: float = 1.0) -> WaveFunction:
    """Squeezed coherent state centered at (x0, p0) with width parameter delta.

    Position amplitudes proportional to exp(-(x - x0)^2/(2*delta) + i*x*p0);
    the position density has variance delta/2, the momentum density 1/(2*delta).
    """
    check_positive("delta", delta)
    if not (math.isfinite(x0) and math.isfinite(p0)):
        raise ValueError(f"coherent state centre ({x0}, {p0}) must be finite")
    _check_envelope(grid, x0, p0, delta)
    x = grid.x
    amp = np.exp(-((x - x0) ** 2) / (2.0 * delta) + 1j * x * p0)
    return normalize(WaveFunction(grid, Basis.POSITION, amp))


def fock_state(grid: Grid, m: int) -> WaveFunction:
    """m-th harmonic oscillator eigenstate (Hermite-Gaussian), m <= 20.

    Built by the three-term recurrence on the normalized functions
    phi_m = sqrt(2/m) x phi_{m-1} - sqrt((m-1)/m) phi_{m-2}, which stays
    well-scaled where raw Hermite polynomials would overflow.
    """
    if not (0 <= m <= 20):
        raise ValueError(f"fock index must be in [0, 20], got {m}")
    x = grid.x
    phi_prev = np.zeros_like(x)
    phi = math.pi ** -0.25 * np.exp(-(x**2) / 2.0)
    for k in range(1, m + 1):
        phi, phi_prev = (
            math.sqrt(2.0 / k) * x * phi - math.sqrt((k - 1) / k) * phi_prev,
            phi,
        )
    peak = float(np.max(np.abs(phi)))
    if max(abs(phi[0]), abs(phi[-1])) > EDGE_DECAY * peak:
        raise EnvelopeError(f"fock_state({m}) envelope does not decay at the grid edges")
    return normalize(WaveFunction(grid, Basis.POSITION, phi.astype(np.complex128)))


def superpose(a: complex, psi1: WaveFunction, b: complex, psi2: WaveFunction) -> WaveFunction:
    """Normalized a*psi1 + b*psi2 (same grid, same basis)."""
    if psi1.grid != psi2.grid or psi1.basis != psi2.basis:
        raise ValueError("superpose requires the same grid and basis")
    out = WaveFunction(psi1.grid, psi1.basis, a * psi1.amp + b * psi2.amp)
    if out.norm() < 1e-12:
        raise ValueError("superposition is numerically the zero vector")
    return normalize(out)


def fourier_sum(f, src: np.ndarray, dst: np.ndarray, weight: float, sign: int, axis: int = -1):
    """weight * sum_j f_j exp(sign*i*dst_l*src_j) for every dst_l, via FFT.

    Exact (up to round-off) whenever the lattices are conjugate,
    i.e. (dst spacing)*(src spacing) = 2*pi/len(src).
    """
    f = np.asarray(f)
    n = src.size
    ds, dk = src[1] - src[0], dst[1] - dst[0]
    if abs(ds * dk * n / TWO_PI - 1.0) > 1e-12:
        raise ValueError("lattices are not Fourier-conjugate")
    f = np.moveaxis(f, axis, -1)
    inner = f * np.exp(sign * 1j * dst[0] * src)
    if sign < 0:
        out = np.fft.fft(inner, axis=-1)
    else:
        out = n * np.fft.ifft(inner, axis=-1)
    out *= weight * np.exp(sign * 1j * np.arange(n) * dk * src[0])
    return np.moveaxis(out, -1, axis)


def split_cells(c: float) -> tuple:
    """(m, f): c = m + f cells with m whole and 0 <= f < 1; f = 0 within 1e-9 of whole."""
    return (round(c), 0.0) if abs(c - round(c)) <= 1e-9 else (math.floor(c), c - math.floor(c))


def to_momentum(psi: WaveFunction) -> WaveFunction:
    """<p|psi> on the conjugate lattice; unitary together with to_position."""
    if psi.basis is not Basis.POSITION:
        raise ValueError("to_momentum expects a position-basis state")
    g = psi.grid
    amp = fourier_sum(psi.amp, g.x, g.p, g.dx / math.sqrt(TWO_PI), sign=-1)
    return WaveFunction(g, Basis.MOMENTUM, amp)


def to_position(psi: WaveFunction) -> WaveFunction:
    if psi.basis is not Basis.MOMENTUM:
        raise ValueError("to_position expects a momentum-basis state")
    g = psi.grid
    amp = fourier_sum(psi.amp, g.p, g.x, g.dp / math.sqrt(TWO_PI), sign=+1)
    return WaveFunction(g, Basis.POSITION, amp)


def as_position(psi: WaveFunction) -> WaveFunction:
    return psi if psi.basis is Basis.POSITION else to_position(psi)


def as_momentum(psi: WaveFunction) -> WaveFunction:
    return psi if psi.basis is Basis.MOMENTUM else to_momentum(psi)


def inner(psi: WaveFunction, phi: WaveFunction) -> complex:
    """Quadrature inner product <psi|phi> (same grid and basis)."""
    if psi.grid != phi.grid or psi.basis != phi.basis:
        raise ValueError("inner requires the same grid and basis")
    return complex(np.vdot(psi.amp, phi.amp) * psi.spacing)


def expectation(psi: WaveFunction, obs: Observable) -> float:
    """<psi|A|psi> for the five polynomial observables, by direct quadrature
    (a constant term c gives c*<psi|psi>)."""

    def term(c, a, b):
        q = as_momentum(psi) if b else as_position(psi)
        axis = q.grid.p if b else q.grid.x
        return c * float(np.sum(axis ** (a or b) * q.density()) * q.spacing)

    return sum_terms(obs, term)
