"""Phase-space quasi-probability distributions and their identities.

Computes the s-parameterized characteristic function, the Wigner function,
the Husimi function (two independent routes), marginals, trace-product
expectations and Husimi-moment expectations with ordering corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    TWO_PI,
    Grid,
    Observable,
    WaveFunction,
    as_momentum,
    as_position,
    check_resolved,
    fourier_sum,
    gaussian_window,
    split_cells,
    sum_terms,
)


class DistributionKind(str, Enum):
    WIGNER = "wigner"
    HUSIMI = "husimi"
    HISTOGRAM = "histogram"


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """A real distribution sampled on a rectangular (x, p) lattice.

    values[i, j] is the density at (x[i], p[j]).  For grid-backed
    distributions both axes are uniform; histograms use bin centers.
    """

    x: np.ndarray
    p: np.ndarray
    kind: DistributionKind
    values: np.ndarray
    delta: Optional[float] = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        p = np.asarray(self.p, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (x.size, p.size):
            raise ValueError(f"values shape {v.shape} does not match axes")
        for name, arr in (("x", x), ("p", p), ("values", v)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def dp(self) -> float:
        return float(self.p[1] - self.p[0])

    @property
    def weight(self) -> float:
        """Quadrature cell area dx*dp."""
        return self.dx * self.dp

    def normalization(self) -> float:
        return float(np.sum(self.values)) * self.weight


@dataclass(frozen=True)
class CharacteristicGrid:
    """Characteristic function w(u, v, s) on lattices conjugate to (x, p)."""

    u: np.ndarray
    v: np.ndarray
    s: float
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.u.size, self.v.size):
            raise ValueError("values shape does not match (u, v) lattices")


def characteristic(psi: WaveFunction, s: float) -> CharacteristicGrid:
    """w(u, v, s) = <psi| exp(-i*u*x_op - i*v*p_op) |psi> * exp(s*(u^2+v^2)/4).

    The displacement is evaluated through the symmetric operator splitting
    exp(-i*u*x_op) exp(-i*v*p_op) exp(i*u*v/2); the u lattice coincides with
    the momentum lattice, and the v lattice is the position lattice moved by
    the fractional part of x_min/dx (none when x_min/dx is whole), so that
    every v is a whole number of cells and v = 0 is a lattice point.  Row m
    of the integrand, psi(x - v_m), is psi rolled by v_0/dx + m cells, read
    from a sliding window over three copies of psi.  As dx*dp = 2*pi/n,
    u_j*v_m/2 = u_j*v_0/2 + pi*(j - n/2)*m/n, so the chirp exp(i*u*v/2) is a
    phase in u times a 2n-th root of unity from a table, with no n x n exp.
    For s > 0 the factor exp(s*(u^2 + v^2)/4) can make the lattice corners
    non-finite.
    """
    if not (-1.0 <= s <= 1.0):
        raise ValueError(f"s must lie in [-1, 1], got {s}")
    pos = as_position(psi)
    g = pos.grid
    m0, frac = split_cells(g.x_min / g.dx)
    v = g.x - frac * g.dx  # v_m = (m0 + m)*dx
    o = (-m0) % g.n  # row m is window o + n - m: psi rolled by m0 + m cells
    shifted = sliding_window_view(np.tile(pos.amp, 3), g.n)[o + g.n : o : -1]
    overlap = fourier_sum(np.conj(pos.amp) * shifted, g.x, g.p, g.dx, sign=-1, axis=-1)  # (v, u)
    roots = np.exp((1j * math.pi / g.n) * np.arange(2 * g.n))
    overlap *= roots[np.multiply.outer(np.arange(g.n), np.arange(g.n) - g.n // 2) % (2 * g.n)]
    overlap *= np.exp(0.5j * v[0] * g.p)
    overlap *= np.exp(0.25 * s * v**2)[:, None]  # the s-Gaussian, v then u
    overlap *= np.exp(0.25 * s * g.p**2)
    return CharacteristicGrid(u=g.p, v=v, s=float(s), values=overlap.T)


def wigner(psi: WaveFunction) -> PhaseSpaceGrid:
    """W(x, p) = (1/2pi) Int dy exp(i*p*y) psi(x - y/2) psi*(x + y/2).

    The half-point samples of psi come from band-limited interpolation onto a
    doubled lattice (the momentum amplitudes zero-padded to 2n points), so the
    y quadrature runs at spacing dx and the full momentum lattice is
    alias-free.  The lag y = m*dx enters only through exp(i*p*y), which has
    period n in m on the momentum lattice, and a product of two samples
    within the lattice needs |m| < n.  So the lags fold mod n into one n x n
    correlation (two lags per column), and one n-point transform over
    y = 0, dx, ..., (n-1)*dx gives every (x, p) cell.
    """
    pos = as_position(psi)
    g = pos.grid
    n, dx = g.n, g.dx
    phi = np.zeros(2 * n, dtype=np.complex128)
    phi[n // 2 : n // 2 + n] = as_momentum(pos).amp
    xf = g.x_min + (dx / 2.0) * np.arange(2 * n)
    # psi at spacing dx/2 with n zeros on each side: half[n + 2k + m] = psi(x_k + m*dx/2)
    half = np.zeros(4 * n, dtype=np.complex128)
    p_pad = g.dp * np.arange(-n, n)
    half[n : 3 * n] = fourier_sum(phi, p_pad, xf, g.dp / math.sqrt(TWO_PI), sign=+1)
    # row k, column m + n for m in [-n, n): psi*(x_k + m*dx/2) and psi(x_k - m*dx/2)
    ahead = sliding_window_view(np.conj(half), 2 * n)[0 : 2 * n : 2]
    behind = sliding_window_view(half, 2 * n)[1 : 2 * n : 2, ::-1]
    corr = behind[:, n:] * ahead[:, n:]  # column r: lag m = r
    corr += behind[:, :n] * ahead[:, :n]  # and lag m = r - n
    w = fourier_sum(corr, dx * np.arange(n), g.p, dx / TWO_PI, sign=+1, axis=-1)
    resid = float(np.max(np.abs(w.imag)))
    if resid > 1e-10:
        raise ArithmeticError(f"Wigner imaginary residue {resid:g} exceeds 1e-10")
    return PhaseSpaceGrid(x=g.x, p=g.p, kind=DistributionKind.WIGNER, values=w.real)


def husimi(psi: WaveFunction, delta: float = 1.0) -> PhaseSpaceGrid:
    """Q(x, p; delta) = |<x, p; delta|psi>|^2 / (2*pi).

    Evaluated as a Gaussian-windowed Fourier transform of the position
    amplitudes: each x row windows psi with exp(-(x - x')^2/(2*delta)) and
    transforms the result to momentum.
    """
    pos = as_position(psi)
    g = pos.grid
    check_resolved(g, delta)
    rows = gaussian_window(g.x, g.x[:, None], delta) * pos.amp[None, :]
    overlap = fourier_sum(rows, g.x, g.p, g.dx, sign=-1, axis=-1)
    q = (1.0 / TWO_PI) / math.sqrt(delta * math.pi) * np.abs(overlap) ** 2
    return PhaseSpaceGrid(x=g.x, p=g.p, kind=DistributionKind.HUSIMI, values=q, delta=float(delta))


def invert_characteristic(cg: CharacteristicGrid, grid: Grid) -> np.ndarray:
    """(1/(2pi)^2) Int du dv w(u,v) exp(i*u*x + i*v*p) on the grid's (x, p) lattice."""
    du = float(cg.u[1] - cg.u[0])
    dv = float(cg.v[1] - cg.v[0])
    out = fourier_sum(cg.values, cg.u, grid.x, du / TWO_PI, sign=+1, axis=0)
    out = fourier_sum(out, cg.v, grid.p, dv / TWO_PI, sign=+1, axis=1)
    return out


def husimi_via_characteristic(psi: WaveFunction) -> PhaseSpaceGrid:
    """Husimi function through the s = -1 characteristic function (delta = 1 route)."""
    g = as_position(psi).grid
    cg = characteristic(psi, -1.0)
    q = invert_characteristic(cg, g)
    resid = float(np.max(np.abs(q.imag)))
    if resid > 1e-9:
        raise ArithmeticError(f"Husimi inverse-transform imaginary residue {resid:g}")
    return PhaseSpaceGrid(x=g.x, p=g.p, kind=DistributionKind.HUSIMI, values=q.real, delta=1.0)


class MarginalAxis(str, Enum):
    OVER_P = "over_p"  # integrate p out, leaving a function of x
    OVER_X = "over_x"  # integrate x out, leaving a function of p


def marginal(dist: PhaseSpaceGrid, axis: MarginalAxis) -> np.ndarray:
    """Quadrature sum along one axis times the eliminated spacing."""
    if axis is MarginalAxis.OVER_P:
        return np.sum(dist.values, axis=1) * dist.dp
    return np.sum(dist.values, axis=0) * dist.dx


def _polynomial(x: np.ndarray, p: np.ndarray, obs: Observable) -> np.ndarray:
    """The observable as a polynomial in (x, p) on the lattice x[i], p[j].

    It is both the Wigner symbol and the raw Husimi-moment integrand: the
    symbols of x^2 and p^2 carry no ordering constant (pinned by the
    constancy oracle in the test suite).
    """
    return sum_terms(obs, lambda c, a, b: c * x[:, None] ** a * p[None, :] ** b)


def observable_wigner(grid: Grid, obs: Observable) -> PhaseSpaceGrid:
    """Wigner symbol of a polynomial observable, scaled so that
    trace_product(wigner(psi), observable_wigner(grid, A)) = <A>."""
    sym = _polynomial(grid.x, grid.p, obs)
    return PhaseSpaceGrid(
        x=grid.x, p=grid.p, kind=DistributionKind.WIGNER, values=sym / TWO_PI
    )


def trace_product(wa: PhaseSpaceGrid, wb: PhaseSpaceGrid) -> float:
    """Tr(A B) = 2*pi * Int W_A W_B dx dp for Wigner-kind grids on shared axes."""
    if wa.kind is not DistributionKind.WIGNER or wb.kind is not DistributionKind.WIGNER:
        raise ValueError("trace_product requires Wigner-kind grids")
    if wa.values.shape != wb.values.shape or not np.allclose(wa.x, wb.x) or not np.allclose(wa.p, wb.p):
        raise ValueError("trace_product requires matching lattices")
    return TWO_PI * float(np.sum(wa.values * wb.values)) * wa.weight


def moment_correction(obs: Observable, delta: float) -> float:
    """Anti-normal-ordering correction subtracted from the raw Husimi moment.

    It is the noise that the soft position measurement adds: delta/2 on x^2
    and 1/(2*delta) on p^2; first moments and constants need none.  Values
    pinned by the constancy oracle in the test suite.
    """
    width = {(2, 0): delta / 2.0, (0, 2): 1.0 / (2.0 * delta)}
    return sum_terms(obs, lambda c, a, b: c * width.get((a, b), 0.0))


def q_moment(q: PhaseSpaceGrid, obs: Observable) -> float:
    """<A> from the Husimi function: raw polynomial moment minus the ordering correction."""
    if q.kind is not DistributionKind.HUSIMI:
        raise ValueError("q_moment requires a Husimi-kind grid")
    if q.delta is None:
        raise ValueError("Husimi grid is missing its delta parameter")
    raw = float(np.sum(_polynomial(q.x, q.p, obs) * q.values)) * q.weight
    return raw - moment_correction(obs, q.delta)
