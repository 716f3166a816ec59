"""Von Neumann pointer realization of the Gaussian position measurement.

A measurement device in a squeezed vacuum state couples to the system through
an impulsive interaction that shifts the device position by g times the system
position.  Reading the device position and the system momentum yields a joint
density equal to the Husimi function; the weak-coupling regime maps onto
delta = 1/g^2 after rescaling the device readout by 1/g.

The uncoupled composite is held as its two factors, the 1-D device Gaussian
and the system state, and the coupling forms only the rows it is asked for,
by one gather of the device Gaussian (see ``_row_gather``).
``pointer_vs_direct`` forms only the n readout rows, in blocks of BLOCK rows,
and reads out (``readout_joint``) and compares each block as it goes, so its
memory does not grow with the device lattice.  ``apply_interaction`` takes
the product that ``make_composite`` returns and fills its bare n_d x n array
BLOCK rows at a time by the same gather, on every device lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BLOCK,
    EDGE_DECAY,
    TWO_PI,
    EnvelopeError,
    Grid,
    WaveFunction,
    as_position,
    check_positive,
    check_resolved,
    fourier_sum,
    gaussian_window,
    split_cells,
)
from .measurement import successive_density

# Most cells n_d x min(n, BLOCK) of a default device lattice, so at most
# 2**26 / min(n, BLOCK) device rows.  The gather's blocks are BLOCK x n whatever
# n_d is; the cap keeps n_d, and with it the device Gaussian (2 n_d floats per
# column offset, one offset on a default lattice) and a whole
# ``apply_interaction`` (n_d x n), finite.
MAX_DEVICE_CELLS = 2**26


@dataclass(frozen=True)
class CouplingSpec:
    """Coupling strength g and device squeeze parameter delta_device."""

    g: float
    delta_device: float = 1.0

    def __post_init__(self):
        check_positive("g", self.g)
        check_positive("delta_device", self.delta_device)


@dataclass(frozen=True)
class ProductWaveFunction:
    """The composite before the coupling, held as its two factors: the device
    Gaussian ``env`` of ``make_composite`` and the system state ``psi``
    (position basis).  Their n_d x n product is ``np.outer(env, psi.amp)``;
    the coupling takes its rows from the factors instead."""

    device_grid: Grid
    env: np.ndarray
    psi: WaveFunction
    delta_device: float


def device_grid_for(system_grid: Grid, spec: CouplingSpec) -> Grid:
    """Default device grid: the system lattice scaled by g, so the rescaled readout
    holds it exactly, widened on each side until the device Gaussian, centred on 0
    before the coupling and on g*x after it, has fallen to EDGE_DECAY."""
    dx_d = spec.g * system_grid.dx
    reach = math.sqrt(2.0 * spec.delta_device * math.log(1.0 / EDGE_DECAY))
    # cell counts as floats first: a tiny g takes them to inf (dx_d to 0), which
    # the cap refuses before math.ceil would fail on it
    left, right = ((reach + max(0.0, edge)) / dx_d if dx_d else math.inf
                   for edge in (spec.g * system_grid.x_min, -spec.g * system_grid.x[-1]))
    n_d = left + system_grid.n + right
    width = min(system_grid.n, BLOCK)
    if n_d * width <= MAX_DEVICE_CELLS:
        left, right = math.ceil(left), math.ceil(right)
        n_d = left + system_grid.n + right
    if n_d * width > MAX_DEVICE_CELLS:
        raise ValueError(f"g = {spec.g} needs a device lattice of {n_d:.4g} x {width} cells, "
                         f"which exceeds {MAX_DEVICE_CELLS} (2**26) cells")
    return Grid(n=n_d, x_min=spec.g * (system_grid.x_min - left * system_grid.dx), dx=dx_d)


def _unit_norm(env: np.ndarray, dx: float) -> np.ndarray:
    """The real amplitude `env` scaled to unit norm on spacing dx."""
    return env / math.sqrt(float(np.sum(env**2)) * dx)


def make_composite(device_grid: Grid, delta: float, psi: WaveFunction) -> ProductWaveFunction:
    """Product of the normalized device Gaussian exp(-x^2/(2*delta)) with the system
    state, held as these two factors."""
    check_resolved(device_grid, delta)
    env = gaussian_window(device_grid.x, 0.0, delta)
    if max(env[0], env[-1]) > EDGE_DECAY:
        raise EnvelopeError("device Gaussian does not decay at the device grid edges")
    env = _unit_norm(env, device_grid.dx)
    env.flags.writeable = False
    return ProductWaveFunction(device_grid, env, as_position(psi), float(delta))


def _row_gather(comp: ProductWaveFunction, g: float):
    """The rows of the coupled composite exp(-i*g*x_sys*p_dev)|comp> as a
    function of the row indices, once the shifted device Gaussian is known to
    stay off the device grid edges.

    Column k moves by c + r*k device cells, c = g*x_min/dx_dev and
    r = g*dx/dx_dev, split into shift_k whole cells and a fraction frac_k in
    [0, 1).  Row i, column k is the device Gaussian at
    x_(i - shift_k mod n_d) - frac_k*dx_dev times psi_k, multiplied as
    ``np.outer`` multiplies.  That Gaussian is sampled once per distinct
    fraction (``env`` itself for 0; fractions within 1e-12 of their
    neighbour, split apart by rounding, count as one), normalised, and
    stored twice in a row, so row i of column k sits at base_k + i with no
    modulo.  This is exact, with no interpolation of the shift;
    ``device_grid_for`` gives r = 1 and one fraction.  The largest amplitude
    of a column is max(its Gaussian) times psi_k, as a gather only permutes
    a column.
    """
    gd, gs = comp.device_grid, comp.psi.grid
    r, r_frac = split_cells(g * gs.dx / gd.dx)
    m0, f = split_cells(g * gs.x_min / gd.dx)
    psi, k = comp.psi.amp, np.arange(gs.n)
    carry, fracs = np.divmod(f + r_frac * k, 1.0)
    fracs, which = np.unique(fracs, return_inverse=True)
    keep = np.r_[True, np.diff(fracs) > 1e-12]
    which, fracs = np.cumsum(keep)[which] - 1, fracs[keep]
    samples = np.empty((fracs.size, 2, gd.n))
    for sample, frac in zip(samples, fracs):
        sample[:] = (_unit_norm(gaussian_window(gd.x, frac * gd.dx, comp.delta_device), gd.dx)
                     if frac else comp.env)
    sample_max = samples[:, 0].max(axis=1)
    shifts = m0 + r * k + carry.astype(np.int64)
    base = which * 2 * gd.n + (-shifts) % gd.n
    samples = samples.reshape(-1)

    def gather(rows: np.ndarray) -> np.ndarray:
        return samples[np.add.outer(rows, base)] * psi

    edge = float(np.max(np.abs(gather(np.array([0, gd.n - 1])))))
    peak = float(np.max(np.abs(sample_max[which] * psi)))
    if edge > 1e-10 * peak:
        raise EnvelopeError(
            f"shifted device envelope reaches the device grid edge (relative edge "
            f"amplitude {edge / peak:.3g}); widen the device grid"
        )
    return gather


def apply_interaction(comp: ProductWaveFunction, g: float) -> np.ndarray:
    """Impulsive coupling exp(-i*g*x_sys*p_dev) of the product that
    ``make_composite`` returns: the n_d x n amplitudes over device position
    (axis 0) x system position (axis 1), the device shifted by g*x_sys on
    every row of the device lattice, filled BLOCK rows at a time by the
    gather of ``_row_gather``."""
    gd, gs = comp.device_grid, comp.psi.grid
    gather = _row_gather(comp, g)
    amp = np.empty((gd.n, gs.n), np.complex128)
    for lo in range(0, gd.n, BLOCK):
        amp[lo : lo + BLOCK] = gather(np.arange(lo, min(lo + BLOCK, gd.n)))
    return amp


def readout_joint(amp: np.ndarray, gs: Grid) -> np.ndarray:
    """Joint density |<p|<x|Psi>|^2 of device position and system momentum,
    on composite rows `amp` (device rows x the system lattice `gs`).  On
    device rows g*x_k, g times it is comparable to the Husimi function with
    delta = delta_device/g^2, g being the Jacobian of the rescaled readout
    x_bar = x/g."""
    return np.abs(fourier_sum(amp, gs.x, gs.p, gs.dx / math.sqrt(TWO_PI), sign=-1, axis=1)) ** 2


def pointer_vs_direct(psi: WaveFunction, spec: CouplingSpec) -> float:
    """L-inf deviation between the rescaled pointer-model joint density and the
    direct successive-measurement density with delta = delta_device/g^2, read
    out on the n device rows whose rescaled positions are the system lattice.

    Only those rows of the coupled composite are formed, by the gather of
    ``_row_gather``: ``device_grid_for`` puts row left + k at g*x_k.  Each
    block of BLOCK rows is read out by ``readout_joint``, scaled by the
    Jacobian g of the rescaled readout and compared with the same rows of the
    direct density; the device lattice enters only as its 1-D Gaussian.
    """
    pos = as_position(psi)
    sg = pos.grid
    dg = device_grid_for(sg, spec)
    comp = make_composite(dg, spec.delta_device, pos)
    left = round((spec.g * sg.x_min - dg.x_min) / dg.dx)
    direct = successive_density(pos, spec.delta_device / spec.g**2).values
    gather = _row_gather(comp, spec.g)
    deviation = 0.0
    for lo in range(0, sg.n, BLOCK):
        # amp and joint stay named: with either inlined, one n = 256 call takes
        # about 670 minor page faults instead of 544
        amp = gather(np.arange(left + lo, left + min(lo + BLOCK, sg.n)))
        joint = spec.g * readout_joint(amp, sg)
        deviation = max(deviation, float(np.max(np.abs(joint - direct[lo : lo + BLOCK]))))
    return deviation
