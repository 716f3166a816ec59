"""Von Neumann pointer realization of the Gaussian position measurement.

A measurement device in a squeezed vacuum state couples to the system through
an impulsive interaction that shifts the device position by g times the system
position.  Reading the device position and the system momentum yields a joint
density equal to the Husimi function; the weak-coupling regime maps onto
delta = 1/g^2 after rescaling the device readout by 1/g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EDGE_DECAY,
    TWO_PI,
    EnvelopeError,
    Grid,
    WaveFunction,
    as_position,
    check_resolved,
    fourier_sum,
    gaussian_window,
    split_cells,
)
from .measurement import successive_density
from .phasespace import DistributionKind, PhaseSpaceGrid

# Most device x system cells of a default device lattice: 1 GiB per complex array.
MAX_DEVICE_CELLS = 2**26


@dataclass(frozen=True)
class CouplingSpec:
    """Coupling strength g and device squeeze parameter delta_device."""

    g: float
    delta_device: float = 1.0

    def __post_init__(self):
        if self.g <= 0.0:
            raise ValueError(f"g must be positive, got {self.g}")
        if self.delta_device <= 0.0:
            raise ValueError(f"delta_device must be positive, got {self.delta_device}")


@dataclass(frozen=True)
class CompositeWaveFunction:
    """Amplitudes over device position (axis 0) x system position (axis 1)."""

    device_grid: Grid
    system_grid: Grid
    amp: np.ndarray
    delta_device: float

    def __post_init__(self):
        amp = np.asarray(self.amp, dtype=np.complex128)
        if amp.shape != (self.device_grid.n, self.system_grid.n):
            raise ValueError(f"composite amplitude shape {amp.shape} does not match grids")
        amp.flags.writeable = False
        object.__setattr__(self, "amp", amp)

    def norm(self) -> float:
        return math.sqrt(
            float(np.sum(np.abs(self.amp) ** 2)) * self.device_grid.dx * self.system_grid.dx
        )


def device_grid_for(system_grid: Grid, spec: CouplingSpec) -> Grid:
    """Default device grid: the system lattice scaled by g, so the rescaled readout
    holds it exactly, widened on each side until the device Gaussian, centred on 0
    before the coupling and on g*x after it, has fallen to EDGE_DECAY."""
    dx_d = spec.g * system_grid.dx
    reach = math.sqrt(2.0 * spec.delta_device * math.log(1.0 / EDGE_DECAY))
    left = math.ceil((reach + max(0.0, spec.g * system_grid.x_min)) / dx_d)
    right = math.ceil((reach + max(0.0, -spec.g * system_grid.x[-1])) / dx_d)
    n_d = left + system_grid.n + right
    if n_d * system_grid.n > MAX_DEVICE_CELLS:
        raise ValueError(f"device lattice {n_d} x {system_grid.n} exceeds {MAX_DEVICE_CELLS} cells")
    return Grid(n=n_d, x_min=spec.g * (system_grid.x_min - left * system_grid.dx), dx=dx_d)


def make_composite(device_grid: Grid, delta: float, psi: WaveFunction) -> CompositeWaveFunction:
    """Product of the normalized device Gaussian exp(-x^2/(2*delta)) with the system state."""
    check_resolved(device_grid, delta)
    env = gaussian_window(device_grid.x, 0.0, delta)
    if max(env[0], env[-1]) > EDGE_DECAY:
        raise EnvelopeError("device Gaussian does not decay at the device grid edges")
    env = env / math.sqrt(float(np.sum(env**2)) * device_grid.dx)
    pos = as_position(psi)
    amp = np.outer(env, pos.amp)
    return CompositeWaveFunction(
        device_grid=device_grid,
        system_grid=pos.grid,
        amp=amp,
        delta_device=float(delta),
    )


def apply_interaction(comp: CompositeWaveFunction, g: float) -> CompositeWaveFunction:
    """Impulsive coupling exp(-i*g*x_sys*p_dev): shifts the device by g*x_sys.

    Column k moves by c + r*k device cells, c = g*x_min/dx_dev, r = g*dx/dx_dev.
    Where c and r are whole numbers, r >= 1 (within 1e-9; ``device_grid_for``
    gives r = 1), that is a circular roll of each column: exact, as the phase
    exp(-i*m*dx_dev*p) of a whole m-cell shift is that roll.  Else each column
    gets its own momentum-space phase.
    """
    gd, gs = comp.device_grid, comp.system_grid
    if g == 0.0:
        return comp
    r, r_frac = split_cells(g * gs.dx / gd.dx)
    m0, frac = split_cells(g * gs.x_min / gd.dx)
    if r >= 1 and r_frac == 0.0 and frac == 0.0:
        # (i, k) <- row (i - m0 - r*k) mod n_d of column k, a flat index mod the size
        amp = np.take(comp.amp.reshape(-1), mode="wrap", indices=np.add.outer(
            (np.arange(gd.n) - m0) * gs.n, (1 - r * gs.n) * np.arange(gs.n)))
    else:
        phi = fourier_sum(comp.amp, gd.x, gd.p, gd.dx / math.sqrt(TWO_PI), sign=-1, axis=0)
        phi = phi * np.exp(-1j * g * np.outer(gd.p, gs.x))
        amp = fourier_sum(phi, gd.p, gd.x, gd.dp / math.sqrt(TWO_PI), sign=+1, axis=0)
    out = CompositeWaveFunction(gd, gs, amp, comp.delta_device)
    edge = max(float(np.max(np.abs(amp[0]))), float(np.max(np.abs(amp[-1]))))
    if edge > 1e-10 * float(np.max(np.abs(amp))):
        raise EnvelopeError(
            f"shifted device envelope reaches the device grid edge (relative edge "
            f"amplitude {edge / float(np.max(np.abs(amp))):.3g}); widen the device grid"
        )
    return out


def readout_joint(comp: CompositeWaveFunction) -> PhaseSpaceGrid:
    """Joint density of device position and system momentum, |<p|<x|Psi>|^2."""
    gd, gs = comp.device_grid, comp.system_grid
    phi = fourier_sum(comp.amp, gs.x, gs.p, gs.dx / math.sqrt(TWO_PI), sign=-1, axis=1)
    return PhaseSpaceGrid(
        x=gd.x,
        p=gs.p,
        kind=DistributionKind.HUSIMI,
        values=np.abs(phi) ** 2,
        delta=comp.delta_device,
    )


def weak_rescale(joint: PhaseSpaceGrid, g: float) -> PhaseSpaceGrid:
    """Substitute the rescaled readout x_bar = x/g, with the Jacobian factor g
    keeping the density normalized; comparable to the Husimi function with
    delta = delta_device/g^2."""
    if g <= 0.0:
        raise ValueError(f"g must be positive, got {g}")
    delta = None if joint.delta is None else joint.delta / g**2
    return PhaseSpaceGrid(
        x=joint.x / g, p=joint.p, kind=joint.kind, values=g * joint.values, delta=delta
    )


def pointer_vs_direct(psi: WaveFunction, spec: CouplingSpec) -> float:
    """L-inf deviation between the rescaled pointer-model joint density and the
    direct successive-measurement density with delta = delta_device/g^2, read
    out on the n device rows whose rescaled positions are the system lattice."""
    pos = as_position(psi)
    sg = pos.grid
    dg = device_grid_for(sg, spec)
    comp = apply_interaction(make_composite(dg, spec.delta_device, pos), spec.g)
    left = round((spec.g * sg.x_min - dg.x_min) / dg.dx)
    rows = Grid(n=sg.n, x_min=float(dg.x[left]), dx=dg.dx)
    comp = CompositeWaveFunction(rows, sg, comp.amp[left : left + sg.n], spec.delta_device)
    joint = weak_rescale(readout_joint(comp), spec.g)
    if not np.allclose(joint.x, sg.x, atol=1e-9):
        raise AssertionError("rescaled device lattice does not contain the system lattice")
    direct = successive_density(pos, spec.delta_device / spec.g**2)
    return float(np.max(np.abs(joint.values - direct.values)))
