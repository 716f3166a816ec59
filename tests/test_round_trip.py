"""Every artifact writer against its reader: each writer x format x kind
reloads with the bits of its values and the header fields its format
carries.  The lattices have steps exact in binary, so that the JSON axis
rebuild (x_min + dx*k) keeps every bit; see README, File formats."""

import numpy as np
import pytest

from phaselab import coherent_state, make_grid
from phaselab import io as plio
from phaselab.core import Basis, Grid, WaveFunction
from phaselab.phasespace import CharacteristicGrid, DistributionKind, PhaseSpaceGrid, characteristic

# Signed zeros, a subnormal, extremes of the exponent and values whose texts
# differ most between the two encodings.
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e-300, 1e16, 0.1, 1 / 3, 3.0]


def _values(rng, size):
    values = rng.normal(size=size) * 10.0 ** rng.integers(-20, 20, size=size)
    values[: len(SPECIAL)] = SPECIAL
    return rng.permutation(values)


def _same_bits(a, b):
    """Equal bits, except that a NaN, whose sign and payload no text carries,
    matches any NaN."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


def _state(rng, basis):
    grid = Grid(n=16, x_min=-4.0, dx=0.5)
    return WaveFunction(grid, basis, _values(rng, 16) + 1j * _values(rng, 16))


def _distribution(rng, kind, delta):
    x, p = -1.5 + 0.25 * np.arange(8), -2.0 + 0.5 * np.arange(6)
    return PhaseSpaceGrid(x=x, p=p, kind=kind, values=_values(rng, 48).reshape(8, 6), delta=delta)


def _characteristic(s):
    """The kernel's values at order s (non-finite at the corners when s = 1),
    with signed zeros and infinite parts in row 1, on lattices with exact steps."""
    cg = characteristic(coherent_state(make_grid(256, -4.0, 4.0), 0.3, 2.0, 0.1), s)
    values = cg.values.copy()
    values[1, :4] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-np.inf, -0.0),
                     complex(0.5, np.inf)]
    return CharacteristicGrid(u=-64.0 + 0.5 * np.arange(256), v=cg.v, s=cg.s, values=values)


@pytest.mark.parametrize("fmt, sidecar, basis", [
    ("json", False, Basis.POSITION), ("json", False, Basis.MOMENTUM),
    ("json", True, Basis.POSITION), ("json", True, Basis.MOMENTUM),
    ("csv", False, Basis.POSITION),  # CSV state files are position-basis only
], ids=["json-position", "json-momentum", "sidecar-position", "sidecar-momentum", "csv"])
def test_state(tmp_path, rng, fmt, sidecar, basis):
    psi = _state(rng, basis)
    path = tmp_path / f"state.{fmt}"
    plio.save_wavefunction(psi, path, fmt=fmt, binary_sidecar=sidecar)
    back = plio.load_wavefunction(path)
    assert (back.grid, back.basis) == (psi.grid, psi.basis)
    assert back.amp.tobytes() == psi.amp.tobytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("kind", list(DistributionKind))
@pytest.mark.parametrize("delta", [None, 2.0])
def test_distribution(tmp_path, rng, fmt, kind, delta):
    dist = _distribution(rng, kind, delta)
    path = tmp_path / f"d.{fmt}"
    plio.save_distribution(dist, path, fmt=fmt)
    back = plio.load_distribution(path)
    assert _same_bits(back.values, dist.values)
    assert back.x.tobytes() == dist.x.tobytes() and back.p.tobytes() == dist.p.tobytes()
    if fmt == "json":
        assert (back.kind, back.delta) == (kind, delta)
    else:  # the CSV layout carries no kind or delta
        assert (back.kind, back.delta) == (DistributionKind.HISTOGRAM, None)


@pytest.mark.parametrize("s", [-1.0, 0.0, 1.0])
def test_characteristic(tmp_path, s):
    cg = _characteristic(s)
    assert np.isfinite(cg.values[2:]).all() == (s < 1.0)
    path = tmp_path / "characteristic.json"
    plio.save_characteristic(cg, path)
    back = plio.load_characteristic(path)
    assert back.s == s
    assert back.u.tobytes() == cg.u.tobytes() and back.v.tobytes() == cg.v.tobytes()
    assert back.values.dtype == np.complex128
    assert _same_bits(back.values.real, cg.values.real)
    assert _same_bits(back.values.imag, cg.values.imag)
