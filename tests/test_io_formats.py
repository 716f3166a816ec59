"""The chunked writers and NumPy readers of phaselab.io against the per-cell
reference formats in oracles: identical bytes, equal arrays."""

import re

import numpy as np
import pytest

import oracles
from phaselab import io as plio
from phaselab.core import Basis, Grid, WaveFunction
from phaselab.phasespace import CharacteristicGrid, DistributionKind, PhaseSpaceGrid

# Floats whose text forms differ most between encodings: signed zero, the
# smallest subnormal, extremes of the exponent, 1e16 (repr '1e+16', %.17g
# '10000000000000000') and whole numbers.
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, 1e16, -1e16,
           3.0, -2.0, 1.0, 0.1, 1 / 3, 2.0**-1074 * 3]


def _values(rng, shape):
    size = int(np.prod(shape))
    flat = rng.normal(size=size) * 10.0 ** rng.integers(-20, 20, size=size)
    k = min(size, len(SPECIAL))
    flat[:k] = SPECIAL[:k]
    rng.shuffle(flat)
    return flat.reshape(shape)


@pytest.fixture
def dist(rng):
    n = 16
    g = Grid(n=n, x_min=-4.0, dx=0.5)
    return PhaseSpaceGrid(x=g.x, p=g.p, kind=DistributionKind.HUSIMI,
                          values=_values(rng, (n, n)), delta=0.5)


@pytest.fixture
def psi(rng):
    g = Grid(n=32, x_min=-8.0, dx=0.5)
    return WaveFunction(g, Basis.POSITION, _values(rng, (32,)) + 1j * _values(rng, (32,)))


class TestGoldenBytes:
    def test_distribution_csv(self, dist, tmp_path):
        plio.save_distribution(dist, tmp_path / "d.csv", fmt="csv")
        assert (tmp_path / "d.csv").read_bytes() == oracles.distribution_csv(dist).encode()

    def test_distribution_json(self, dist, tmp_path):
        plio.save_distribution(dist, tmp_path / "d.json", fmt="json")
        assert (tmp_path / "d.json").read_bytes() == oracles.distribution_json(dist).encode()

    def test_characteristic_json(self, rng, tmp_path):
        n = 16
        g = Grid(n=n, x_min=-4.0, dx=0.5)
        cg = CharacteristicGrid(u=g.p, v=g.x, s=-1.0,
                                values=_values(rng, (n, n)) + 1j * _values(rng, (n, n)))
        plio.save_characteristic(cg, tmp_path / "c.json")
        assert (tmp_path / "c.json").read_bytes() == oracles.characteristic_json(cg).encode()

    def test_state_csv(self, psi, tmp_path):
        plio.save_wavefunction(psi, tmp_path / "s.csv", fmt="csv")
        assert (tmp_path / "s.csv").read_bytes() == oracles.state_csv(psi).encode()

    def test_state_json(self, psi, tmp_path):
        plio.save_wavefunction(psi, tmp_path / "s.json")
        assert (tmp_path / "s.json").read_bytes() == oracles.state_json(psi).encode()

    # Shot counts around the chunk size and around 4096, plus 0, 1 and 10_000.
    @pytest.mark.parametrize("shots", sorted({0, 1, 4095, 4096, 4097, 10_000,
                                              plio.CHUNK_ROWS - 1, plio.CHUNK_ROWS,
                                              plio.CHUNK_ROWS + 1}))
    def test_records_csv(self, rng, tmp_path, shots):
        x, p = _values(rng, (shots,)), _values(rng, (shots,))
        plio.save_records(x, p, tmp_path / "records.csv")
        assert (tmp_path / "records.csv").read_bytes() == oracles.records_csv(x, p).encode()


class TestReadersMatchReference:
    def test_distribution_csv(self, tmp_path):
        from phaselab import coherent_state, husimi, make_grid

        dist = husimi(coherent_state(make_grid(128, -16.0, 16.0), 1.0, -0.5, 1.0), 1.0)
        path = tmp_path / "q.csv"
        plio.save_distribution(dist, path, fmt="csv")
        x, p, values = oracles.read_distribution_csv(path.read_text())
        back = plio.load_distribution(path)
        assert np.array_equal(back.x, x)
        assert np.array_equal(back.p, p)
        assert np.array_equal(back.values, values)

    def test_state_csv(self, psi, tmp_path):
        path = tmp_path / "s.csv"
        plio.save_wavefunction(psi, path, fmt="csv")
        xs, amp = oracles.read_state_csv(path.read_text())
        back = plio.load_wavefunction(path)
        assert np.array_equal(back.grid.x[:2], xs[:2])
        assert back.grid.n == xs.size
        assert np.array_equal(back.amp, amp)

    def test_state_csv_keeps_signed_zeros(self, psi, tmp_path):
        path = tmp_path / "s.csv"
        plio.save_wavefunction(psi, path, fmt="csv")
        back = plio.load_wavefunction(path)
        assert np.array_equal(np.signbit(back.amp.imag), np.signbit(psi.amp.imag))
        assert np.array_equal(np.signbit(back.amp.real), np.signbit(psi.amp.real))


# Each refusal of io that no other test reaches: (call writing into a
# directory, message).
REFUSALS = {
    "state-format": (
        lambda out: plio.save_wavefunction(
            WaveFunction(Grid(4, -2.0, 1.0), Basis.POSITION, np.ones(4)), out / "s.xml", fmt="xml"),
        "unknown wavefunction format 'xml'"),
    "distribution-format": (
        lambda out: plio.save_distribution(
            PhaseSpaceGrid(x=np.zeros(2), p=np.zeros(2), kind=DistributionKind.HUSIMI,
                           values=np.zeros((2, 2))), out / "d.xml", fmt="xml"),
        "unknown distribution format 'xml'"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_name_their_cause(tmp_path, case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(tmp_path)
    assert not any(tmp_path.iterdir())
