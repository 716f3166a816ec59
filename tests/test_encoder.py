"""The vectorised float-to-text encoder of phaselab.io against Python's own
formatters: ``json.dumps`` (repr) and ``'%.17g' %``, byte for byte."""

import json

import numpy as np
import pytest

import oracles
from conftest import random_state
from phaselab import characteristic, husimi, make_grid, wigner
from phaselab import io as plio


def _texts(values, shortest):
    fields, _ = plio._encode(values, shortest)
    return plio._text([fields, b"\n"], (fields.shape[0],)).decode().split("\n")[:-1]


def _python(values, shortest):
    return [json.dumps(v) if shortest else "%.17g" % v for v in np.asarray(values).tolist()]


def _edges():
    """Zeros, non-finite values, subnormals, the extremes, powers of 2 and 10
    with their neighbours, integers near 2**53, 1e16/1e17 and 9.99...e22 carries,
    and m * 10**k for m of 1 to 17 digits at every fixed-point exponent and at
    two- and three-digit exponents of both signs."""
    vals = [0.0, np.inf, np.nan, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
            np.finfo(np.float64).max, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**54 + 4,
            1e16, 1e17, 9.999999999999999e22, 9.9999999999999999e22, 1 + 2.0**-17,
            0.0001, 0.00001, 0.1, 0.5, 1.0, 123.0, 1234567890123456.0, 12345678901234567.0]
    for k in range(-1074, 1024, 3):
        x = 2.0**k
        vals += [x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)]
    for k in range(-323, 309):
        x = float(f"1e{k}")
        vals += [x, np.nextafter(x, 0.0), np.nextafter(x, np.inf), 9.999999999999999 * x]
    for digits in range(1, 18):  # nine last digits, as %.17g shortens only some values
        for last in "123456789":
            m = "1234567891234567"[: digits - 1] + last
            for e in (*range(-7, 20), -300, -100, -99, 99, 100, 300):
                vals.append(float(f"{m}e{e - digits + 1}"))
    vals = np.array([v for v in vals if not np.isinf(v) or v > 0])
    return np.concatenate([vals, -vals])


@pytest.mark.parametrize("shortest", [False, True], ids=["%.17g", "repr"])
class TestAgainstPython:
    def test_random_bit_patterns(self, shortest):
        bits = np.random.default_rng(8).integers(0, 2**64 - 1, size=200_000, dtype=np.uint64,
                                                 endpoint=True)
        values = bits.view(np.float64)
        assert _texts(values, shortest) == _python(values, shortest)

    def test_edge_values(self, shortest):
        values = _edges()
        assert _texts(values, shortest) == _python(values, shortest)

    def test_fallback_route(self, shortest, monkeypatch):
        # a margin wider than every boundary hands each finite value to Python's formatter
        values = np.concatenate([_edges(), np.random.default_rng(3).normal(size=1000)])
        monkeypatch.setattr(plio, "_MARGIN", 1.0)
        _, doubt = plio._encode(values, shortest)
        assert doubt[values != 0].all()
        assert _texts(values, shortest) == _python(values, shortest)


def test_ties_and_specials_take_the_fallback():
    # 1 + 2**-17 = 1.00000762939453125 ties at 17 digits; 2**-1 has a smaller gap below
    values = np.array([1 + 2.0**-17, np.nan, -np.inf, 0.5, 0.3])
    _, doubt = plio._encode(values, False)
    assert doubt.tolist() == [True, True, True, False, False]
    _, doubt = plio._encode(values, True)
    assert doubt.tolist() == [True, True, True, True, False]


def test_integers():
    ints = np.concatenate([np.arange(20_000), [10**16, 10**17 - 1]])
    fields = plio._encode_ints(ints)
    text = plio._text([fields, b"\n"], (ints.size,)).decode().split("\n")[:-1]
    assert text == ["%d" % i for i in ints.tolist()]


def test_fallback_share_on_husimi_grid(rng):
    values = husimi(random_state(make_grid(256, -16.0, 16.0), rng), 1.0).values
    for shortest in (False, True):
        _, doubt = plio._encode(values, shortest)
        assert doubt.mean() < 1e-3


class TestWritersAtN256:
    """Whole artifacts at n = 256 against the per-cell reference writers."""

    @pytest.fixture
    def psi(self, rng):
        return random_state(make_grid(256, -16.0, 16.0), rng)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_distribution(self, psi, tmp_path, fmt):
        for dist in (husimi(psi, 1.0), wigner(psi)):
            path = tmp_path / f"d.{fmt}"
            plio.save_distribution(dist, path, fmt=fmt)
            writer = oracles.distribution_csv if fmt == "csv" else oracles.distribution_json
            assert path.read_bytes() == writer(dist).encode()

    def test_characteristic(self, psi, tmp_path):
        cg = characteristic(psi, -1.0)
        plio.save_characteristic(cg, tmp_path / "c.json")
        assert (tmp_path / "c.json").read_bytes() == oracles.characteristic_json(cg).encode()

    def test_records(self, psi, tmp_path, rng):
        from phaselab import sample_joint

        result = sample_joint(psi, 1.0, 256 * 256, seed=int(rng.integers(1000)))
        x, p = result.x, result.p
        plio.save_records(x, p, tmp_path / "records.csv")
        assert (tmp_path / "records.csv").read_bytes() == oracles.records_csv(x, p).encode()
