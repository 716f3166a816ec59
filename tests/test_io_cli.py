import json
import math
import re
import warnings

import numpy as np
import pytest

from conftest import traced_peak
from phaselab import cli, coherent_state, fock_state, husimi, make_grid, measurement, wigner
from phaselab import io as plio
from phaselab.cli import RunConfig, main
from phaselab.core import Basis, Grid, WaveFunction, as_momentum
from phaselab.io import (
    load_distribution,
    load_wavefunction,
    save_characteristic,
    save_distribution,
    save_wavefunction,
)
from phaselab.phasespace import CharacteristicGrid, DistributionKind, PhaseSpaceGrid


class TestWavefunctionIO:
    def test_json_roundtrip_position(self, grid, tmp_path, rng):
        from conftest import random_state

        psi = random_state(grid, rng)
        path = tmp_path / "state.json"
        save_wavefunction(psi, path)
        back = load_wavefunction(path)
        assert back.basis is Basis.POSITION
        assert back.grid == psi.grid
        assert np.array_equal(back.amp, psi.amp)

    def test_json_roundtrip_momentum(self, grid, vacuum, tmp_path):
        phi = as_momentum(vacuum)
        path = tmp_path / "state.json"
        save_wavefunction(phi, path)
        back = load_wavefunction(path)
        assert back.basis is Basis.MOMENTUM
        assert np.array_equal(back.amp, phi.amp)

    def test_binary_sidecar_roundtrip(self, grid, vacuum, tmp_path):
        path = tmp_path / "state.json"
        save_wavefunction(vacuum, path, binary_sidecar=True)
        assert (tmp_path / "state.json.bin").exists()
        assert "amp_file" in json.loads(path.read_text())
        back = load_wavefunction(path)
        assert np.array_equal(back.amp, vacuum.amp)

    def test_csv_roundtrip(self, grid, tmp_path):
        psi = coherent_state(grid, 1.0, -0.5, 2.0)
        path = tmp_path / "state.csv"
        save_wavefunction(psi, path, fmt="csv")
        back = load_wavefunction(path)
        assert back.grid.n == grid.n
        assert back.grid.x_min == pytest.approx(grid.x_min)
        assert np.max(np.abs(back.amp - psi.amp)) < 1e-15

    def test_misnamed_csv_reads_as_csv(self, grid, tmp_path):
        psi = coherent_state(grid, 1.0, -0.5, 2.0)
        save_wavefunction(psi, tmp_path / "s.csv", fmt="csv")
        path = tmp_path / "s.json"
        path.write_bytes((tmp_path / "s.csv").read_bytes())
        back, want = load_wavefunction(path), load_wavefunction(tmp_path / "s.csv")
        assert back.grid == want.grid and back.basis is want.basis
        assert back.amp.tobytes() == want.amp.tobytes()

    def test_csv_refuses_binary_sidecar(self, vacuum, tmp_path):
        with pytest.raises(ValueError, match="sidecar"):
            save_wavefunction(vacuum, tmp_path / "s.csv", fmt="csv", binary_sidecar=True)
        assert list(tmp_path.iterdir()) == []

    def test_csv_rejects_momentum_basis(self, vacuum, tmp_path):
        with pytest.raises(ValueError):
            save_wavefunction(as_momentum(vacuum), tmp_path / "state.csv", fmt="csv")

    def test_rerun_identical_bytes(self, grid, vacuum, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_wavefunction(vacuum, a)
        save_wavefunction(vacuum, b)
        assert a.read_bytes() == b.read_bytes()

    @staticmethod
    def _write_state_csv(path, xs):
        rows = "".join(f"{float(x)!r},{1.0 / len(xs)!r},0.0\n" for x in xs)
        path.write_text("x,re,im\n" + rows)

    def test_csv_rejects_size_not_power_of_two(self, tmp_path):
        path = tmp_path / "state.csv"
        self._write_state_csv(path, -3.0 + 0.125 * np.arange(48))
        with pytest.raises(ValueError, match="power of two"):
            load_wavefunction(path)

    def test_csv_rejects_non_uniform_spacing(self, tmp_path):
        xs = -4.0 + 0.125 * np.arange(64)
        xs[40] += 0.01
        path = tmp_path / "state.csv"
        self._write_state_csv(path, xs)
        with pytest.raises(ValueError, match="uniform"):
            load_wavefunction(path)

    def test_cli_reports_bad_state_csv(self, tmp_path, capsys):
        path = tmp_path / "state.csv"
        self._write_state_csv(path, -3.0 + 0.125 * np.arange(48))
        code = main(["dist", "--state", str(path), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [") and err.count("\n") == 1
        assert "power of two" in err

    @pytest.mark.parametrize("name", ["../secret.bin", "/tmp/secret.bin", "sub/state.json.bin",
                                      "..", ".", "", "missing.bin"])
    def test_sidecar_must_be_a_sibling_name(self, vacuum, tmp_path, name):
        state_dir = tmp_path / "run"
        state_dir.mkdir()
        path = state_dir / "state.json"
        save_wavefunction(vacuum, path, binary_sidecar=True)
        (tmp_path / "secret.bin").write_bytes((state_dir / "state.json.bin").read_bytes())
        header = json.loads(path.read_text())
        header["amp_file"] = name
        path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match="amp_file"):
            load_wavefunction(path)

    @pytest.mark.parametrize("doc", ["{}", "[]", '{"n": 16, "x_min": -4.0, "dx": 0.5, "basis": "position"}'])
    def test_json_header_missing_field_one_line_error(self, tmp_path, capsys, doc):
        path = tmp_path / "state.json"
        path.write_text(doc)
        assert main(["dist", "--state", str(path), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [") and err.count("\n") == 1

    @pytest.mark.parametrize("extra", [-1, 1, 2])
    def test_sidecar_must_hold_2n_floats(self, vacuum, tmp_path, extra):
        path = tmp_path / "state.json"
        save_wavefunction(vacuum, path, binary_sidecar=True)
        sidecar = tmp_path / "state.json.bin"
        data = np.fromfile(sidecar, dtype="<f8")
        data = data[:extra] if extra < 0 else np.concatenate([data, np.zeros(extra)])
        data.astype("<f8").tofile(sidecar)
        with pytest.raises(ValueError, match="2n"):
            load_wavefunction(path)


class TestDistributionIO:
    def test_json_roundtrip(self, grid, vacuum, tmp_path):
        dist = husimi(vacuum, 0.5)
        path = tmp_path / "q.json"
        save_distribution(dist, path, fmt="json")
        back = load_distribution(path)
        assert back.kind is dist.kind
        assert back.delta == dist.delta
        assert np.allclose(back.x, dist.x, atol=1e-12)
        assert np.array_equal(back.values, dist.values)

    def test_csv_roundtrip(self, vacuum, tmp_path):
        dist = wigner(vacuum)
        path = tmp_path / "w.csv"
        save_distribution(dist, path, fmt="csv")
        back = load_distribution(path)
        assert np.max(np.abs(back.values - dist.values)) < 1e-18
        assert np.allclose(back.x, dist.x, atol=1e-12)
        assert np.allclose(back.p, dist.p, atol=1e-12)

    def test_csv_is_lossy_for_kind_and_delta(self, vacuum, tmp_path):
        path = tmp_path / "q.csv"
        save_distribution(husimi(vacuum, 0.5), path, fmt="csv")
        back = load_distribution(path)
        assert back.kind is DistributionKind.HISTOGRAM
        assert back.delta is None

    def test_json_peak_memory_streams_rows(self, tmp_path):
        n = 1024
        g = Grid(n=n, x_min=-16.0, dx=32.0 / n)
        dist = PhaseSpaceGrid(x=g.x, p=g.p, kind=DistributionKind.WIGNER,
                              values=np.random.default_rng(5).normal(size=(n, n)))
        path = tmp_path / "w.json"
        assert traced_peak(lambda: save_distribution(dist, path, fmt="json")) < 16 * 2**20

    def test_csv_and_characteristic_peak_memory_is_bounded(self, tmp_path):
        n = 1024
        g = Grid(n=n, x_min=-16.0, dx=32.0 / n)
        rng = np.random.default_rng(6)
        dist = PhaseSpaceGrid(x=g.x, p=g.p, kind=DistributionKind.HUSIMI,
                              values=rng.normal(size=(n, n)))
        cg = CharacteristicGrid(u=g.p, v=g.x, s=-1.0,
                                values=rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        for save in (lambda: save_distribution(dist, tmp_path / "q.csv", fmt="csv"),
                     lambda: save_characteristic(cg, tmp_path / "c.json")):
            assert traced_peak(save) < 8 * 2**20

    @pytest.mark.parametrize("body", [
        "1,2\n",
        "0,0,1\n0,1\n",
        "0,0,1\n0,1,2\n1,0,3\n",
        "0,0,1\n0,1,2\n1,1,3\n1,0,4\n",
        "0,0,abc\n",
        "",
    ], ids=["short-row", "ragged", "non-rectangular", "not-row-major", "non-numeric", "empty"])
    def test_csv_malformed_raises_value_error(self, tmp_path, body):
        path = tmp_path / "d.csv"
        path.write_text("x,p,value\n" + body)
        with pytest.raises(ValueError):
            load_distribution(path)

    def test_json_missing_field_names_it(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="'n'"):
            load_distribution(path)


class TestRunConfig:
    def test_json_roundtrip_lossless(self):
        cfg = RunConfig(grid_n=128, x_min=-8.0, x_max=8.0, state="fock 3",
                        delta=0.25, g=0.5, shots=17, seed=99, bins=(16, 8),
                        out="runs/a", format="csv")
        assert RunConfig.from_json(cfg.to_json()) == cfg


class TestCmdState:
    def test_coherent_metadata(self, tmp_path):
        assert main(["state", "--state", "coherent 0 0 1", "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "state.meta.json").read_text())
        assert meta["norm"] == pytest.approx(1.0, abs=1e-9)
        assert meta["mean_x"] == pytest.approx(0.0, abs=1e-9)
        assert meta["var_x"] == pytest.approx(0.5, abs=1e-6)

    def test_cat_state_normalized(self, tmp_path):
        assert main(["state", "--state", "cat 3 1", "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "state.meta.json").read_text())
        assert meta["norm"] == pytest.approx(1.0, abs=1e-9)

    def test_fock_25_rejected(self, tmp_path, capsys):
        assert main(["state", "--state", "fock 25", "--out", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        "coherent 0", "coherent", "coherent 0 0 1 2", "coherent a 0",
        "fock", "fock 1 2", "fock x", "fock 1.5", "cat", "cat 1 1 1", "cat b", "",
    ])
    def test_malformed_spec_one_line_error(self, tmp_path, capsys, spec):
        assert main(["dist", "--state", spec, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [cli]: ") and err.count("\n") == 1

    def test_spec_wins_over_file_of_same_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_wavefunction(coherent_state(make_grid(256, -16.0, 16.0), 3.0, 0.0, 1.0), "fock 1")
        assert main(["state", "--state", "fock 1", "--out", "run"]) == 0
        meta = json.loads((tmp_path / "run" / "state.meta.json").read_text())
        assert meta["mean_x"] == pytest.approx(0.0, abs=1e-9)
        assert meta["var_x"] == pytest.approx(1.5, abs=1e-6)

    def test_malformed_spec_not_read_as_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        save_wavefunction(coherent_state(make_grid(256, -16.0, 16.0), 0.0, 0.0, 1.0), "cat")
        assert main(["state", "--state", "cat", "--out", "run"]) == 1
        assert capsys.readouterr().err.startswith("error [cli]: state spec 'cat'")

    def test_other_value_is_a_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_wavefunction(coherent_state(make_grid(128, -8.0, 8.0), 0.25, 0.0, 1.0), "fockish 1")
        assert main(["state", "--state", "fockish 1", "--out", "run"]) == 0
        meta = json.loads((tmp_path / "run" / "state.meta.json").read_text())
        assert meta["mean_x"] == pytest.approx(0.25, abs=1e-9)
        assert json.loads((tmp_path / "run" / "state.json").read_text())["n"] == 128

    def test_state_file_feeds_dist(self, tmp_path):
        assert main(["state", "--state", "coherent 1 0 1", "--out", str(tmp_path)]) == 0
        code = main([
            "dist", "--which", "husimi",
            "--state", str(tmp_path / "state.json"), "--out", str(tmp_path),
        ])
        assert code == 0


class TestCmdDist:
    def test_husimi_vacuum_summary(self, tmp_path):
        assert main(["dist", "--which", "husimi", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "husimi.summary.json").read_text())
        assert summary["pass"] is True
        assert summary["min_value"] >= -1e-12
        assert summary["normalization"] == pytest.approx(1.0, abs=1e-6)

    def test_wigner_fock1_flags_negativity(self, tmp_path):
        code = main(["dist", "--which", "wigner", "--state", "fock 1", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "wigner.summary.json").read_text())
        assert summary["negativity_flagged"] is True
        assert summary["min_value"] < 0

    def test_characteristic_origin(self, tmp_path):
        code = main(["dist", "--which", "characteristic", "--s", "-1", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "characteristic.summary.json").read_text())
        re, im = summary["origin_value"]
        assert complex(re, im) == pytest.approx(1.0, abs=1e-9)

    def test_characteristic_origin_on_fractional_domain(self, tmp_path):
        # x_min/dx is a fractional number of cells; the v lattice still holds v = 0
        code = main(["dist", "--which", "characteristic", "--x-min", "-15", "--x-max", "17.3",
                     "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "characteristic.summary.json").read_text())
        re, im = summary["origin_value"]
        assert complex(re, im) == pytest.approx(1.0, abs=1e-9)

    def test_non_finite_characteristic_fails(self, tmp_path):
        # s = 1 overflows exp(s*(u^2 + v^2)/4) at the corners of the n = 1024 lattice
        code = main(["dist", "--which", "characteristic", "--s", "1", "--grid-n", "1024",
                     "--out", str(tmp_path)])
        assert code == 1
        summary = json.loads((tmp_path / "characteristic.summary.json").read_text())
        assert summary["pass"] is False

    def test_under_resolved_delta_errors(self, tmp_path, capsys):
        code = main(["dist", "--which", "husimi", "--delta", "0.001", "--out", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_positive_s_fails_without_numpy_warnings(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["dist", "--which", "characteristic", "--s", "1", "--grid-n", "512",
                         "--x-min", "-8", "--x-max", "8", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == ""


class TestCmdSample:
    def test_zero_shots_skipped(self, tmp_path):
        assert main(["sample", "--shots", "0", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "sample.report.json").read_text())
        assert report["status"] == "SKIPPED"
        assert (tmp_path / "records.csv").read_text() == "shot,x,p\n"

    def test_sampling_run_passes(self, tmp_path):
        code = main(["sample", "--shots", "20000", "--seed", "42", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "sample.report.json").read_text())
        assert report["status"] == "PASS"
        assert report["tv"] < report["threshold"]

    def test_rerun_byte_identical_records(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["sample", "--shots", "5000", "--seed", "7", "--out", str(out)]) == 0
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()

    def test_shot_count_too_large_to_hold_one_line_error(self, tmp_path, capsys):
        assert main(["sample", "--shots", str(10**20), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error [phaselab]: shots = {10**20} needs 1.6e+21 bytes "
                       "for its x and p outcomes\n")
        assert not (tmp_path / "records.csv").exists()

    def test_non_positive_delta_one_line_error(self, tmp_path, capsys):
        assert main(["sample", "--delta", "-1", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [") and err.count("\n") == 1
        assert "delta must be positive" in err

    def test_exhausted_redraws_one_line_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(measurement, "MIN_COLLAPSE_NORM", 10.0)
        code = main(["sample", "--grid-n", "64", "--x-min", "-8", "--x-max", "8",
                     "--shots", "100", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [measurement]: ") and err.count("\n") == 1


class TestErrorOrigin:
    """An under-resolved delta is tagged with the module that checked it."""

    @pytest.mark.parametrize("argv, origin", [
        (["dist", "--which", "husimi", "--delta", "0.001"], "phasespace"),
        (["sample", "--delta", "0.001"], "measurement"),
        (["pointer", "--g", "1", "--delta-device", "1", "--state", "{state}"], "pointer"),
    ], ids=["dist", "sample", "pointer"])
    def test_resolution_error_names_the_module(self, tmp_path, capsys, argv, origin):
        grid = make_grid(64, -15.0, 17.3)
        state = tmp_path / "state.json"
        amp = np.exp(-(grid.x**2) / 2.0) + 0j
        save_wavefunction(WaveFunction(grid, Basis.POSITION, amp), state)
        argv = [str(state) if a == "{state}" else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [{origin}]: delta = ") and err.count("\n") == 1


class TestCmdPointer:
    def test_vacuum_unit_coupling_passes(self, tmp_path):
        code = main(["pointer", "--g", "1", "--delta-device", "1", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "pointer.report.json").read_text())
        assert report["status"] == "PASS"
        assert report["max_deviation"] < 1e-5

    def test_cat_weak_coupling_passes(self, tmp_path):
        code = main(["pointer", "--state", "cat 2 1", "--g", "0.5", "--out", str(tmp_path)])
        assert code == 0
        assert json.loads((tmp_path / "pointer.report.json").read_text())["status"] == "PASS"

    def test_bad_state_errors_cleanly(self, tmp_path, capsys):
        code = main(["pointer", "--state", "fock 25", "--out", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_weak_coupling_on_a_fractional_domain_passes(self, tmp_path):
        # a device lattice of 12808 points that x_min/dx leaves off whole cells
        code = main(["pointer", "--grid-n", "1024", "--x-min", "-15", "--x-max", "17.3",
                     "--g", "0.08", "--delta-device", "4", "--out", str(tmp_path)])
        assert code == 0
        assert json.loads((tmp_path / "pointer.report.json").read_text())["max_deviation"] < 1e-5

    def test_weak_wide_device_gaussian_passes(self, tmp_path):
        code = main(["pointer", "--g", "0.05", "--delta-device", "4", "--out", str(tmp_path)])
        assert code == 0
        assert json.loads((tmp_path / "pointer.report.json").read_text())["status"] == "PASS"


class TestBadInput:
    """Bad input ends in one error line and exit 1, before any artifact is written."""

    @pytest.mark.parametrize("argv", [
        ["sample", "--bins", "0", "0"],
        ["sample", "--bins", "-2", "2"],
        ["sample", "--shots", "10", "--bins", "3", "3"],
        ["sample", "--seed", "-1"],
        ["pointer", "--g", "1e-9"],
    ], ids=["zero-bins", "negative-bins", "non-dividing-bins", "negative-seed", "tiny-g"])
    def test_one_line_error_and_no_artifacts(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [") and err.count("\n") == 1
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["state", "--state", "coherent nan 0 1"],
        ["state", "--state", "coherent 0 inf 1"],
        ["state", "--state", "cat nan"],
        ["state", "--state", "coherent 0 0 nan"],
        ["state", "--x-max", "inf"],
        ["dist", "--which", "husimi", "--delta", "nan"],
        ["dist", "--which", "husimi", "--delta", "inf"],
        ["sample", "--shots", "1000", "--delta", "nan"],
        ["pointer", "--g", "nan"],
        ["pointer", "--delta-device", "nan"],
    ], ids=["coherent-x0", "coherent-p0", "cat", "coherent-delta", "x-max", "dist-delta-nan",
            "dist-delta-inf", "sample-delta", "pointer-g", "pointer-delta-device"])
    def test_non_finite_number_one_line_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [") and err.count("\n") == 1 and "finite" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv, line", [
        (["pointer", "--g", "1e300"],
         "error [pointer]: delta = 1 under-resolved on spacing dx = 1.25e+299 "),
        (["state", "--state", "coherent 40 0 1"], "error [core]: coherent state centre (40, 0) "),
        (["state", "--state", "coherent 0 30 1"], "error [core]: coherent state centre (0, 30) "),
        (["state", "--state", "cat 1e300"], "error [core]: coherent state centre (-1e+300, 0) "),
        (["pointer", "--g", "1e-300"],
         "error [phaselab]: g = 1e-300 needs a device lattice of 1.189e+302 x 128 cells, "
         "which exceeds 67108864 (2**26) cells\n"),
        (["pointer", "--g", "1e-320"], "error [phaselab]: g = 1e-320 needs a device lattice of inf "),
        (["pointer", "--g", "5e-324"], "error [phaselab]: g = 5e-324 needs a device lattice of inf "),
        (["dist", "--which", "husimi", "--delta", "1e308"],
         "error [phasespace]: delta = 1e+308 too large: delta*pi overflows"),
        (["sample", "--delta", "1e308", "--shots", "100"],
         "error [measurement]: delta = 1e+308 too large: delta*pi overflows"),
    ], ids=["huge-g", "centre-right-of-lattice", "centre-above-momenta", "huge-cat", "tiny-g-1e-300",
            "subnormal-g", "g-spacing-underflows", "dist-huge-delta", "sample-huge-delta"])
    def test_out_of_range_number_one_line_error(self, tmp_path, capsys, argv, line):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(line) and err.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("fmt, edit", [
        ("json", lambda doc: {**doc, "dx": -0.125}),
        ("json", lambda doc: {**doc, "dx": math.nan}),
        ("json", lambda doc: {**doc, "dx": 0.0}),
        ("json", lambda doc: {**doc, "x_min": -math.inf}),
        ("json", lambda doc: {**doc, "amp": [math.nan, *doc["amp"][1:]]}),
        ("json", lambda doc: {**doc, "amp": doc["amp"][:-1]}),
        ("json", lambda doc: {**doc, "amp": ["a", *doc["amp"][1:]]}),
        ("csv", lambda text: text.replace(",0\n", ",nan\n", 1)),
        ("json", lambda doc: {**doc, "n": doc["n"] + 0.9}),
        ("json", lambda doc: {**doc, "n": str(doc["n"])}),
        ("json", lambda doc: {**doc, "amp": [10**400, *doc["amp"][1:]]}),
        ("json", lambda doc: {**doc, "n": 8}),
        ("csv", lambda text: "".join(text.splitlines(keepends=True)[:3])),
    ], ids=["dx-negative", "dx-nan", "dx-zero", "x-min-infinite", "json-amp-nan", "amp-odd-length",
            "amp-string-cell", "csv-amp-nan", "n-not-integer", "n-string", "amp-huge-integer",
            "n-not-power-of-two", "csv-two-rows"])
    def test_bad_state_file_one_line_error(self, vacuum, tmp_path, capsys, fmt, edit):
        path = tmp_path / f"state.{fmt}"
        save_wavefunction(vacuum, path, fmt=fmt)
        text = path.read_text()
        path.write_text(json.dumps(edit(json.loads(text))) if fmt == "json" else edit(text))
        out = tmp_path / "out"
        assert main(["dist", "--which", "husimi", "--state", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [phaselab]: {path}: ") and err.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, out", [(["state"], "afile"), (["dist"], "afile/sub")],
                             ids=["file-exists", "not-a-directory"])
    def test_unusable_output_path_one_line_error(self, tmp_path, capsys, command, out):
        (tmp_path / "afile").write_text("")
        assert main(command + ["--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [phaselab]: ") and err.count("\n") == 1

    @pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 1.00 TiB")],
                             ids=["bare", "numpy-message"])
    def test_memory_error_is_one_line(self, tmp_path, capsys, monkeypatch, exc):
        def exhausted(*args):
            raise exc

        monkeypatch.setattr(cli, "cmd_pointer", exhausted)
        assert main(["pointer", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error [phaselab]: {str(exc) or 'MemoryError'}\n"


class TestCmdReport:
    def test_aggregates_pass(self, tmp_path):
        assert main(["dist", "--which", "husimi", "--out", str(tmp_path)]) == 0
        assert main(["pointer", "--g", "1", "--out", str(tmp_path)]) == 0
        assert main(["report", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pass"] is True
        assert "overall: PASS" in (tmp_path / "report.txt").read_text()

    def test_directory_without_reports_fails(self, tmp_path, capsys):
        missing = tmp_path / "nothere"
        assert main(["report", "--out", str(missing)]) == 1
        assert json.loads((missing / "report.json").read_text())["pass"] is False
        text = (missing / "report.txt").read_text()
        assert str(missing) in text and text.endswith("overall: FAIL\n")
        assert capsys.readouterr().out == text

    def test_malformed_report_file_one_line_error(self, tmp_path, capsys):
        for out, name, text, line in [
            ("not-json", "x.report.json", "{bad", "Expecting property name "),
            ("array", "x.report.json", "[1, 2]", "must hold one JSON object, got [1, 2]"),
            ("string", "x.summary.json", '"PASS"', 'must hold one JSON object, got "PASS"'),
            ("null", "x.report.json", "null", "must hold one JSON object, got null"),
        ]:
            (tmp_path / out).mkdir()
            path = tmp_path / out / name
            path.write_text(text)
            assert main(["report", "--out", str(tmp_path / out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error [phaselab]: {path}: {line}")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("doc, line", [
        ({"pass": "false"}, 'pass must be true or false, got "false"'),
        ({"pass": 0}, "pass must be true or false, got 0"),
        ({"status": "fail"}, 'status must be PASS, FAIL or SKIPPED, got "fail"'),
        ({"status": None}, "status must be PASS, FAIL or SKIPPED, got null"),
        ({"pass": True, "status": ["PASS"]}, 'status must be PASS, FAIL or SKIPPED, got ["PASS"]'),
    ], ids=["pass-string", "pass-integer", "status-lowercase", "status-null", "status-list"])
    def test_mistyped_verdict_one_line_error(self, tmp_path, capsys, doc, line):
        path = tmp_path / "x.report.json"
        path.write_text(json.dumps(doc))
        assert main(["report", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error [phaselab]: {path}: {line}\n"
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("doc, ok", [
        ({"pass": True}, True), ({"pass": False}, False), ({"status": "SKIPPED"}, True),
        ({"status": "FAIL"}, False), ({"pass": True, "status": "PASS"}, True), ({}, True),
    ])
    def test_well_typed_verdicts(self, tmp_path, doc, ok):
        (tmp_path / "x.summary.json").write_text(json.dumps(doc))
        assert main(["report", "--out", str(tmp_path)]) == (0 if ok else 1)
        verdict = "PASS" if ok else "FAIL"
        assert (tmp_path / "report.txt").read_text() == (
            f"x.summary.json: {verdict}\noverall: {verdict}\n")


class TestConfigFile:
    def test_config_file_wins_with_warning(self, tmp_path, capsys):
        cfg = RunConfig(state="coherent 2 0 1", out=str(tmp_path))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(cfg.to_json())
        code = main([
            "state", "--config", str(cfg_path),
            "--state", "coherent 0 0 1", "--out", str(tmp_path),
        ])
        assert code == 0
        assert "warning" in capsys.readouterr().err
        meta = json.loads((tmp_path / "state.meta.json").read_text())
        assert meta["mean_x"] == pytest.approx(2.0, abs=1e-6)

    def test_omitted_fields_keep_flags(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text('{"shots": 10}')
        assert main(["state", "--config", "cfg.json", "--out", "elsewhere"]) == 0
        assert (tmp_path / "elsewhere" / "state.json").is_file()
        assert not (tmp_path / "state.json").exists()
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("text", ['{"shot": 10}', '{"shots": 10', None],
                             ids=["unknown-field", "malformed-json", "missing-file"])
    def test_bad_config_one_line_error(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        if text is not None:
            cfg_path.write_text(text)
        assert main(["state", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [cli]: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text, message", [
        ('{"grid_n": "abc"}', "field grid_n must be int"),
        ('{"grid_n": 64.0}', "field grid_n must be int"),
        ('{"shots": "abc"}', "field shots must be int"),
        ('{"seed": true}', "field seed must be int"),
        ('{"delta": "1"}', "field delta must be float"),
        ('{"x_min": false}', "field x_min must be float"),
        ('{"state": 3}', "field state must be str"),
        ('{"bins": [32]}', "field bins must be two ints"),
        ('{"bins": [32, "32"]}', "field bins must be two ints"),
        ('{"bins": 32}', "field bins must be two ints"),
    ])
    def test_mistyped_field_one_line_error(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert main(["sample", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error [cli]: config file {cfg_path}: {message}\n"

    @pytest.mark.parametrize("command", [["state"], ["dist", "--which", "husimi"]])
    def test_unknown_format_one_line_error(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"format": "xml"}')
        out = tmp_path / "out"
        assert main([*command, "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error [cli]: config file {cfg_path}: field format must be csv or json\n"
        )
        assert not out.exists()

    def test_int_accepted_for_float_field(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"x_min": -16, "x_max": 16, "bins": [16, 16]}')
        assert main(["state", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0


class TestInputChecks:
    """Bins, state files, headers and config files that end in one line."""

    @pytest.mark.parametrize("argv", [
        ["--shots", "10", "--bins", "1", "1"],
        ["--shots", "10", "--bins", "1", "32"],
        ["--shots", "0", "--bins", "1", "1"],
        ["--shots", "0", "--bins", "32", "1", "--format", "csv"],
    ], ids=["one-by-one", "one-x-bin", "no-shots", "one-p-bin-csv"])
    def test_single_bin_one_line_error_and_no_artifacts(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(["sample", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [phaselab]: bins must be two positive integers")
        assert err.count("\n") == 1
        assert not (out / "records.csv").exists() and list(out.glob("histogram.*")) == []

    def test_malformed_state_json_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text('{"n": 16 "x_min": -4.0}')
        out = tmp_path / "out"
        assert main(["dist", "--state", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error [phaselab]: {path}: Expecting ',' delimiter: line 1 column 10 (char 9)\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("field, value, line", [
        ("dx", True, "dx must be a number, got True"),
        ("dx", None, "dx must be a number, got None"),
        ("x_min", "-8", "x_min must be a number, got '-8'"),
        ("x_min", 10**400, "x_min must be finite, got inf"),
        ("dx", 0, "dx must be positive and finite, got 0.0"),
    ], ids=["dx-bool", "dx-null", "x-min-string", "x-min-huge-integer", "dx-zero"])
    def test_state_header_numbers(self, vacuum, tmp_path, field, value, line):
        path = tmp_path / "state.json"
        save_wavefunction(vacuum, path)
        path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
        with pytest.raises(ValueError) as info:
            load_wavefunction(path)
        assert str(info.value) == f"{path}: {line}"

    @pytest.mark.parametrize("field, value, line", [
        ("dx", 0, "dx must be positive and finite, got 0.0"),
        ("dx", -0.25, "dx must be positive and finite, got -0.25"),
        ("dx", True, "dx must be a number, got True"),
        ("dp", 0, "dp must be positive and finite, got 0.0"),
        ("x_min", math.nan, "x_min must be finite, got nan"),
        ("p_min", -math.inf, "p_min must be finite, got -inf"),
        ("delta", "abc", "delta must be a number, got 'abc'"),
        ("delta", -1, "delta must be positive and finite, got -1.0"),
    ], ids=["dx-zero", "dx-negative", "dx-bool", "dp-zero", "x-min-nan", "p-min-infinite",
            "delta-string", "delta-negative"])
    def test_distribution_header_numbers(self, vacuum, tmp_path, field, value, line):
        path = tmp_path / "q.json"
        save_distribution(husimi(vacuum, 1.0), path, fmt="json")
        path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
        with pytest.raises(ValueError) as info:
            load_distribution(path)
        assert str(info.value) == f"{path}: {line}"

    def test_distribution_delta_may_be_null(self, vacuum, tmp_path):
        path = tmp_path / "q.json"
        save_distribution(husimi(vacuum, 1.0), path, fmt="json")
        path.write_text(json.dumps({**json.loads(path.read_text()), "delta": None}))
        assert load_distribution(path).delta is None

    @pytest.mark.parametrize("load, name, text, line", [
        (load_distribution, "d.csv", "x,p,val\n0,0,1\n",
         "expected CSV header 'x,p,value', got 'x,p,val'"),
        (load_wavefunction, "s.csv", "x,p,value\n0,0,1\n",
         "expected CSV header 'x,re,im', got 'x,p,value'"),
    ], ids=["distribution", "state"])
    def test_csv_header_mismatch_names_the_file(self, tmp_path, load, name, text, line):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value) == f"{path}: {line}"

    def test_config_array_one_line_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        out = tmp_path / "out"
        assert main(["state", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error [cli]: config file {cfg_path}: a config file holds one JSON object\n")
        assert not out.exists()


def _distribution(kind, delta, nx=4, n_p=8):
    values = np.arange(nx * n_p, dtype=np.float64).reshape(nx, n_p)
    return PhaseSpaceGrid(x=-1.0 + 0.5 * np.arange(nx), p=-2.0 + 0.5 * np.arange(n_p),
                          kind=kind, values=values, delta=delta)


def _characteristic():
    u, v = -1.0 + 0.5 * np.arange(4), -2.0 + 0.25 * np.arange(8)
    values = np.arange(32.0).reshape(4, 8) - 1j * np.arange(32.0).reshape(4, 8)
    return CharacteristicGrid(u=u, v=v, s=-1.0, values=values)


class TestHeaderTables:
    """Every JSON header the writers produce holds exactly its table's fields
    and its tables, and each field is checked through the table."""

    @pytest.mark.parametrize("sidecar, table", [(False, "amp"), (True, "amp_file")])
    def test_state_header_keys(self, vacuum, tmp_path, sidecar, table):
        path = tmp_path / "state.json"
        save_wavefunction(vacuum, path, binary_sidecar=sidecar)
        assert set(json.loads(path.read_text())) == set(plio._STATE) | {table}

    @pytest.mark.parametrize("kind", list(DistributionKind))
    @pytest.mark.parametrize("delta", [None, 2.0])
    def test_distribution_header_keys(self, tmp_path, kind, delta):
        path = tmp_path / "d.json"
        save_distribution(_distribution(kind, delta), path, fmt="json")
        assert set(json.loads(path.read_text())) == set(plio._DISTRIBUTION) | {"values"}
        back = load_distribution(path)
        assert back.kind is kind and back.delta == delta

    def test_characteristic_header_keys(self, tmp_path):
        path = tmp_path / "c.json"
        save_characteristic(_characteristic(), path)
        assert set(json.loads(path.read_text())) == set(plio._CHARACTERISTIC) | {
            "values_re", "values_im"}

    @pytest.mark.parametrize("field", ["n", "x_min", "dx", "basis"])
    def test_state_missing_field(self, vacuum, tmp_path, field):
        path = tmp_path / "state.json"
        save_wavefunction(vacuum, path)
        doc = json.loads(path.read_text())
        del doc[field]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            load_wavefunction(path)
        assert str(info.value) == f"{path}: {field} is missing: no key {field!r}"

    @pytest.mark.parametrize("field", ["n", "x_min", "dx", "p_min", "dp", "kind"])
    def test_distribution_missing_field(self, vacuum, tmp_path, field):
        path = tmp_path / "q.json"
        save_distribution(_distribution(DistributionKind.HUSIMI, 1.0), path, fmt="json")
        doc = json.loads(path.read_text())
        del doc[field]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            load_distribution(path)
        assert str(info.value) == f"{path}: {field} is missing: no key {field!r}"

    def test_distribution_delta_may_be_absent(self, tmp_path):
        path = tmp_path / "q.json"
        save_distribution(_distribution(DistributionKind.WIGNER, None), path, fmt="json")
        doc = json.loads(path.read_text())
        del doc["delta"]
        path.write_text(json.dumps(doc))
        assert load_distribution(path).delta is None

    @pytest.mark.parametrize("edit, line", [
        ({"basis": "x"}, "basis 'x' is not a valid Basis"),
        ({"n": 8}, "n grid size must be a power of two >= 16, got 8"),
        ({"n": 8, "dx": 0}, "n grid size must be a power of two >= 16, got 8"),
        ({"n": True}, "n must be an integer, got True"),
    ], ids=["basis-unknown", "n-not-power-of-two", "n-before-dx", "n-bool"])
    def test_state_field_messages(self, vacuum, tmp_path, edit, line):
        path = tmp_path / "state.json"
        save_wavefunction(vacuum, path)
        path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        with pytest.raises(ValueError) as info:
            load_wavefunction(path)
        assert str(info.value) == f"{path}: {line}"

    @pytest.mark.parametrize("binary_sidecar", [False, True])
    def test_state_keeps_every_bit(self, grid, tmp_path, binary_sidecar):
        amp = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                        complex(5e-324, -1e300)] * (grid.n // 4))
        psi = WaveFunction(grid, Basis.POSITION, amp)
        path = tmp_path / "state.json"
        save_wavefunction(psi, path, binary_sidecar=binary_sidecar)
        back = load_wavefunction(path)
        assert back.amp.tobytes() == psi.amp.tobytes()


class TestCharacteristicReader:
    """A characteristic file that its table, or its tables' shapes, refuse is
    one line that names the file."""

    @pytest.mark.parametrize("edit, line", [
        ({"s": 1.5}, "s must lie in [-1, 1], got 1.5"),
        ({"s": -1.0000000000000002}, "s must lie in [-1, 1], got -1.0000000000000002"),
        ({"s": True}, "s must be a number, got True"),
        ({"du": 0.0}, "du must be positive and finite, got 0.0"),
        ({"values_im": [[0.0] * 8] * 3},
         "values_re shape (4, 8) does not match values_im shape (3, 8)"),
        ({"values_re": [[0.0] * 7] * 4},
         "values_re shape (4, 7) does not match values_im shape (4, 8)"),
        ({"values_re": None},
         "values_re must be rows of numbers of one length: got a 0-D array of object"),
        ({"values_im": [[0.5, True]] * 4},
         "values_im must be rows of numbers of one length: got true or false among the numbers"),
    ], ids=["s-above-1", "s-below-minus-1", "s-bool", "du-zero", "fewer-im-rows",
            "shorter-re-rows", "re-missing", "im-bool"])
    def test_refusals_name_the_file(self, tmp_path, edit, line):
        path = tmp_path / "c.json"
        save_characteristic(_characteristic(), path)
        doc = {**json.loads(path.read_text()), **edit}
        path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
        with pytest.raises(ValueError) as info:
            plio.load_characteristic(path)
        assert str(info.value) == f"{path}: {line}"


class TestOnePointAxis:
    """A table with one x row loads, as it always has, and asking for its
    spacing names the axis instead of indexing past it."""

    def test_csv_one_x_row_loads_then_names_the_axis(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,p,value\n0,0,1\n0,1,2\n")
        dist = load_distribution(path)
        assert dist.values.shape == (1, 2) and dist.dp == 1.0
        with pytest.raises(ValueError, match="^dx needs two x points, the grid has 1$"):
            dist.normalization()

    def test_json_save_of_one_x_row_names_the_axis(self, tmp_path):
        dist = _distribution(DistributionKind.HISTOGRAM, None, nx=1)
        with pytest.raises(ValueError, match="^dx needs two x points, the grid has 1$"):
            save_distribution(dist, tmp_path / "d.json", fmt="json")

    def test_one_point_p_axis_names_the_axis(self):
        dist = _distribution(DistributionKind.HISTOGRAM, None, n_p=1)
        assert dist.dx == 0.5
        with pytest.raises(ValueError, match="^dp needs two p points, the grid has 1$"):
            dist.weight


class TestExitCodeIsTheVerdict:
    """A run's exit code is the verdict that ``phaselab report`` reads from the
    report file the run wrote, and so is the exit code of ``phaselab report``."""

    @staticmethod
    def _verdict_code(path):
        return 0 if cli._verdict(path, json.loads(path.read_text())) else 1

    @pytest.mark.parametrize("argv, name", [
        (["state"], "state.meta.json"),
        (["dist", "--which", "wigner"], "wigner.summary.json"),
        (["dist", "--which", "husimi", "--delta", "2"], "husimi.summary.json"),
        (["dist", "--which", "characteristic"], "characteristic.summary.json"),
        (["sample", "--shots", "0"], "sample.report.json"),
        (["sample", "--shots", "5000", "--seed", "3"], "sample.report.json"),
        (["pointer", "--g", "0.5"], "pointer.report.json"),
    ], ids=["state", "wigner", "husimi", "characteristic", "sample-skipped", "sample",
            "pointer"])
    def test_each_command(self, tmp_path, argv, name):
        grid = ["--grid-n", "64", "--x-min", "-8", "--x-max", "8"]
        code = main(argv + grid + ["--out", str(tmp_path)])
        assert code == self._verdict_code(tmp_path / name)
        assert main(["report", "--out", str(tmp_path)]) == self._verdict_code(
            tmp_path / "report.json")

    def test_a_failing_run_and_its_report(self, tmp_path, capsys):
        code = main(["dist", "--which", "characteristic", "--s", "1", "--grid-n", "1024",
                     "--out", str(tmp_path)])
        assert code == 1 == self._verdict_code(tmp_path / "characteristic.summary.json")
        capsys.readouterr()
        assert main(["report", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().out.endswith("overall: FAIL\n")


# Each refusal of cli that no other test reaches: (call writing into a
# directory, message).
REFUSALS = {
    "unknown-distribution": (
        lambda out: cli.cmd_dist(RunConfig(out=str(out)),
                                 coherent_state(make_grid(64, -8.0, 8.0), 0.0, 0.0), "bogus"),
        "unknown distribution 'bogus'"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_name_their_cause(tmp_path, case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(tmp_path)
    assert not any(tmp_path.iterdir())
