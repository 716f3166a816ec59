import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from phaselab import cli, coherent_state, fock_state, husimi, make_grid, measurement, wigner
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
        tracemalloc.start()
        try:
            save_distribution(dist, tmp_path / "w.json", fmt="json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

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
            tracemalloc.start()
            try:
                save()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20

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
