"""File formats of every artifact phaselab writes.

The CLI decides what to write; the layouts live here.  Identical runs produce
identical bytes, and both text encodings are lossless for float64:

- CSV writes each float as ``%.17g``, 17 significant digits
  (``0.10000000000000001``, ``10000000000000000``).
- JSON writes each float as Python's shortest round-trip ``repr`` (``0.1``,
  ``1e+16``), one document per file with sorted keys and a final newline.

Layouts:

- State JSON: ``{basis, dx, n, x_min}`` plus either ``amp``, the interleaved
  (re, im) amplitudes, or ``amp_file``, the name of a little-endian float64
  sidecar beside the JSON file holding exactly 2n values.
- State CSV: header ``x,re,im``, one row per lattice point, position basis only.
- Distribution CSV: header ``x,p,value``, one row per cell, row-major in x.
  It is lossy: without ``kind`` or ``delta`` it reloads as a ``HISTOGRAM``
  with ``delta=None``.
- Distribution JSON: ``{delta, dp, dx, kind, n, p_min, values, x_min}`` with
  ``values[i][j]`` at (x_i, p_j).
- Characteristic JSON: ``{du, dv, s, u_min, v_min, values_im, values_re}``.
- ``records.csv``: header ``shot,x,p``, one row per shot.
- ``report.txt``: one ``<source>: PASS|FAIL`` line per report, then
  ``overall: PASS|FAIL``.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .core import Basis, Grid, WaveFunction, check_grid_size
from .phasespace import CharacteristicGrid, DistributionKind, PhaseSpaceGrid

FMT = "%.17g"

# Rows per formatted chunk of a column table: bounds the string and argument
# tuple built at once, whatever the number of rows.
CHUNK_ROWS = 4096

# Largest relative departure of a state CSV's x steps from the first step;
# 17-digit round trips of a uniform lattice stay below ~n * 1e-16.
_SPACING_RTOL = 1e-6


def _write_csv(path, header: str, chunks) -> None:
    """Write the header line, then ``template % values`` for each chunk."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for template, values in chunks:
            fh.write(template % values)


def _column_chunks(row_template: str, columns):
    """Chunks of CHUNK_ROWS rows; row i is ``row_template`` applied to the
    i-th entry of each column (1-D arrays of equal length)."""
    n_rows, width = columns[0].size, len(columns)
    for start in range(0, n_rows, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n_rows)
        values = [None] * (width * (stop - start))
        for k, column in enumerate(columns):
            values[k::width] = column[start:stop].tolist()
        yield row_template * (stop - start), tuple(values)


def _grid_chunks(x, p, values):
    """One chunk per x row of a row-major (x, p, value) table; the x and p
    strings are formatted once and only the values per cell."""
    cells = [FMT % pv + "," + FMT for pv in p.tolist()]
    for xv, row in zip(x.tolist(), values):
        xs = FMT % xv + ","
        yield xs + ("\n" + xs).join(cells) + "\n", tuple(row.tolist())


def _read_table_or_doc(path: Path, header: str):
    """The decoded JSON document, or for a CSV file (named ``*.csv`` or with a
    first line starting ``x,``) the float table after this header line."""
    with path.open() as fh:
        first = fh.readline()
        if path.suffix != ".csv" and not first.startswith("x,"):
            return json.loads(first + fh.read())
        if first.rstrip("\r\n") != header:
            raise ValueError(f"{path}: expected CSV header {header!r}, got {first.strip()!r}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # empty input: rejected below
                table = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed CSV: {exc}") from None
    width = header.count(",") + 1
    if table.shape[0] == 0 or table.shape[1] != width:
        raise ValueError(f"{path}: expected rows of {width} numbers, got shape {table.shape}")
    return table


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i*im with signed zeros kept (``re + 1j * im`` turns -0.0 into 0.0)."""
    amp = np.empty(re.size, dtype=np.complex128)
    amp.real, amp.imag = re, im
    return amp


def save_json(doc: dict, path, **tables: np.ndarray) -> None:
    """``doc`` and the 2-D arrays passed by keyword as one JSON object with sorted
    keys, the bytes of ``json.dumps``; an array is written a row at a time."""
    with open(path, "w") as fh:
        fh.write("{")
        for i, key in enumerate(sorted({**doc, **tables})):
            fh.write((", " if i else "") + json.dumps(key) + ": ")
            if key not in tables:
                fh.write(json.dumps(doc[key], sort_keys=True))
                continue
            fh.write("[")
            fh.writelines((", " if j else "") + json.dumps(row.tolist())
                          for j, row in enumerate(tables[key]))
            fh.write("]")
        fh.write("}\n")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def save_wavefunction(psi: WaveFunction, path, fmt: str = "json", binary_sidecar: bool = False) -> None:
    path = Path(path)
    g = psi.grid
    if fmt == "csv":
        if psi.basis is not Basis.POSITION:
            raise ValueError("CSV wavefunction files carry position-basis states only")
        columns = (g.x, psi.amp.real, psi.amp.imag)
        _write_csv(path, "x,re,im", _column_chunks(f"{FMT},{FMT},{FMT}\n", columns))
        return
    if fmt != "json":
        raise ValueError(f"unknown wavefunction format {fmt!r}")
    header = {"n": g.n, "x_min": g.x_min, "dx": g.dx, "basis": psi.basis.value}
    interleaved = np.empty(2 * g.n)
    interleaved[0::2] = psi.amp.real
    interleaved[1::2] = psi.amp.imag
    if binary_sidecar:
        sidecar = path.with_suffix(path.suffix + ".bin")
        interleaved.astype("<f8").tofile(sidecar)
        header["amp_file"] = sidecar.name
    else:
        header["amp"] = interleaved.tolist()
    save_json(header, path)


def _sidecar(path: Path, name, n: int) -> np.ndarray:
    """The 2n interleaved floats of the sidecar ``name`` beside ``path``."""
    if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ValueError(f"{path}: amp_file must name a file beside it, got {name!r}")
    sidecar = path.parent / name
    size = sidecar.stat().st_size if sidecar.is_file() else None
    if size != 16 * n:
        raise ValueError(
            f"{path}: amp_file {name!r} must be a file of 2n = {2 * n} float64 values, "
            f"found {'no file' if size is None else f'{size} bytes'}"
        )
    return np.fromfile(sidecar, dtype="<f8")


def _state_from_table(table: np.ndarray, path) -> WaveFunction:
    xs = table[:, 0]
    check_grid_size(xs.size)
    dx = float(xs[1] - xs[0])
    if not (dx > 0.0 and np.all(np.abs(np.diff(xs) - dx) <= _SPACING_RTOL * dx)):
        raise ValueError(f"{path}: x column must be uniform and increasing")
    grid = Grid(n=xs.size, x_min=float(xs[0]), dx=dx)
    return WaveFunction(grid, Basis.POSITION, _complex(table[:, 1], table[:, 2]))


def load_wavefunction(path) -> WaveFunction:
    path = Path(path)
    header = _read_table_or_doc(path, "x,re,im")
    if isinstance(header, np.ndarray):
        return _state_from_table(header, path)
    try:
        n = int(header["n"])
        grid = Grid(n=n, x_min=float(header["x_min"]), dx=float(header["dx"]))
        basis = Basis(header["basis"])
        amp_file = header.get("amp_file")
        amp = None if amp_file is not None else header["amp"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: state header lacks or mistypes field {exc}") from None
    check_grid_size(n)
    if amp_file is not None:
        interleaved = _sidecar(path, amp_file, n)
    else:
        interleaved = np.asarray(amp, dtype=np.float64)
    return WaveFunction(grid, basis, _complex(interleaved[0::2], interleaved[1::2]))


def save_distribution(dist: PhaseSpaceGrid, path, fmt: str = "csv") -> None:
    if fmt == "csv":
        _write_csv(path, "x,p,value", _grid_chunks(dist.x, dist.p, dist.values))
        return
    if fmt != "json":
        raise ValueError(f"unknown distribution format {fmt!r}")
    save_json({
        "n": int(dist.x.size),
        "x_min": float(dist.x[0]),
        "dx": dist.dx,
        "kind": dist.kind.value,
        "delta": dist.delta,
        "p_min": float(dist.p[0]),
        "dp": dist.dp,
    }, path, values=dist.values)


def _distribution_from_table(table: np.ndarray, path) -> PhaseSpaceGrid:
    x, p = np.unique(table[:, 0]), np.unique(table[:, 1])
    if table.shape[0] != x.size * p.size or not (
        np.array_equal(table[:, 0], np.repeat(x, p.size))
        and np.array_equal(table[:, 1], np.tile(p, x.size))
    ):
        raise ValueError(f"{path}: rows do not cover an (x, p) grid in row-major order")
    values = table[:, 2].reshape(x.size, p.size)
    return PhaseSpaceGrid(x=x, p=p, kind=DistributionKind.HISTOGRAM, values=values)


def load_distribution(path) -> PhaseSpaceGrid:
    path = Path(path)
    doc = _read_table_or_doc(path, "x,p,value")
    if isinstance(doc, np.ndarray):
        return _distribution_from_table(doc, path)
    try:
        n = int(doc["n"])
        x = doc["x_min"] + doc["dx"] * np.arange(n)
        p = doc["p_min"] + doc["dp"] * np.arange(len(doc["values"][0]))
        kind = DistributionKind(doc["kind"])
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"{path}: distribution header lacks or mistypes field {exc}") from None
    return PhaseSpaceGrid(
        x=x,
        p=p,
        kind=kind,
        values=np.asarray(doc["values"]),
        delta=doc.get("delta"),
    )


def save_characteristic(cg: CharacteristicGrid, path) -> None:
    save_json({
        "s": cg.s,
        "u_min": float(cg.u[0]),
        "du": float(cg.u[1] - cg.u[0]),
        "v_min": float(cg.v[0]),
        "dv": float(cg.v[1] - cg.v[0]),
    }, path, values_re=cg.values.real, values_im=cg.values.imag)


def save_records(x: np.ndarray, p: np.ndarray, path) -> None:
    """Sampled outcomes as ``records.csv``: shot index, x, p."""
    columns = (np.arange(x.size), x, p)
    _write_csv(path, "shot,x,p", _column_chunks(f"%d,{FMT},{FMT}\n", columns))


def save_report(verdicts: dict, out) -> str:
    """``report.txt`` from each source's verdict; returns the text.  A directory
    without sources fails."""
    out = Path(out)
    ok = bool(verdicts) and all(verdicts.values())
    lines = [f"{name}: {'PASS' if v else 'FAIL'}" for name, v in sorted(verdicts.items())]
    if not verdicts:
        lines.append(f"no *.report.json or *.summary.json in {out}")
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    text = "\n".join(lines) + "\n"
    (out / "report.txt").write_text(text)
    return text
