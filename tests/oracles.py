"""Independent quadrature oracles used to pin expected values.

These deliberately avoid the package's FFT machinery: states are analytic
callables and every integral is a dense trapezoid quadrature.
"""

import json
import warnings

import numpy as np


def vacuum(x):
    return np.pi**-0.25 * np.exp(-(x**2) / 2.0)


def fock1(x):
    return np.sqrt(2.0) * x * vacuum(x)


def gaussian(x, x0, p0, delta):
    amp = np.exp(-((x - x0) ** 2) / (2.0 * delta) + 1j * x * p0)
    norm = np.sqrt(np.trapezoid(np.abs(amp) ** 2, x))
    return amp / norm


def wigner_point(psi_fn, x, p, y_max=24.0, ny=48001):
    """(1/2pi) Int dy exp(i*p*y) psi(x - y/2) psi*(x + y/2)."""
    y = np.linspace(-y_max, y_max, ny)
    integrand = np.exp(1j * p * y) * psi_fn(x - y / 2.0) * np.conj(psi_fn(x + y / 2.0))
    return float(np.trapezoid(integrand, y).real) / (2.0 * np.pi)


def husimi_point(psi_fn, x, p, delta=1.0, x_max=24.0, nx=48001):
    """|<x, p; delta | psi>|^2 / (2pi) by direct quadrature."""
    xp = np.linspace(-x_max, x_max, nx)
    kernel = (delta * np.pi) ** -0.25 * np.exp(
        -((x - xp) ** 2) / (2.0 * delta) - 1j * xp * p
    )
    overlap = np.trapezoid(kernel * psi_fn(xp), xp)
    return float(np.abs(overlap) ** 2) / (2.0 * np.pi)


def quadrature_moment(psi_values, axis, power):
    """Int axis^power |psi|^2 d(axis) on the given samples."""
    return float(np.trapezoid(axis**power * np.abs(psi_values) ** 2, axis))


def smeared_density(psi_fn, x, delta, x_max=24.0, nx=48001):
    """(delta*pi)^(-1/2) Int dx' exp(-(x - x')^2/delta) |psi(x')|^2."""
    xp = np.linspace(-x_max, x_max, nx)
    kernel = np.exp(-((x - xp) ** 2) / delta) / np.sqrt(delta * np.pi)
    return float(np.trapezoid(kernel * np.abs(psi_fn(xp)) ** 2, xp))


# Reference text formats: the per-cell loops that phaselab.io's chunked writer
# and NumPy reader replaced.  The io tests require identical bytes and equal
# arrays from them.

FMT17 = "%.17g"


def _json_line(doc):
    return json.dumps(doc, sort_keys=True) + "\n"


def distribution_csv(dist):
    lines = ["x,p,value"]
    for i, xv in enumerate(dist.x):
        for j, pv in enumerate(dist.p):
            lines.append(f"{FMT17 % xv},{FMT17 % pv},{FMT17 % dist.values[i, j]}")
    return "\n".join(lines) + "\n"


def distribution_json(dist):
    return _json_line({
        "n": int(dist.x.size),
        "x_min": float(dist.x[0]),
        "dx": dist.dx,
        "kind": dist.kind.value,
        "delta": dist.delta,
        "p_min": float(dist.p[0]),
        "dp": dist.dp,
        "values": [[float(v) for v in row] for row in dist.values],
    })


def characteristic_json(cg):
    return _json_line({
        "s": cg.s,
        "u_min": float(cg.u[0]),
        "du": float(cg.u[1] - cg.u[0]),
        "v_min": float(cg.v[0]),
        "dv": float(cg.v[1] - cg.v[0]),
        "values_re": [[float(v.real) for v in row] for row in cg.values],
        "values_im": [[float(v.imag) for v in row] for row in cg.values],
    })


def state_csv(psi):
    lines = ["x,re,im"]
    for xv, a in zip(psi.grid.x, psi.amp):
        lines.append(f"{FMT17 % xv},{FMT17 % a.real},{FMT17 % a.imag}")
    return "\n".join(lines) + "\n"


def state_json(psi):
    g = psi.grid
    interleaved = np.empty(2 * g.n)
    interleaved[0::2] = psi.amp.real
    interleaved[1::2] = psi.amp.imag
    return _json_line({
        "n": g.n, "x_min": g.x_min, "dx": g.dx, "basis": psi.basis.value,
        "amp": [float(v) for v in interleaved],
    })


def records_csv(x, p):
    lines = ["shot,x,p"]
    for i in range(x.size):
        lines.append(f"{i},{FMT17 % x[i]},{FMT17 % p[i]}")
    return "\n".join(lines) + "\n"


def read_distribution_csv(text):
    """(x, p, values) as the line-splitting reader parsed them."""
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    xs = sorted({float(r[0]) for r in rows})
    ps = sorted({float(r[1]) for r in rows})
    values = np.array([float(r[2]) for r in rows]).reshape(len(xs), len(ps))
    return np.array(xs), np.array(ps), values


def read_state_csv(text):
    """(x, amp) as the line-splitting reader parsed them."""
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    xs = np.array([float(r[0]) for r in rows])
    amp = np.array([float(r[1]) + 1j * float(r[2]) for r in rows])
    return xs, amp


def inverse_cdf_row(density, left_edge, spacing, u):
    """Inverse-CDF draws from one shared density row, with the cell found by
    ``np.searchsorted``: the sampler's x draw as first written."""
    mass = np.maximum(density, 0.0) * spacing
    cdf = np.cumsum(mass)
    total = cdf[-1]
    idx = np.searchsorted(cdf, u * total, side="left")
    idx = np.minimum(idx, density.size - 1)
    below = np.where(idx > 0, cdf[idx - 1], 0.0)
    frac = np.clip((u * total - below) / np.maximum(mass[idx], 1e-300), 0.0, 1.0)
    return left_edge + (idx + frac) * spacing


def inverse_cdf_rows(density, left_edge, spacing, u):
    """Inverse-CDF draws, one density row per uniform, with the cell index
    counted as the number of CDF values below the target."""
    mass = np.maximum(density, 0.0) * spacing
    cdf = np.cumsum(mass, axis=1)
    target = u * cdf[:, -1]
    idx = np.minimum((cdf < target[:, None]).sum(axis=1), density.shape[1] - 1)
    rows = np.arange(u.size)
    below = np.where(idx > 0, cdf[rows, np.maximum(idx - 1, 0)], 0.0)
    frac = np.clip((target - below) / np.maximum(mass[rows, idx], 1e-300), 0.0, 1.0)
    return left_edge + (idx + frac) * spacing


def sample_chunk_reference(pos, px, delta, seed, chunk_index, count, min_norm):
    """One sampler chunk as first written: every round rebuilds the whole
    window, takes the collapse norm from the amplitudes and, after the last
    round, draws p from ``fourier_sum`` of the final collapse.  Returns
    (x, p, rejected)."""
    from phaselab.core import fourier_sum

    g = pos.grid
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, chunk_index], dtype=np.uint64)))
    u = rng.random((count, 2))
    rejected = 0
    left_x = g.x[0] - g.dx / 2.0
    left_p = g.p[0] - g.dp / 2.0
    xs = inverse_cdf_row(px, left_x, g.dx, u[:, 0])
    for _ in range(64):
        window = np.exp(-((g.x - xs[:, None]) ** 2) / (2.0 * delta))
        amps = (delta * np.pi) ** -0.25 * window * pos.amp[None, :]
        norms2 = np.sum(np.abs(amps) ** 2, axis=1) * g.dx
        bad = norms2 <= min_norm**2
        if not np.any(bad):
            break
        rejected += int(bad.sum())
        xs[bad] = inverse_cdf_row(px, left_x, g.dx, rng.random(int(bad.sum())))
    phi = fourier_sum(amps, g.x, g.p, g.dx / np.sqrt(2.0 * np.pi), sign=-1, axis=-1)
    ps = inverse_cdf_rows(np.abs(phi) ** 2, left_p, g.dp, u[:, 1])
    return xs, ps, rejected


def wigner_reference(psi):
    """Wigner values as first written: dense band-limited interpolation onto
    the half-point lattice, a loop over the 4n - 1 lags into an n x 4n
    correlation array and a 4n-point FFT of which every fourth column is kept."""
    from phaselab.core import as_momentum, as_position

    pos = as_position(psi)
    g = pos.grid
    n, dx = g.n, g.dx
    phi = as_momentum(pos).amp
    xf = g.x_min + (dx / 2.0) * np.arange(2 * n)
    psi_f = (g.dp / np.sqrt(2.0 * np.pi)) * np.exp(1j * np.outer(xf, g.p)) @ phi
    M = 4 * n
    corr = np.zeros((n, M), dtype=np.complex128)
    for m in range(-(2 * n - 1), 2 * n):
        k0 = (abs(m) + 1) // 2
        k1 = (2 * n - 1 - abs(m)) // 2
        if k1 < k0:
            continue
        ks = np.arange(k0, k1 + 1)
        corr[ks, m % M] = psi_f[2 * ks - m] * np.conj(psi_f[2 * ks + m])
    spectrum = M * np.fft.ifft(corr, axis=1)
    cols = (4 * (np.arange(n) - n // 2)) % M
    return ((dx / (2.0 * np.pi)) * spectrum[:, cols]).real


def successive_density_reference(psi, delta):
    """|<p|M(x)|psi>|^2 values as first written: one ``fourier_sum`` per x row."""
    from phaselab.core import as_position, fourier_sum

    pos = as_position(psi)
    g = pos.grid
    values = np.empty((g.n, g.n))
    for k in range(g.n):
        window = np.exp(-((g.x - float(g.x[k])) ** 2) / (2.0 * delta))
        amp = (delta * np.pi) ** -0.25 * window * pos.amp
        phi = fourier_sum(amp, g.x, g.p, g.dx / np.sqrt(2.0 * np.pi), sign=-1)
        values[k] = np.abs(phi) ** 2
    return values


def successive_density_whole(psi, delta):
    """|<p|M(x)|psi>|^2 values with every x row in one transform, as computed
    before the row blocks."""
    from phaselab.core import as_position, fourier_sum, gaussian_window

    pos = as_position(psi)
    g = pos.grid
    amps = (delta * np.pi) ** -0.25 * gaussian_window(g.x, g.x[:, None], delta) * pos.amp
    phi = fourier_sum(amps, g.x, g.p, g.dx / np.sqrt(2.0 * np.pi), sign=-1, axis=-1)
    return np.abs(phi) ** 2


def pointer_vs_direct_reference(psi, spec):
    """pointer_vs_direct as computed before the row blocks: the whole n_d x n
    composite ``np.outer``, coupled by one flat gather of column rolls on a
    whole-cell lattice (kept to the n readout rows, which is all of it that was
    read) or else by the momentum-phase kernel, then one readout transform and
    the whole-array direct density."""
    from types import SimpleNamespace

    from phaselab.core import as_position, fourier_sum, gaussian_window, split_cells
    from phaselab.pointer import device_grid_for

    pos = as_position(psi)
    sg = pos.grid
    dg = device_grid_for(sg, spec)
    env = gaussian_window(dg.x, 0.0, spec.delta_device)
    env = env / np.sqrt(float(np.sum(env**2)) * dg.dx)
    amp = np.outer(env, pos.amp)
    left = round((spec.g * sg.x_min - dg.x_min) / dg.dx)
    r, r_frac = split_cells(spec.g * sg.dx / dg.dx)
    m0, frac = split_cells(spec.g * sg.x_min / dg.dx)
    if r >= 1 and r_frac == 0.0 and frac == 0.0:
        rows = np.arange(left, left + sg.n)
        amp = np.take(amp.reshape(-1), mode="wrap", indices=np.add.outer(
            (rows - m0) * sg.n, (1 - r * sg.n) * np.arange(sg.n)))
    else:
        comp = SimpleNamespace(device_grid=dg, env=env, psi=pos)
        amp = apply_interaction_reference(comp, spec.g)[left : left + sg.n]
    phi = fourier_sum(amp, sg.x, sg.p, sg.dx / np.sqrt(2.0 * np.pi), sign=-1, axis=1)
    joint = spec.g * np.abs(phi) ** 2
    direct = successive_density_whole(pos, spec.delta_device / spec.g**2)
    return float(np.max(np.abs(joint - direct)))


def apply_interaction_reference(comp, g):
    """Coupled composite amplitudes as first written: one momentum-space phase
    column per system lattice point, exp(-i*g*outer(p_dev, x_sys))."""
    from phaselab.core import fourier_sum

    gd, gs = comp.device_grid, comp.psi.grid
    amp = np.outer(comp.env, comp.psi.amp)
    phi = fourier_sum(amp, gd.x, gd.p, gd.dx / np.sqrt(2.0 * np.pi), sign=-1, axis=0)
    phi = phi * np.exp(-1j * g * np.outer(gd.p, gs.x))
    return fourier_sum(phi, gd.p, gd.x, gd.dp / np.sqrt(2.0 * np.pi), sign=+1, axis=0)


def apply_interaction_sampled(comp, g):
    """Coupled composite amplitudes of a product ``make_composite`` returns,
    with no lattice translation: every column's device Gaussian sampled at
    x_dev - g*x_sys and normalised on the device lattice."""
    gd, gs = comp.device_grid, comp.psi.grid
    env = np.exp(-((gd.x[:, None] - g * gs.x) ** 2) / (2.0 * comp.delta_device))
    return env / np.sqrt(np.sum(env**2, axis=0) * gd.dx) * comp.psi.amp


def characteristic_reference(psi, s, v=None):
    """w(u, v, s) values as first written: every row psi(x - v_m) by its own
    momentum-space phase, then dense exp(outer) chirp and s-Gaussian.  The v
    lattice is the position lattice unless given (spacing dx)."""
    from phaselab.core import as_momentum, as_position, fourier_sum

    pos = as_position(psi)
    g = pos.grid
    u, v = g.p, (g.x if v is None else v)
    phases = np.exp(-1j * np.outer(v, g.p))
    shifted = fourier_sum(as_momentum(pos).amp * phases, g.p, g.x, g.dp / np.sqrt(2.0 * np.pi),
                          sign=+1, axis=-1)
    overlap = fourier_sum(np.conj(pos.amp)[None, :] * shifted, g.x, u, g.dx, sign=-1, axis=-1)
    values = overlap.T * np.exp(0.5j * np.outer(u, v))
    return values * np.exp(0.25 * s * (u[:, None] ** 2 + v[None, :] ** 2))


def husimi_whole(psi, delta):
    """Husimi values with every x row in one transform, as computed before the
    row blocks."""
    from phaselab.core import as_position, fourier_sum, gaussian_window

    pos = as_position(psi)
    g = pos.grid
    rows = gaussian_window(g.x, g.x[:, None], delta) * pos.amp[None, :]
    overlap = fourier_sum(rows, g.x, g.p, g.dx, sign=-1, axis=-1)
    return (1.0 / (2.0 * np.pi)) / np.sqrt(delta * np.pi) * np.abs(overlap) ** 2


def wigner_whole(psi):
    """Wigner values (and imaginary residue) from the whole folded n x n
    correlation in one transform, as computed before the row blocks."""
    from numpy.lib.stride_tricks import sliding_window_view

    from phaselab.core import as_momentum, as_position, fourier_sum

    pos = as_position(psi)
    g = pos.grid
    n, dx = g.n, g.dx
    phi = np.zeros(2 * n, dtype=np.complex128)
    phi[n // 2 : n // 2 + n] = as_momentum(pos).amp
    xf = g.x_min + (dx / 2.0) * np.arange(2 * n)
    half = np.zeros(4 * n, dtype=np.complex128)
    half[n : 3 * n] = fourier_sum(phi, g.dp * np.arange(-n, n), xf, g.dp / np.sqrt(2.0 * np.pi),
                                  sign=+1)
    ahead = sliding_window_view(np.conj(half), 2 * n)[0 : 2 * n : 2]
    behind = sliding_window_view(half, 2 * n)[1 : 2 * n : 2, ::-1]
    corr = behind[:, n:] * ahead[:, n:]
    corr += behind[:, :n] * ahead[:, :n]
    w = fourier_sum(corr, dx * np.arange(n), g.p, dx / (2.0 * np.pi), sign=+1, axis=-1)
    return w.real, float(np.max(np.abs(w.imag)))


def characteristic_whole(psi, s):
    """w(u, v, s) values from the whole n x n window of shifted rows, chirp
    index table and s-Gaussian at once, as computed before the row blocks."""
    from numpy.lib.stride_tricks import sliding_window_view

    from phaselab.core import as_position, fourier_sum, split_cells

    pos = as_position(psi)
    g = pos.grid
    m0, frac = split_cells(g.x_min / g.dx)
    v = g.x - frac * g.dx
    o = (-m0) % g.n
    shifted = sliding_window_view(np.tile(pos.amp, 3), g.n)[o + g.n : o : -1]
    overlap = fourier_sum(np.conj(pos.amp) * shifted, g.x, g.p, g.dx, sign=-1, axis=-1)
    roots = np.exp((1j * np.pi / g.n) * np.arange(2 * g.n))
    overlap *= roots[np.multiply.outer(np.arange(g.n), np.arange(g.n) - g.n // 2) % (2 * g.n)]
    overlap *= np.exp(0.5j * v[0] * g.p)
    with np.errstate(over="ignore", invalid="ignore"):
        overlap *= np.exp(0.25 * s * v**2)[:, None]
        overlap *= np.exp(0.25 * s * g.p**2)
    return overlap.T


def load_distribution_json_reference(path):
    """A distribution JSON file as read before the ``np.fromstring`` route:
    ``json.loads`` of the whole text, then ``np.asarray`` of the values lists."""
    from pathlib import Path

    from phaselab.phasespace import DistributionKind, PhaseSpaceGrid

    doc = json.loads(Path(path).read_text())
    x = doc["x_min"] + doc["dx"] * np.arange(int(doc["n"]))
    p = doc["p_min"] + doc["dp"] * np.arange(len(doc["values"][0]))
    return PhaseSpaceGrid(x=x, p=p, kind=DistributionKind(doc["kind"]),
                          values=np.asarray(doc["values"]), delta=doc.get("delta"))


def load_distribution_csv_reference(path):
    """A distribution CSV file as read before the block reader: one
    ``np.loadtxt`` of the whole table, then its axes from ``np.unique`` and a
    check that the rows are ``np.repeat`` x by ``np.tile`` p."""
    from pathlib import Path

    from phaselab.phasespace import DistributionKind, PhaseSpaceGrid

    with Path(path).open() as fh:
        if fh.readline().rstrip("\r\n") != "x,p,value":
            raise ValueError(f"{path}: expected CSV header 'x,p,value'")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # empty input: rejected below
                table = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed CSV: {exc}") from None
    if table.shape[0] == 0 or table.shape[1] != 3:
        raise ValueError(f"{path}: expected rows of 3 numbers, got shape {table.shape}")
    x, p = np.unique(table[:, 0]), np.unique(table[:, 1])
    if table.shape[0] != x.size * p.size or not (
        np.array_equal(table[:, 0], np.repeat(x, p.size))
        and np.array_equal(table[:, 1], np.tile(p, x.size))
    ):
        raise ValueError(f"{path}: rows do not cover an (x, p) grid in row-major order")
    return PhaseSpaceGrid(x=x, p=p, kind=DistributionKind.HISTOGRAM,
                          values=table[:, 2].reshape(x.size, p.size))


def distribution_doc_reference(path):
    """A distribution JSON document as the row route read it from the whole
    file's bytes before the block reader: the table cut between the first
    ``"values": [[`` and the last ``]]``, split at every ``], [``, each row
    decoded by ``json.loads``; None where that route declined."""
    from pathlib import Path

    data = Path(path).read_bytes()
    key = b'"values": '
    at = data.find(key + b"[[")
    hi = data.rfind(b"]]") + 2
    if data.startswith(b"x,") or at < 0 or hi < at + len(key) + 4:
        return None
    a, stop = at + len(key) + 1, hi - 2  # the '[' that opens a row, the ']' that closes the last
    rows = []
    for _ in range(data.count(b"], [", a, stop) + 1):
        b = data.find(b"], [", a, stop)
        b = stop if b < 0 else b
        try:
            row = np.asarray(json.loads(data[a : b + 1].decode("ascii")))
        except ValueError:
            return None
        if row.dtype != np.float64 or (rows and row.shape != rows[0].shape):
            return None
        rows.append(row)
        a = b + 3
    head, tail = data[:at], data[hi:]
    if not (head + tail).isascii():
        return None
    head, tail = head.decode() + '"values": null', tail.decode()

    def without_repeats(pairs):
        doc = dict(pairs)
        if len(doc) < len(pairs):
            raise ValueError("repeated key")
        return doc

    try:
        pairs = json.loads(head + "}", object_pairs_hook=list)
        doc = json.loads(head + tail, object_pairs_hook=without_repeats)
    except ValueError:
        return None
    if not (isinstance(doc, dict) and pairs[-1:] == [("values", None)]):
        return None
    doc["values"] = np.stack(rows)
    return doc
