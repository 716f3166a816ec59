"""Independent quadrature oracles used to pin expected values.

These deliberately avoid the package's FFT machinery: states are analytic
callables and every integral is a dense trapezoid quadrature.
"""

import json

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


def apply_interaction_reference(comp, g):
    """Coupled composite amplitudes as first written: one momentum-space phase
    column per system lattice point, exp(-i*g*outer(p_dev, x_sys))."""
    from phaselab.core import fourier_sum

    gd, gs = comp.device_grid, comp.system_grid
    phi = fourier_sum(comp.amp, gd.x, gd.p, gd.dx / np.sqrt(2.0 * np.pi), sign=-1, axis=0)
    phi = phi * np.exp(-1j * g * np.outer(gd.p, gs.x))
    return fourier_sum(phi, gd.p, gd.x, gd.dp / np.sqrt(2.0 * np.pi), sign=+1, axis=0)


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
