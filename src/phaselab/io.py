"""File formats of every artifact phaselab writes.

The CLI decides what to write; the layouts live here.  Identical runs produce
identical bytes, and both text encodings are lossless for float64:

- CSV writes each float as ``%.17g``, 17 significant digits
  (``0.10000000000000001``, ``10000000000000000``).
- JSON writes each float as Python's shortest round-trip ``repr`` (``0.1``,
  ``1e+16``), one document per file with sorted keys and a final newline.

Every array-valued table (distribution CSV and JSON ``values``,
characteristic ``values_re``/``values_im``, ``records.csv``, state CSV) goes
through one vectorised encoder, ``_encode``, which gives the bytes of
``'%.17g' %`` and of ``json.dumps`` exactly.  For each finite nonzero |v| it
forms X = |v| * 10**(16 - E) in double-double arithmetic from the integer
mantissa and a table of 10**q held to about 107 bits, with an error below
2**-100 * X (under 1e-13 for X < 1e17).  The 17 digits are X rounded; repr's
digits are the fewest k for which the k-digit rounding of X lies strictly
within the half-gap X / (2m) of X (m the integer mantissa).  One ``np.take``
per chunk gathers each text from the value's digits, exponent digits and the
bytes ``-.e+0``, in the order a cached layout table lists for its sign, digit
count and notation (fixed point, or a two- or three-digit exponent of either
sign); each chunk of table text is then compacted once.  A value goes to
Python's own formatter instead when any of these decisions falls within 1e-9
(in units of the last digit, relative for the half-gap test) of its boundary,
which covers exact ties; when it is not finite; and, for repr, when its
mantissa is a power of two, whose gap below is half the gap above.

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

import functools
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np

from .core import Basis, Grid, WaveFunction, check_grid_size
from .phasespace import CharacteristicGrid, DistributionKind, PhaseSpaceGrid

# Table rows (CSV lines, or JSON cells) encoded and written per chunk: bounds the
# working arrays, whatever the size of the table.
CHUNK_ROWS = 1 << 14

# Largest relative departure of a state CSV's x steps from the first step;
# 17-digit round trips of a uniform lattice stay below ~n * 1e-16.
_SPACING_RTOL = 1e-6

# Bytes per encoded float: the longest text is '-2.2250738585072014e-308'.
_FIELD = 24

# Decisions this close to their boundary (in units of the 17th digit; relative
# to the half-gap for the round-trip test) go to Python's formatter.  The
# scaled value carries an error below 2**-100 of itself, under 1e-13 units.
_MARGIN = 1e-9

_POW10 = 10 ** np.arange(18, dtype=np.int64)

# Each text is gathered from a source row: 17 digits, |exponent|'s 3 digits (a row
# of _EXPONENTS), then _TAIL.  The notation of exponent e is the count of _NOTATIONS
# <= e (0: three digits, negative; then two, negative; fixed -4..16; two; three).
_TAIL = b"-.e+0\0"
_EXPONENTS = np.frombuffer(b"".join(b"%03d" % k for k in range(325)), np.uint8).reshape(-1, 3)
_MINUS, _POINT, _E, _PLUS, _ZERO, _NUL = range(20, 20 + len(_TAIL))
_NOTATIONS = (-99, *range(-4, 18), 100)
_Q_MIN, _Q_MAX = 16 - 308, 16 + 324  # 10**q scales each finite nonzero float into [1e16, 1e17)


@functools.cache
def _pow10_table():
    """10**q for q in [_Q_MIN, _Q_MAX] as (hh + hl + lo) * 2**s: hh + hl is the
    double nearest the leading 128 bits, split in 26-bit halves (Veltkamp) for
    exact products, and lo the next 53 bits.  Built from Python ints (about 2 ms)
    on first use, read-only."""
    qs = range(_Q_MIN, _Q_MAX + 1)
    hh, hl, lo = np.empty(len(qs)), np.empty(len(qs)), np.empty(len(qs))
    s = np.empty(len(qs), np.int64)
    for i, q in enumerate(qs):
        if q >= 0:
            a, b = 10**q << 128, -128
        else:
            b = -(128 + (10**-q).bit_length())
            a = (1 << -b) // 10**-q
        k = a.bit_length() - 128
        a, b = (a + (1 << (k - 1))) >> k, b + k  # 10**q ~ a * 2**b, a of 128 bits
        t = a.bit_length() - 53
        h = (a + (1 << (t - 1))) >> t
        th = h / 2.0**52
        split = 134217729.0 * th
        hh[i] = split - (split - th)
        hl[i] = th - hh[i]
        lo[i] = math.ldexp(a - (h << t), -52 - t)
        s[i] = t + b + 52
    for table in (hh, hl, lo, s):
        table.flags.writeable = False
    return hh, hl, lo, s


def _scaled(m, f, e):
    """X = m * 2**f * 10**(16 - e) as hi + lo, by Dekker's exact product of m
    (split at bit 26) with the table's leading double."""
    table_hh, table_hl, table_lo, table_exp = _pow10_table()
    i = 16 - e - _Q_MIN
    th, tl, lo = table_hh[i], table_hl[i], table_lo[i]
    mh = (m >> 26 << 26).astype(np.float64)
    ml = (m & ((1 << 26) - 1)).astype(np.float64)
    mf = mh + ml
    prod = mf * (th + tl)
    err = ml * tl - (((prod - mh * th) - ml * th) - mh * tl) + mf * lo
    hi = prod + err
    scale = ((f + table_exp[i] + 1023) << 52).view(np.float64)  # a power of two
    return hi * scale, (err - (hi - prod)) * scale


def _digits17(a):
    """For finite a > 0: (d, r, e, m, x, doubt) with e = floor(log10(a)),
    d the 17-digit integer nearest X = a * 10**(16 - e), r = X - d, m the integer
    mantissa, x ~ X, and doubt where the rounding fell within the margin of a tie."""
    bits = a.view(np.uint64)
    be = (bits >> np.uint64(52)).view(np.int64)
    frac = (bits & np.uint64((1 << 52) - 1)).view(np.int64)
    m = frac | (be > 0).astype(np.int64) << 52
    f = np.maximum(be, 1) - 1075
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(m, f, e)
    for _ in range(2):  # log10 may miss by one next to a power of ten
        up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        fix = np.flatnonzero(up | (hi < 1e16) | ((hi == 1e16) & (lo < 0)))
        if fix.size == 0:
            break
        e[fix] += np.where(up[fix], 1, -1)
        hi[fix], lo[fix] = _scaled(m[fix], f[fix], e[fix])
    floor = np.floor(lo)
    r = lo - floor
    up = r > 0.5
    d = hi.astype(np.int64) + floor.astype(np.int64) + up
    return d, r - up, e, m, hi, np.abs(r - 0.5) < _MARGIN


def _probe(d, r, h, margin, k):
    """The k-digit candidate nearest X = d + r as a 17-digit integer, whether it
    lies strictly within the half-gap h of X, and doubt about either."""
    p = _POW10[17 - k]
    q = d // p
    s = (2 * (d - q * p) - p).astype(np.float64) + 2.0 * r  # 2 * (X mod p) - p, sign exact
    cand = (q + (s > 0)) * p
    dist = np.abs((cand - d).astype(np.float64) - r)
    ok = dist < h
    return cand, ok, (np.abs(dist - h) < margin) | (ok & (np.abs(s) < 2 * _MARGIN))


def _shortest(d, r, m, x):
    """repr's digits: the fewest that round-trip, nearest X of those, as a 17-digit
    integer, and doubt.  Round-tripping is monotone in the digit count k; the k
    with 10**(17-k) < 2h always passes, so the search runs down from it."""
    h = x / (2.0 * m)
    margin = _MARGIN * (1.0 + h)
    k = 17 - np.minimum(np.floor(np.log10(2.0 * h)), 16).astype(np.int64)
    best, ok, doubt = _probe(d, r, h, margin, k)
    doubt |= ~ok
    more = k > 1  # one digit fewer is tried on every row, then on those that pass
    cand, ok, unsure = _probe(d, r, h, margin, k - more)
    ok &= more
    doubt |= unsure & more
    act = np.flatnonzero(ok)
    while act.size:
        best[act], k[act] = cand[ok], k[act] - 1
        act = act[k[act] > 1]
        cand, ok, unsure = _probe(d[act], r[act], h[act], margin[act], k[act] - 1)
        doubt[act] |= unsure
        act = act[ok]
    return best, doubt


def _decimal(a, shortest: bool):
    """(d, e, doubt) for finite a > 0: a ~ d * 10**(e - 16) with d a 17-digit
    integer, from ``%.17g``'s digits or (shortest) repr's, and where in doubt."""
    d, r, e, m, x, doubt = _digits17(a)
    if shortest:
        d, worse = _shortest(d, r, m.astype(np.float64), x)
        # above a power of two the gap below is half the gap above
        doubt |= worse | ((m == 1 << 52) & (a >= 2.0**-1021))
    carry = d == 10**17
    d[carry] = 10**16
    return d, e + carry, doubt


@functools.cache
def _layouts(shortest: bool) -> np.ndarray:
    """The source columns of each text that repr (shortest) or ``'%.17g' %``
    writes, NUL-padded to _FIELD, in row (neg * 17 + nd - 1) * 25 + notation for
    sign neg and nd significant digits.  Built on first use, read-only."""
    rows = []
    for neg, nd, e in itertools.product((0, 1), range(1, 18), (-100, *_NOTATIONS)):
        digits = list(range(nd))
        if e < -4 or e >= (16 if shortest else 17):
            text = digits[:1] + [_POINT] * (nd > 1) + digits[1:] + [_E, _MINUS if e < 0 else _PLUS]
            text += [17, 18, 19][abs(e) < 100 :]
        elif e < 0:
            text = [_ZERO, _POINT] + [_ZERO] * (-e - 1) + digits
        else:  # the digit columns past nd hold '0'
            text = list(range(e + 1)) + ([_POINT] + digits[e + 1 :] if nd > e + 1
                                         else [_POINT, _ZERO] * shortest)
        rows.append([_MINUS] * neg + text + [_NUL] * (_FIELD - neg - len(text)))
    table = np.array(rows, np.intp)
    table.flags.writeable = False
    return table


def _digit_columns(d):
    """The decimal digits of 0 <= d < 10**17, most significant first, in 17
    uint8 columns."""
    out = np.empty((d.size, 17), np.uint8)
    high = (d // 10**8).astype(np.uint32)
    low = (d - high.astype(np.int64) * 10**8).astype(np.uint32)
    for x, cols in ((low, range(16, 8, -1)), (high, range(8, -1, -1))):
        for c in cols:
            q = x // 10
            out[:, c] = x - q * 10
            x = q
    return out


def _encode(values, shortest: bool):
    """Text of each float as ``json.dumps`` (shortest=True: repr, NaN, Infinity)
    or ``'%.17g' %`` writes it, left-aligned in a row of _FIELD bytes padded with
    NUL; also the mask of values handed to Python's formatter."""
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    finite = a <= np.finfo(np.float64).max
    num = np.flatnonzero(finite & (a != 0))
    d = np.zeros(v.size, np.int64)
    e = np.zeros(v.size, np.int64)
    doubt = ~finite
    if num.size:
        d[num], e[num], doubt[num] = _decimal(a[num], shortest)
    digits = _digit_columns(d)
    nd = 17 - np.argmax(digits[:, ::-1] != 0, axis=1)  # significant digits
    nd[d == 0] = 1
    source = np.empty((v.size, 20 + len(_TAIL)), np.uint8)
    np.add(digits, 48, out=source[:, :17])
    source[:, 17:20] = np.take(_EXPONENTS, np.abs(e), axis=0)
    source[:, 20:] = np.frombuffer(_TAIL, np.uint8)
    layout = (np.signbit(v) * 17 + nd - 1) * 25 + np.searchsorted(_NOTATIONS, e, side="right")
    columns = _layouts(shortest)[layout]
    columns += np.arange(0, source.size, source.shape[1])[:, None]
    out = np.take(source, columns)
    for i in np.flatnonzero(doubt):
        text = (json.dumps(float(v[i])) if shortest else "%.17g" % v[i]).encode()
        out[i] = 0
        out[i, : len(text)] = np.frombuffer(text, np.uint8)
    return out, doubt


def _encode_ints(values):
    """``'%d'`` of each integer in [0, 10**17), right-aligned in 17 bytes padded
    with NUL."""
    digits = _digit_columns(np.asarray(values, dtype=np.int64))
    shown = np.maximum.accumulate(digits != 0, axis=1)
    shown[:, -1] = True
    return (digits + 48) * shown


def _text(pieces, shape) -> bytes:
    """The bytes of table cells of ``shape``: each piece (a bytes constant, or
    uint8 fields broadcast against ``shape``) in order, NUL bytes dropped."""
    widths = [len(p) if isinstance(p, bytes) else p.shape[-1] for p in pieces]
    buf = np.empty(tuple(shape) + (sum(widths),), np.uint8)
    at = 0
    for piece, w in zip(pieces, widths):
        if isinstance(piece, bytes):
            piece = np.frombuffer(piece, np.uint8)
        buf[..., at : at + w] = piece
        at += w
    return buf[buf != 0].tobytes()


def _write_csv(path, header: str, columns) -> None:
    """The header line, then one line per row of the columns: a ``range`` as
    ``%d``, a float array as ``%.17g``."""
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(columns[-1]), CHUNK_ROWS):
            pieces = []
            for column in columns:
                part = column[start : start + CHUNK_ROWS]
                if isinstance(part, range):
                    pieces += [_encode_ints(np.arange(part.start, part.stop)), b","]
                else:
                    pieces += [_encode(part, False)[0], b","]
            pieces[-1] = b"\n"
            fh.write(_text(pieces, (pieces[0].shape[0],)))


def _write_grid_csv(path, dist: PhaseSpaceGrid) -> None:
    """``x,p,value`` lines, row-major in x; x and p are encoded once."""
    n_p = dist.p.size
    rows = max(1, CHUNK_ROWS // n_p)
    xs, ps = _encode(dist.x, False)[0], _encode(dist.p, False)[0]
    with open(path, "wb") as fh:
        fh.write(b"x,p,value\n")
        for start in range(0, dist.x.size, rows):
            values = _encode(dist.values[start : start + rows], False)[0]
            pieces = (xs[start : start + rows, None], b",", ps, b",",
                      values.reshape(-1, n_p, _FIELD), b"\n")
            fh.write(_text(pieces, (values.shape[0] // n_p, n_p)))


def _write_json_rows(fh, table: np.ndarray) -> None:
    """The rows of a 2-D float table as ``json.dumps`` writes a list of lists,
    without the outer brackets."""
    n_cols = table.shape[1]
    opening = np.zeros((n_cols, 3), np.uint8)
    opening[:, 1:] = np.frombuffer(b", ", np.uint8)
    opening[0] = np.frombuffer(b", [", np.uint8)
    closing = np.zeros((n_cols, 1), np.uint8)
    closing[-1] = ord("]")
    rows = max(1, CHUNK_ROWS // n_cols)
    for start in range(0, table.shape[0], rows):
        fields = _encode(table[start : start + rows], True)[0]
        text = _text((opening, fields.reshape(-1, n_cols, _FIELD), closing),
                     (fields.shape[0] // n_cols, n_cols))
        fh.write(text[2:] if start == 0 else text)  # every row opens with ", ["


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
    """``doc`` and the 2-D float arrays passed by keyword as one JSON object with
    sorted keys, the bytes of ``json.dumps``; an array is encoded in chunks of rows."""
    with open(path, "wb") as fh:
        fh.write(b"{")
        for i, key in enumerate(sorted({**doc, **tables})):
            fh.write(((", " if i else "") + json.dumps(key) + ": ").encode())
            if key not in tables:
                fh.write(json.dumps(doc[key], sort_keys=True).encode())
                continue
            fh.write(b"[")
            _write_json_rows(fh, tables[key])
            fh.write(b"]")
        fh.write(b"}\n")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def save_wavefunction(psi: WaveFunction, path, fmt: str = "json", binary_sidecar: bool = False) -> None:
    path = Path(path)
    g = psi.grid
    if fmt == "csv":
        if psi.basis is not Basis.POSITION:
            raise ValueError("CSV wavefunction files carry position-basis states only")
        _write_csv(path, "x,re,im", (g.x, psi.amp.real, psi.amp.imag))
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
        _write_grid_csv(path, dist)
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
    _write_csv(path, "shot,x,p", (range(x.size), x, p))


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
