"""File formats of every artifact phaselab writes.

The CLI decides what to write; the layouts live here.  Identical runs produce
identical bytes, and both text encodings are lossless for float64:

- CSV writes each float as ``%.17g``, 17 significant digits
  (``0.10000000000000001``, ``10000000000000000``).
- JSON writes each float as Python's shortest round-trip ``repr`` (``0.1``,
  ``1e+16``), one document per file with sorted keys and a final newline.

Every array-valued table (distribution CSV and JSON ``values``,
characteristic ``values_re``/``values_im``, ``records.csv``, state CSV and
JSON ``amp``) goes through one vectorised encoder, ``_encode``, which gives
the bytes of ``'%.17g' %`` and of ``json.dumps`` exactly.  For each finite
nonzero |v| it forms X = |v| * 10**(16 - E) in double-double arithmetic from
the integer mantissa and a table of 10**q held to about 107 bits, with an
error below 2**-100 * X (under 1e-13 for X < 1e17).  The 17 digits are X rounded; repr's
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

A state or distribution file is CSV if it is named ``*.csv`` or its first two
bytes are ``x,``, and JSON otherwise; ``_is_csv`` alone decides this.  A
distribution file is read back from one open handle, one block at a time,
so that beside the n x n values only one block of text and of parsed rows is
live.  A CSV table goes through ``np.loadtxt`` CHUNK_ROWS lines at a time,
and each block is checked where it lies, by position: the first x row
fixes the p lattice (n_p lines, increasing strictly), line k holds
p[k mod n_p] at the x of line k - 1 inside a row and at a greater x where
k mod n_p = 0, and the file ends on a whole row.  A JSON document is read as
one stream of text split at each ``]``, and its ``values`` table row by row,
each row decoded by ``json.loads`` into one float64 array; the table is taken
only where the pieces follow the writer's ``], [`` separators and every row
is a flat float array of one length (``true`` and ``false``, which decode
there as 1.0 and 0.0, send the document to the other route, which refuses
them).  Any other JSON document goes through ``json.loads`` whole, in
``load_json``, whose errors name the file.

The field tables ``_STATE``, ``_DISTRIBUTION`` and ``_CHARACTERISTIC`` are the
one place that names what each JSON header holds: each maps a field to its
check.  The writers pass their values in the table's order through
``_fields``, and ``_header`` reads a document's header through the same
table, so a missing or bad field is a ``ValueError`` of the form
``{path}: {field} ...``.  Each CSV layout's header line is likewise named
once (``_STATE_CSV``, ``_DISTRIBUTION_CSV``, ``_RECORDS_CSV``) for its writer
and its reader.

A distribution or characteristic JSON reload rebuilds each axis as
min + step*k from its two header fields, with the step written as the
difference of the first two points.  On a lattice whose points are not
min + step*k to the bit this moves the last bits: at n = 1024 on [-16, 16),
1022 of the 1024 reloaded p values differ from ``Grid.p``, by up to 6.6e-12,
while x is bit-equal; at n = 512 on [-15, 17.3), 509 x values differ by up
to 1.8e-13 and 510 p values by up to 1.4e-12.  The values and the CSV axes
keep their bits.

Layouts:

- State JSON: the ``_STATE`` fields plus either ``amp``, the interleaved
  (re, im) amplitudes, or ``amp_file``, the name of a little-endian float64
  sidecar beside the JSON file holding exactly 2n values.
- State CSV: header ``x,re,im``, one row per lattice point, position basis only.
- Distribution CSV: header ``x,p,value``, one row per cell, row-major in x.
  It is lossy: without ``kind`` or ``delta`` it reloads as a ``HISTOGRAM``
  with ``delta=None``.
- Distribution JSON: the ``_DISTRIBUTION`` fields plus ``values``, with
  ``values[i][j]`` at (x_i, p_j).
- Characteristic JSON: the ``_CHARACTERISTIC`` fields (s in [-1, 1]) plus
  ``values_re`` and ``values_im``, the real and imaginary parts at
  (u_i, v_j), of one shape.  ``load_characteristic`` fills the parts of a
  complex array from them, so signed zeros and the non-finite cells of an
  s > 0 file keep their bits (a written NaN reloads as json's NaN).
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

# What opens the table of a distribution JSON document, as the writer lays it out.
_VALUES_KEY = '"values": [['

# Characters of a distribution JSON document read per block: CHUNK_ROWS cells of text.
_READ_BYTES = CHUNK_ROWS * _FIELD

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


@functools.cache
def _specials(shortest: bool) -> np.ndarray:
    """The NUL-padded texts of NaN, inf and -inf as ``json.dumps`` (shortest) or
    ``'%.17g' %`` writes them, whatever the sign of a NaN."""
    texts = (b"NaN", b"Infinity", b"-Infinity") if shortest else (b"nan", b"inf", b"-inf")
    table = np.frombuffer(b"".join(t.ljust(_FIELD, b"\0") for t in texts), np.uint8)
    return table.reshape(3, _FIELD)


def _encode(values, shortest: bool):
    """Text of each float as ``json.dumps`` (shortest=True: repr, NaN, Infinity)
    or ``'%.17g' %`` writes it, left-aligned in a row of _FIELD bytes padded with
    NUL; also the mask of values not laid out from their digits: the non-finite
    ones, taken from a table, and those handed to Python's formatter."""
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
    special = v[~finite]
    if special.size:  # rows 0, 1, 2 of _specials: NaN of either sign, inf, -inf
        out[~finite] = _specials(shortest)[np.where(np.isnan(special), 0, 1 + np.signbit(special))]
    for i in np.flatnonzero(doubt & finite):
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


def _write_grid_csv(path, header: str, dist: PhaseSpaceGrid) -> None:
    """The header line, then x, p, value lines, row-major in x; x and p are
    encoded once."""
    n_p = dist.p.size
    rows = max(1, CHUNK_ROWS // n_p)
    xs, ps = _encode(dist.x, False)[0], _encode(dist.p, False)[0]
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, dist.x.size, rows):
            values = _encode(dist.values[start : start + rows], False)[0]
            pieces = (xs[start : start + rows, None], b",", ps, b",",
                      values.reshape(-1, n_p, _FIELD), b"\n")
            fh.write(_text(pieces, (values.shape[0] // n_p, n_p)))


def _write_json_rows(fh, table: np.ndarray) -> None:
    """The cells of a 1-D float table, or the rows of a 2-D one, as
    ``json.dumps`` writes a list, without the outer brackets."""
    nested = table.ndim == 2
    n_cols = table.shape[1] if nested else 1  # a 1-D table: one column, no brackets
    opening = np.zeros((n_cols, 3), np.uint8)
    opening[:, 1:] = np.frombuffer(b", ", np.uint8)
    opening[0] = np.frombuffer(b", [" if nested else b"\0, ", np.uint8)
    closing = np.zeros((n_cols, 1), np.uint8)
    closing[-1] = ord("]") * nested
    rows = max(1, CHUNK_ROWS // n_cols)
    for start in range(0, table.shape[0], rows):
        fields = _encode(table[start : start + rows], True)[0]
        text = _text((opening, fields.reshape(-1, n_cols, _FIELD), closing),
                     (fields.shape[0] // n_cols, n_cols))
        fh.write(text[2:] if start == 0 else text)  # every row opens with ", ["


def _is_csv(path: Path) -> bool:
    """Whether a table file is CSV (named ``*.csv`` or starting ``x,``), for every reader."""
    if path.suffix == ".csv":
        return True
    with path.open("rb") as fh:
        return fh.read(2) == b"x,"


def _csv_blocks(path: Path, header: str):
    """The float rows of the CSV file ``path`` after its ``header`` line,
    CHUNK_ROWS rows at a time; blank and ``#`` comment lines are skipped, as
    ``np.loadtxt`` skips them."""
    width = header.count(",") + 1
    with path.open() as fh:
        try:
            first = fh.readline()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: malformed CSV: {exc}") from None
        if first.rstrip("\r\n") != header:
            raise ValueError(f"{path}: expected CSV header {header!r}, got {first.strip()!r}")
        for count in itertools.count():
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # no rows left: loadtxt warns
                    block = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2,
                                       max_rows=CHUNK_ROWS)
            except ValueError as exc:
                raise ValueError(f"{path}: malformed CSV: {exc}") from None
            if block.shape[1] != width and (block.size or count == 0):
                raise ValueError(f"{path}: expected rows of {width} numbers, got shape {block.shape}")
            if block.size:
                yield block
            if block.shape[0] < CHUNK_ROWS:
                return


def _integer(value) -> int:
    """A JSON integer (``int()`` would truncate 64.9)."""
    if type(value) is not int:
        raise ValueError(f"must be an integer, got {value!r}")
    return value


def _grid_size(value) -> int:
    """A JSON integer that ``check_grid_size`` passes."""
    check_grid_size(_integer(value))
    return value


def _finite(value, positive: bool = False) -> float:
    """A JSON number (not a bool) that is finite, and above 0 if ``positive``."""
    if type(value) not in (int, float):
        raise ValueError(f"must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the largest float
        number = math.inf
    if not (math.isfinite(number) and (number > 0.0 or not positive)):
        need = "positive and finite" if positive else "finite"
        raise ValueError(f"must be {need}, got {number!r}")
    return number


_positive = functools.partial(_finite, positive=True)


def _or_none(check):
    """``check`` for a field that may be absent or null, which reads as None."""
    return lambda value: None if value is None else check(value)


def _order(value) -> float:
    """A JSON number in [-1, 1], the order s of a characteristic function."""
    s = _finite(value)
    if not -1.0 <= s <= 1.0:
        raise ValueError(f"must lie in [-1, 1], got {s!r}")
    return s


# Each JSON header's fields and their checks, which take the field's JSON value
# (None where it is absent) and return its value or raise ValueError.  The
# writers give their values in the same order, through _fields.
_GRID = {"n": _integer, "x_min": _finite, "dx": _positive}
_STATE = {**_GRID, "n": _grid_size, "basis": Basis}
_DISTRIBUTION = {**_GRID, "p_min": _finite, "dp": _positive, "kind": DistributionKind,
                 "delta": _or_none(_positive)}
_CHARACTERISTIC = {"s": _order, "u_min": _finite, "du": _positive, "v_min": _finite,
                   "dv": _positive}

# The header line of each CSV layout, for its writer and its reader.
_STATE_CSV, _DISTRIBUTION_CSV, _RECORDS_CSV = "x,re,im", "x,p,value", "shot,x,p"


def _fields(table: dict, *values) -> dict:
    """The header with ``table``'s fields, their values given in its order."""
    return dict(zip(table, values, strict=True))


def _header(path, doc: dict, fields: dict) -> list:
    """The value of each of ``fields`` in ``doc``, in the table's order, through
    its check; a field that its check refuses is a ``ValueError`` of the form
    ``{path}: {field} ...``."""
    values = []
    for name, check in fields.items():
        try:
            values.append(check(doc.get(name)))
        except ValueError as exc:
            why = exc if name in doc else f"is missing: no key {name!r}"
            raise ValueError(f"{path}: {name} {why}") from None
    return values


def save_json(doc: dict, path, **tables: np.ndarray) -> None:
    """``doc`` and the 1-D or 2-D float arrays passed by keyword as one JSON
    object with sorted keys, the bytes of ``json.dumps``; an array is encoded in
    chunks of cells or rows."""
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
    """A file's one JSON object; a file that is not JSON, or holds another
    value, is a ``ValueError`` that starts with ``path``."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: must hold one JSON object, got {json.dumps(doc)[:40]}")
    return doc


def save_wavefunction(psi: WaveFunction, path, fmt: str = "json", binary_sidecar: bool = False) -> None:
    path = Path(path)
    g = psi.grid
    if fmt == "csv":
        if binary_sidecar:
            raise ValueError("a binary sidecar goes with JSON wavefunction files only")
        if psi.basis is not Basis.POSITION:
            raise ValueError("CSV wavefunction files carry position-basis states only")
        _write_csv(path, _STATE_CSV, (g.x, psi.amp.real, psi.amp.imag))
        return
    if fmt != "json":
        raise ValueError(f"unknown wavefunction format {fmt!r}")
    header = _fields(_STATE, g.n, g.x_min, g.dx, psi.basis.value)
    interleaved = np.ascontiguousarray(psi.amp).view(np.float64)
    if binary_sidecar:
        sidecar = path.with_suffix(path.suffix + ".bin")
        interleaved.astype("<f8").tofile(sidecar)
        save_json({**header, "amp_file": sidecar.name}, path)
    else:
        save_json(header, path, amp=interleaved)


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
    # in native byte order, which _state's complex view needs; no copy on little-endian hosts
    return np.fromfile(sidecar, dtype="<f8").astype(np.float64, copy=False)


def _state(path, grid: Grid, basis: Basis, interleaved: np.ndarray) -> WaveFunction:
    """The state on ``grid`` of the 2n contiguous interleaved (re, im)
    amplitudes, viewed as complex pairs: the same bits, signed zeros kept."""
    if not np.isfinite(interleaved).all():
        raise ValueError(f"{path}: amplitudes must be finite")
    return WaveFunction(grid, basis, interleaved.view(np.complex128))


def _state_from_rows(path, blocks) -> WaveFunction:
    table = np.concatenate(list(blocks))
    xs = table[:, 0]
    _header(path, {"n": xs.size}, {"n": _grid_size})
    dx = float(xs[1] - xs[0])
    if not (dx > 0.0 and np.all(np.abs(np.diff(xs) - dx) <= _SPACING_RTOL * dx)):
        raise ValueError(f"{path}: x column must be uniform and increasing")
    grid = Grid(n=xs.size, x_min=float(xs[0]), dx=dx)
    return _state(path, grid, Basis.POSITION, table[:, 1:].ravel())


def load_wavefunction(path) -> WaveFunction:
    path = Path(path)
    if _is_csv(path):
        return _state_from_rows(path, _csv_blocks(path, _STATE_CSV))
    doc = load_json(path)
    n, x_min, dx, basis = _header(path, doc, _STATE)
    amp_file, amp = doc.get("amp_file"), doc.get("amp")
    if amp_file is not None:
        interleaved = _sidecar(path, amp_file, n)
    elif isinstance(amp, list) and len(amp) == 2 * n and all(type(v) in (int, float) for v in amp):
        try:
            interleaved = np.array(amp, dtype=np.float64)
        except OverflowError:
            raise ValueError(f"{path}: amp holds an integer too large for a float") from None
    else:
        raise ValueError(f"{path}: amp must be a list of 2n = {2 * n} numbers")
    return _state(path, Grid(n=n, x_min=x_min, dx=dx), basis, interleaved)


def save_distribution(dist: PhaseSpaceGrid, path, fmt: str = "csv") -> None:
    if fmt == "csv":
        _write_grid_csv(path, _DISTRIBUTION_CSV, dist)
        return
    if fmt != "json":
        raise ValueError(f"unknown distribution format {fmt!r}")
    save_json(_fields(_DISTRIBUTION, dist.x.size, float(dist.x[0]), dist.dx, float(dist.p[0]),
                      dist.dp, dist.kind.value, dist.delta), path, values=dist.values)


def _distribution_from_rows(path, blocks) -> PhaseSpaceGrid:
    """The grid of ``x,p,value`` rows, each block checked where it lies.  The
    first x row fixes the p lattice: its n_p lines (read across blocks where
    it is longer than one), with p increasing strictly.  Then line k holds
    p[k mod n_p], at the x of line k - 1 inside a row and at a greater x where
    k mod n_p = 0, and the file ends on a whole row.  Only each row's x and
    the values are kept."""
    head = [next(blocks)]
    while np.all(head[-1][:, 0] == head[0][0, 0]) and (block := next(blocks, None)) is not None:
        head.append(block)
    head = np.concatenate(head)
    p = head[: np.argmax(np.append(head[:, 0] != head[0, 0], True)), 1]  # to the first new x
    ok, k, prev, xs, values = p.size and np.all(p[1:] > p[:-1]), 0, np.empty(0), [], []
    for block in itertools.chain([head], blocks) if ok else ():
        x, j = block[:, 0], (k + np.arange(len(block))) % p.size
        before = np.concatenate((prev, x[:-1]))  # x of line k - 1; line 0 has none
        x_at, j_at = x[len(x) - len(before) :], j[len(x) - len(before) :]
        ok = np.all(block[:, 1] == p[j]) and np.all(np.where(j_at, x_at == before, x_at > before))
        if not ok:
            break
        k, prev = k + len(x), x[-1:]
        xs.append(x[j == 0])
        values.append(block[:, 2].copy())
    if not ok or k % p.size:
        raise ValueError(f"{path}: rows do not cover an (x, p) grid in row-major order")
    values = np.concatenate(values).reshape(-1, p.size)  # the list goes before the grid copies it
    return PhaseSpaceGrid(x=np.concatenate(xs), p=p, kind=DistributionKind.HISTOGRAM,
                          values=values)


def _without_repeats(pairs):
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise ValueError("repeated key")
    return doc


def _pieces(fh, sep: str):
    """The text of the open text handle ``fh`` between successive ``sep``, read
    _READ_BYTES characters at a time; a piece's parts are joined once, at its
    ``sep``."""
    parts = []
    while chunk := fh.read(_READ_BYTES):
        first, *rest = chunk.split(sep)
        parts.append(first)
        if rest:
            yield "".join(parts)
            yield from rest[:-1]
            parts = [rest[-1]]
    yield "".join(parts)


def _distribution_doc(path: Path):
    """The decoded distribution JSON document with its ``values`` table read
    one row at a time from the file's pieces between ``]``, or None where this
    route cannot show that ``json.loads`` gives the same document.

    The first piece runs up to the writer's ``"values": [[`` and holds the
    first row; each later piece must be the writer's ``, [`` and a row, until
    the empty piece inside the table's closing ``]]``.  Each row, decoded by
    ``json.loads`` with its brackets, must be a flat float64 array of the
    first row's length; it holds no ``]``, so these are the rows that
    ``json.loads`` reads, and the first ``]]`` closes the table in its parse
    too.  With ``null`` in the table's place, the head closed by ``}`` must
    decode to an object whose last key is "values", so the table is the
    top-level "values" field, not one in a nested object or inside a string;
    and the head and the tail after the table must decode with no repeated
    key."""
    try:
        with path.open() as fh:
            pieces = _pieces(fh, "]")
            head, key, text = next(pieces).partition(_VALUES_KEY)
            if not key:
                return None
            head += '"values": null'
            if json.loads(head + "}", object_pairs_hook=list)[-1:] != [("values", None)]:
                return None
            rows = []
            for text in itertools.chain([", [" + text], pieces):
                if not text:  # between the table's closing ']]'
                    break
                if not text.startswith(", ["):
                    return None
                row = np.asarray(json.loads(text[2:] + "]"))
                # true and false decode as floats here; no number, NaN or Infinity holds r or l
                if (row.dtype != np.float64 or row.shape != (rows[0] if rows else row).shape
                        or "r" in text or "l" in text):
                    return None
                rows.append(row)
            else:  # the file ends inside the table
                return None
            doc = json.loads(head + "]".join(pieces), object_pairs_hook=_without_repeats)
    except ValueError:  # a byte that does not decode, or text that is not JSON
        return None
    doc["values"] = np.stack(rows)
    return doc


def _table(path, doc: dict, name: str) -> np.ndarray:
    """The float64 array of the table ``doc[name]``: rows of numbers (no bool)
    of one length, at least one each; anything else is a ``ValueError`` that
    names ``path`` and the table."""
    table = doc.get(name)
    try:
        values = np.asarray(table)
        if values.ndim != 2 or values.dtype.kind not in "fiu":  # not a string, null or bool
            raise ValueError(f"got a {values.ndim}-D array of {values.dtype}")
        if not values.shape[1]:
            raise ValueError(f"got {values.shape[0]} row(s) of no number")
        if isinstance(table, list) and any(bool in map(type, row) for row in table):
            raise ValueError("got true or false among the numbers")
    except ValueError as exc:
        raise ValueError(f"{path}: {name} must be rows of numbers of one length: {exc}") from None
    return values.astype(np.float64, copy=False)


def load_distribution(path) -> PhaseSpaceGrid:
    """A distribution file, read one block of rows at a time: a JSON
    document's ``values`` table row by row where ``_distribution_doc`` can,
    with the same result, and a CSV table CHUNK_ROWS lines at a time."""
    path = Path(path)
    if _is_csv(path):
        return _distribution_from_rows(path, _csv_blocks(path, _DISTRIBUTION_CSV))
    doc = _distribution_doc(path) or load_json(path)
    n, x_min, dx, p_min, dp, kind, delta = _header(path, doc, _DISTRIBUTION)
    values = _table(path, doc, "values")
    n_p = values.shape[1]
    if values.shape[0] != n:
        raise ValueError(f"{path}: values shape {values.shape} does not match n = {n} "
                         f"rows of {n_p}")
    x, p = x_min + dx * np.arange(n), p_min + dp * np.arange(n_p)
    return PhaseSpaceGrid(x=x, p=p, kind=kind, values=values, delta=delta)


def save_characteristic(cg: CharacteristicGrid, path) -> None:
    save_json(_fields(_CHARACTERISTIC, cg.s, float(cg.u[0]), float(cg.u[1] - cg.u[0]),
                      float(cg.v[0]), float(cg.v[1] - cg.v[0])),
              path, values_re=cg.values.real, values_im=cg.values.imag)


def load_characteristic(path) -> CharacteristicGrid:
    """A characteristic JSON file on u = u_min + du*k and v = v_min + dv*k,
    each part of its values with the bits of its table: signed zeros and
    non-finite cells too, which ``re + 1j*im`` would not keep."""
    path = Path(path)
    doc = load_json(path)
    s, u_min, du, v_min, dv = _header(path, doc, _CHARACTERISTIC)
    re, im = _table(path, doc, "values_re"), _table(path, doc, "values_im")
    if re.shape != im.shape:
        raise ValueError(f"{path}: values_re shape {re.shape} does not match "
                         f"values_im shape {im.shape}")
    values = np.empty(re.shape, np.complex128)
    values.real, values.imag = re, im
    return CharacteristicGrid(u=u_min + du * np.arange(re.shape[0]),
                              v=v_min + dv * np.arange(re.shape[1]), s=s, values=values)


def save_records(x: np.ndarray, p: np.ndarray, path) -> None:
    """Sampled outcomes as ``records.csv``: shot index, x, p."""
    _write_csv(path, _RECORDS_CSV, (range(x.size), x, p))


def save_report(verdicts: dict, ok: bool, out) -> str:
    """``report.txt`` from each source's verdict and the overall one ``ok``;
    returns the text."""
    out = Path(out)
    lines = [f"{name}: {'PASS' if v else 'FAIL'}" for name, v in sorted(verdicts.items())]
    if not verdicts:
        lines.append(f"no *.report.json or *.summary.json in {out}")
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    text = "\n".join(lines) + "\n"
    (out / "report.txt").write_text(text)
    return text
