"""The distribution JSON reader.  Its ``values`` table is read from blocks of
the file's bytes one row at a time, each row decoded by ``json.loads``, where
that route can show that ``json.loads`` of the whole document gives the same
document, and through ``json.loads`` of the whole document otherwise: it
accepts exactly what ``json.loads`` accepts, and returns the same bits.  The
n = 1024 reloads of both distribution layouts are checked here too."""

import json
import random

import numpy as np
import pytest

import oracles
from conftest import traced_peak
from phaselab import coherent_state, make_grid, superpose, wigner
from phaselab import io as plio
from phaselab.phasespace import DistributionKind, PhaseSpaceGrid

HEADER = {"delta": None, "dp": 0.5, "dx": 0.25, "kind": "wigner", "p_min": -1.0, "x_min": -0.5}
TABLE = np.array([[0.5, -1.25, 3.0], [1e-05, 2.5, -0.0]])
# save_json's layout of HEADER with TABLE
TEXT = ('{"delta": null, "dp": 0.5, "dx": 0.25, "kind": "wigner", "n": 2, "p_min": -1.0, '
        '"values": [[0.5, -1.25, 3.0], [1e-05, 2.5, -0.0]], "x_min": -0.5}\n')


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _write_table(path, table):
    plio.save_json({**HEADER, "n": table.shape[0]}, path, values=table)
    return path


def _fast_route_agrees(path):
    """Whether the row route took ``path``; where it did, its document is the
    one json.loads decodes, header and bits of every value."""
    fast = plio._distribution_doc(path)
    if fast is None:
        return False
    doc = json.loads(path.read_text())
    values = np.asarray(np.asarray(doc.pop("values")), dtype=np.float64)
    got = fast.pop("values")
    assert fast == doc
    assert got.shape == values.shape and np.array_equal(_bits(got), _bits(values))
    return True


def _outcome(load, path):
    """(grid fields, None) of a load, or (None, (exception type, message))."""
    try:
        d = load(path)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return None, (type(exc), str(exc))
    return (d.x.tobytes(), d.p.tobytes(), d.kind, d.delta, d.values.shape, d.values.tobytes()), None


def test_writer_layout_takes_the_fast_route(tmp_path):
    path = _write_table(tmp_path / "d.json", TABLE)
    assert path.read_text() == TEXT
    assert _fast_route_agrees(path)


def test_wigner_n1024_takes_the_fast_route_with_the_same_bits(tmp_path):
    grid = make_grid(1024, -16.0, 16.0)
    psi = superpose(1.0, coherent_state(grid, -2.0, 0.0), 1.0, coherent_state(grid, 2.0, 0.5))
    dist = wigner(psi)
    path = tmp_path / "wigner.json"
    plio.save_distribution(dist, path, fmt="json")
    assert _fast_route_agrees(path)
    back = plio.load_distribution(path)
    assert np.array_equal(_bits(back.values), _bits(dist.values))
    assert _outcome(plio.load_distribution, path) == _outcome(oracles.load_distribution_json_reference,
                                                             path)


@pytest.mark.parametrize("spaces", [b", ", b",  "], ids=["writer-layout", "two-spaces"])
def test_reload_peak_memory(tmp_path, spaces, written_n1024):
    # json.loads held the text and a million Python floats: 56.5 MiB at n = 1024
    path = tmp_path / "w.json"
    # each cell's separator widened, each row's '], [' kept
    text = (written_n1024[1] / "w.json").read_bytes().replace(b", ", spaces)
    path.write_bytes(text.replace(b"]" + spaces + b"[", b"], ["))
    assert traced_peak(lambda: plio.load_distribution(path)) < 20 * 2**20


def test_csv_reload_peak_memory(written_n1024):
    # one loadtxt of the whole table, then unique/repeat/tile: 34 MiB at n = 1024
    path = written_n1024[1] / "q.csv"
    assert traced_peak(lambda: plio.load_distribution(path)) < 20 * 2**20


def test_n1024_reloads_have_the_written_bits(written_n1024):
    """Both layouts of an n = 1024 table reload with the values that were
    written, and the CSV layout with its axes too (JSON keeps x_min and dx)."""
    dist, out = written_n1024
    json_back, csv_back = (plio.load_distribution(out / name) for name in ("w.json", "q.csv"))
    for a, b in ((json_back.values, dist.values), (csv_back.values, dist.values),
                 (csv_back.x, dist.x), (csv_back.p, dist.p)):
        assert a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
           1.7976931348623157e308, -1.7976931348623157e308, 2.0**63, -(2.0**63), 2.0**63 - 1024.0,
           9007199254740993.0, 1e16, 1e22, 1e23, 0.1, 1e-05, 123456.789, -0.0001]


def test_random_bit_patterns_round_trip(tmp_path):
    bits = np.random.default_rng(12).integers(0, 2**64, size=(24, 48), dtype=np.uint64)
    table = bits.view(np.float64).copy()
    table[~np.isfinite(table)] = 1.5
    table.flat[: len(SPECIAL)] = SPECIAL
    path = _write_table(tmp_path / "r.json", table)
    assert _fast_route_agrees(path)
    assert np.array_equal(_bits(plio.load_distribution(path).values), _bits(table))


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (1, 3000), (7, 1), (3000, 1), (3, 5)])
def test_single_row_and_single_column_tables(tmp_path, shape):
    rng = np.random.default_rng(4)
    table = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    table.flat[0] = -0.0
    path = _write_table(tmp_path / "t.json", table)
    assert _fast_route_agrees(path)
    assert np.array_equal(_bits(plio.load_distribution(path).values), _bits(table))


def _variants():
    doc = json.loads(TEXT)
    yield "pretty-printed", json.dumps(doc, indent=2)
    yield "keys-reordered", json.dumps(dict(reversed(list(doc.items()))))
    yield "trailing-comma", TEXT.replace("3.0]", "3.0,]")
    for token in ("1.", ".5", "+1", "01", "nan", "inf"):
        yield f"token {token}", TEXT.replace("3.0", token)


@pytest.mark.parametrize("name, text", list(_variants()), ids=[name for name, _ in _variants()])
def test_documents_read_as_before(tmp_path, name, text):
    """The same grid as the json.loads reader before, or the same exception
    type and message; a document that is not JSON is a ValueError naming the
    file, with the message of json.loads."""
    path = tmp_path / "d.json"
    path.write_text(text)
    _fast_route_agrees(path)
    want = _outcome(oracles.load_distribution_json_reference, path)
    if want[1] and want[1][0] is json.JSONDecodeError:
        want = None, (ValueError, f"{path}: {want[1][1]}")
    assert _outcome(plio.load_distribution, path) == want


def test_misnamed_csv_reads_as_csv(tmp_path, monkeypatch):
    """A distribution CSV under another name reads as CSV at its ``x,``, never
    reaching the JSON row route, and as the same file named ``*.csv``."""
    dist = PhaseSpaceGrid(x=np.array([0.0, 1.0]), p=np.array([0.0, 0.5, 1.0]),
                          kind=DistributionKind.HISTOGRAM, values=np.arange(6.0).reshape(2, 3))
    plio.save_distribution(dist, tmp_path / "d.csv")
    path = tmp_path / "d.json"
    path.write_bytes((tmp_path / "d.csv").read_bytes())

    def json_route(path):
        raise AssertionError(f"{path} reached the JSON row route")

    with monkeypatch.context() as m:
        m.setattr(plio, "_distribution_doc", json_route)
        assert _outcome(plio.load_distribution, path) == _outcome(plio.load_distribution,
                                                                 tmp_path / "d.csv")


@pytest.mark.parametrize("name, data, message", [
    ("header.json", TEXT.encode().replace(b"wigner", b"wig\xffner"), "'utf-8' codec can't decode"),
    ("table.json", TEXT.encode().replace(b"2.5", b"2.5\xff"), "'utf-8' codec can't decode"),
    ("cut.json", b'{"n": 2, "values": [[0.5, 1.0], [2.0',
     "Expecting ',' delimiter: line 1 column 37 (char 36)"),
    ("header.csv", b"x,p,v\xffalue\n0,0,1\n", "malformed CSV: 'utf-8' codec can't decode"),
    ("rows.csv", b"x,p,value\n0,0,1\n0,1,\xff2\n", "malformed CSV: 'utf-8' codec can't decode"),
])
def test_decode_errors_name_the_file(tmp_path, name, data, message):
    """Bytes that are not UTF-8, and a document cut inside its table, are a
    ValueError whose message starts with the path."""
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        plio.load_distribution(path)
    assert type(info.value) is ValueError and str(info.value).startswith(f"{path}: {message}")


# Cells, whitespace and row separators that JSON reads or refuses, and
# documents where the bytes '"values": [[' are not the top-level table.
EDGES = {
    "integer": TEXT.replace("3.0", "3"),
    "negative-zero-integer": TEXT.replace("3.0", "-0"),
    "huge-integer": TEXT.replace("3.0", "123456789012345678901234567890"),
    "overflow": TEXT.replace("3.0", "1e999"),
    "underflow-negative": TEXT.replace("3.0", "-1e-400"),
    "exponent-only": TEXT.replace("3.0", "3e0"),
    "leading-zero-exponent": TEXT.replace("3.0", "3e+007"),
    "upper-exponent": TEXT.replace("3.0", "3E0"),
    "dot-exponent": TEXT.replace("3.0", "3.e0"),
    "negative-dot": TEXT.replace("3.0", "-.5"),
    "plus-dot": TEXT.replace("3.0", "+.5"),
    "negative-leading-zero": TEXT.replace("3.0", "-03.0"),
    "double-zero": TEXT.replace("3.0", "00"),
    "zero": TEXT.replace("3.0", "0"),
    "hex": TEXT.replace("3.0", "0x10"),
    "infinity": TEXT.replace("3.0", "Infinity"),
    "NaN": TEXT.replace("3.0", "NaN"),
    "empty-cell": TEXT.replace("3.0", ""),
    "blank-cell": TEXT.replace("3.0", " "),
    "two-spaces": TEXT.replace(", 3.0", ",  3.0"),
    "no-space": TEXT.replace(", 3.0", ",3.0"),
    "space-before-comma": TEXT.replace("-1.25,", "-1.25 ,"),
    "tab-before-comma": TEXT.replace("-1.25,", "-1.25\t,"),
    "vertical-tab-before-comma": TEXT.replace("-1.25,", "-1.25\v,"),
    "nul-in-cell": TEXT.replace("2.5", "2.5\x007"),
    "nul-after-cell": TEXT.replace("2.5", "2.5\x00"),
    "newline-between-rows": TEXT.replace("], [", "],\n["),
    "space-inside-row": TEXT.replace("[0.5", "[ 0.5"),
    "first-cell-plus": TEXT.replace("[[0.5", "[[+0.5"),
    "first-cell-dot": TEXT.replace("[[0.5", "[[.5"),
    "last-cell-dot": TEXT.replace("-0.0]]", "-0.]]"),
    "last-cell-space": TEXT.replace("-0.0]]", "-0.0 ]]"),
    "row-end-dot": TEXT.replace("3.0]", "3.]"),
    "row-start-zero": TEXT.replace("[1e-05", "[01e-05"),
    "row-separator-without-space": TEXT.replace("], [", "],["),
    "empty-row": TEXT.replace("[1e-05, 2.5, -0.0]", "[]"),
    "nested-row": TEXT.replace("[1e-05, 2.5, -0.0]", "[[1e-05, 2.5, -0.0]]"),
    "ragged": TEXT.replace(", -0.0]", "]"),
    "string-cell": TEXT.replace("3.0", '"3.0"'),
    "word-cell": TEXT.replace("3.0", '"a"'),
    "null-cell": TEXT.replace("3.0", "null"),
    "true-cell": TEXT.replace("-1.25", "true"),
    "false-cell": TEXT.replace("-0.0", "false"),
    "n-disagrees": TEXT.replace('"n": 2', '"n": 3'),
    "n-terabytes": TEXT.replace('"n": 2', '"n": 1099511627776'),
    "n-beyond-int64": TEXT.replace('"n": 2', f'"n": {10**30}'),
    "repeated-values": TEXT.replace('"x_min"', '"values": null, "x_min"'),
    "repeated-values-after": TEXT.replace('"dp"', '"values": [[9.5, 9.5, 9.5]], "dp"'),
    "nested-values": TEXT.replace('"delta": null', '"delta": null, "meta": {"values": [[9.5]]}'),
    "escaped-key": TEXT.replace('"dp"', '"x\\"values": [[9.5]], "dp"'),
    "values-in-string": TEXT.replace('"wigner"', '"wigner\\"values\\": [[9.5]]"'),
    "escaped-values-key": TEXT.replace('"values"', '"\\u0076alues"'),
    "byte-order-mark": "﻿" + TEXT,
    "non-ascii-header": TEXT.replace('"x_min"', '"é": 1, "x_min"'),
    "truncated": TEXT[:-3],
    "cut-in-row": TEXT[: TEXT.index(", 2.5")],
    "cut-in-table": TEXT[: TEXT.index("]]")],
    "trailing-data": TEXT + "[]",
    "array-document": "[" + TEXT.strip() + "]",
    "n-float": TEXT.replace('"n": 2', '"n": 2.5'),
    "kind-unknown": TEXT.replace('"wigner"', '"foo"'),
}


@pytest.mark.parametrize("name", EDGES)
def test_edge_documents_read_as_json_loads_reads_them(tmp_path, name, monkeypatch):
    """The row route declines any document that it would read differently,
    so load_distribution gives the outcome of the json.loads route: the same
    grid, or the same exception and message."""
    path = tmp_path / "d.json"
    path.write_bytes(EDGES[name].encode())
    _fast_route_agrees(path)
    got = _outcome(plio.load_distribution, path)
    monkeypatch.setattr(plio, "_distribution_doc", lambda path: None)
    assert got == _outcome(plio.load_distribution, path)


@pytest.mark.parametrize("name, message", [
    ("ragged", "values must be rows of numbers of one length"),
    ("word-cell", "values must be rows of numbers of one length"),
    ("string-cell", "values must be rows of numbers of one length"),
    ("null-cell", "values must be rows of numbers of one length"),
    ("n-disagrees", r"values shape \(2, 3\) does not match n = 3 rows of 3"),
    ("n-terabytes", r"values shape \(2, 3\) does not match n = 1099511627776 rows of 3"),
    ("n-beyond-int64", rf"values shape \(2, 3\) does not match n = {10**30} rows of 3"),
])
def test_bad_tables_name_the_file(tmp_path, name, message):
    path = tmp_path / "bad.json"
    path.write_text(EDGES[name])
    with pytest.raises(ValueError, match=message) as info:
        plio.load_distribution(path)
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("table", ["[]", "[1.0, 2.0]", "{}", "null"])
def test_values_not_a_table_names_the_file(tmp_path, table):
    """A ``values`` entry that is not a 2-D numeric table is one line that
    names the file and the field, not a header fault."""
    path = tmp_path / "bad.json"
    path.write_text(TEXT.replace("[[0.5, -1.25, 3.0], [1e-05, 2.5, -0.0]]", table))
    with pytest.raises(ValueError) as info:
        plio.load_distribution(path)
    message = str(info.value)
    assert message.startswith(f"{path}: values must be rows of numbers of one length: ")
    assert "\n" not in message


@pytest.mark.parametrize("name, message", [
    ("n-float", "n must be an integer, got 2.5"),
    ("kind-unknown", "'foo' is not a valid DistributionKind"),
])
def test_bad_headers_name_the_file(tmp_path, name, message):
    path = tmp_path / "bad.json"
    path.write_text(EDGES[name])
    with pytest.raises(ValueError, match=message) as info:
        plio.load_distribution(path)
    assert str(info.value).startswith(f"{path}: ") and "\n" not in str(info.value)


@pytest.mark.parametrize("block", [1, 2, 3, 5, 7, 11])
def test_rows_across_read_boundaries(tmp_path, monkeypatch, block):
    """Reads of one byte put a boundary at every byte, so every row separator
    and the closing ']]' fall across one; each table still takes the row route
    with the bits of json.loads and of the reader that held the whole file."""
    monkeypatch.setattr(plio, "_READ_BYTES", block)
    rng = np.random.default_rng(block)
    for shape in ((2, 3), (4, 1), (1, 5), (5, 2)):
        path = _write_table(tmp_path / "t.json", rng.normal(size=shape))
        assert _fast_route_agrees(path)
        doc, before = plio._distribution_doc(path), oracles.distribution_doc_reference(path)
        assert np.array_equal(_bits(doc.pop("values")), _bits(before.pop("values")))
        assert doc == before


@pytest.mark.parametrize("block", [1, 2, 3, 4])
def test_edge_documents_in_small_reads(tmp_path, monkeypatch, block):
    """Every edge document, read a few bytes at a time, has the outcome of the
    json.loads route."""
    monkeypatch.setattr(plio, "_READ_BYTES", block)
    path = tmp_path / "d.json"
    for name, text in EDGES.items():
        path.write_bytes(text.encode())
        _fast_route_agrees(path)
        got = _outcome(plio.load_distribution, path)
        with monkeypatch.context() as m:
            m.setattr(plio, "_distribution_doc", lambda path: None)
            assert got == _outcome(plio.load_distribution, path), name


def test_json_numbers_take_the_fast_route(tmp_path):
    for name in ("integer", "overflow", "underflow-negative", "exponent-only",
                 "leading-zero-exponent", "zero", "negative-zero-integer", "upper-exponent",
                 "infinity", "NaN", "two-spaces", "no-space", "space-before-comma",
                 "tab-before-comma", "space-inside-row", "last-cell-space"):
        path = tmp_path / f"{name}.json"
        path.write_text(EDGES[name])
        assert _fast_route_agrees(path), name


def test_edited_documents_keep_the_contract(tmp_path):
    """Seeded random edits of a document, anywhere in it: wherever the row
    route takes one, it decodes as json.loads decodes it."""
    rng = random.Random(7)
    pieces = [*"0123456789.eE+-, []\t\n\v\0\"{}:nulNaIfty", ", ", "], [", "-0", "0.", ".e", "00",
              "", "],[", "] ,[", "]\n, [", "], [[", "]], ["]
    path = tmp_path / "d.json"
    taken = 0
    for _ in range(600):
        text = TEXT
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text))
            text = text[:at] + rng.choice(pieces) + text[at + rng.randint(0, 2) :]
        path.write_text(text)
        taken += _fast_route_agrees(path)
    assert taken > 30


@pytest.mark.parametrize("route", ["rows", "json-loads"])
@pytest.mark.parametrize("table, n", [("[[]]", 1), ("[[], []]", 2)], ids=["one-row", "two-rows"])
def test_a_table_without_columns_names_the_file(tmp_path, monkeypatch, route, table, n):
    """Rows that hold no number are refused on both routes, as a CSV with only
    its header is, not loaded as an n x 0 grid."""
    path = tmp_path / "bad.json"
    path.write_text(TEXT.replace("[[0.5, -1.25, 3.0], [1e-05, 2.5, -0.0]]", table)
                    .replace('"n": 2', f'"n": {n}').replace('"wigner"', '"husimi"'))
    if route == "json-loads":
        monkeypatch.setattr(plio, "_distribution_doc", lambda path: None)
    with pytest.raises(ValueError) as info:
        plio.load_distribution(path)
    assert str(info.value) == (f"{path}: values must be rows of numbers of one length: "
                               f"got {n} row(s) of no number")


@pytest.mark.parametrize("route", ["rows", "json-loads"])
@pytest.mark.parametrize("layout", ["writer", "pretty-printed"])
@pytest.mark.parametrize("cells", [("true",), ("false",), ("true", "false")],
                         ids=["true", "false", "both"])
def test_a_boolean_among_numbers_names_the_file(tmp_path, monkeypatch, route, layout, cells):
    """true or false in a table of numbers is refused on both routes, as a
    table of booleans alone is, not loaded as 1.0 or 0.0."""
    text = TEXT
    for cell, number in zip(cells, ("-1.25", "-0.0")):
        text = text.replace(number, cell)
    if layout == "pretty-printed":
        text = json.dumps(json.loads(text), indent=2)
    path = tmp_path / "bad.json"
    path.write_text(text)
    if route == "json-loads":
        monkeypatch.setattr(plio, "_distribution_doc", lambda path: None)
    with pytest.raises(ValueError) as info:
        plio.load_distribution(path)
    assert str(info.value) == (f"{path}: values must be rows of numbers of one length: "
                               "got true or false among the numbers")
