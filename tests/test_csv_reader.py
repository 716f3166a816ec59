"""The CSV readers.  Rows are read CHUNK_ROWS lines at a time from one open
handle, and a distribution's whole x rows are checked as they arrive.  The
distribution reader accepts exactly the tables that one ``np.loadtxt`` of the
whole file and its unique/repeat/tile check accepted, with the same bits."""

import random

import numpy as np
import pytest

import oracles
from phaselab import coherent_state, make_grid
from phaselab import io as plio
from phaselab.phasespace import DistributionKind, PhaseSpaceGrid


def _write(path, nx, n_p, seed=0):
    """An nx x n_p table on axes that hold no zero, as the writer lays it out."""
    values = np.random.default_rng(seed).normal(size=(nx, n_p))
    dist = PhaseSpaceGrid(x=-1.125 + 0.25 * np.arange(nx), p=-2.1 + 0.5 * np.arange(n_p),
                          kind=DistributionKind.HUSIMI, values=values)
    plio.save_distribution(dist, path, fmt="csv")
    return path


def _outcome(load, path):
    """The grid's axes and values as bytes, or None where the load refused."""
    try:
        d = load(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ") and "\n" not in str(exc)
        return None
    return d.x.tobytes(), d.p.tobytes(), d.values.shape, d.values.tobytes()


def _as_before(path):
    got = _outcome(plio.load_distribution, path)
    assert got == _outcome(oracles.load_distribution_csv_reference, path)
    return got


@pytest.mark.parametrize("block", [1, 3, 4, 5, 7, 12, 20, 21])
def test_x_rows_across_blocks(tmp_path, monkeypatch, block):
    # 5 x rows of 4: most blocks end inside a row; 20 ends on the last line
    monkeypatch.setattr(plio, "CHUNK_ROWS", block)
    assert _as_before(_write(tmp_path / "d.csv", 5, 4)) is not None


@pytest.mark.parametrize("nx, n_p, block", [(3, 10, 3), (3, 10, 4), (2, 25, 7), (1, 10, 3),
                                            (1, 10, 10)])
def test_first_x_row_longer_than_a_block(tmp_path, monkeypatch, nx, n_p, block):
    monkeypatch.setattr(plio, "CHUNK_ROWS", block)
    assert _as_before(_write(tmp_path / "d.csv", nx, n_p)) is not None


# Edits of line 20 (of 30 data lines, blocks of 7), past the first block.
MALFORMED = {
    "non-numeric": lambda line: line.rsplit(",", 1)[0] + ",abc",
    "short-row": lambda line: line.rsplit(",", 1)[0],
    "long-row": lambda line: line + ",1",
    "x-changes-inside-row": lambda line: "9" + line[line.index(","):],
    "p-off-lattice": lambda line: line.split(",")[0] + ",7.5," + line.split(",")[2],
    "extra-row": lambda line: line + "\n" + line,
    "missing-row": lambda line: "",
}


@pytest.mark.parametrize("edit", MALFORMED)
def test_malformed_row_past_the_first_block(tmp_path, monkeypatch, edit):
    monkeypatch.setattr(plio, "CHUNK_ROWS", 7)
    path = _write(tmp_path / "d.csv", 6, 5)
    lines = path.read_text().splitlines()
    lines[20] = MALFORMED[edit](lines[20])
    path.write_text("\n".join(line for line in lines if line) + "\n")
    assert _as_before(path) is None


def test_blank_and_comment_lines_past_the_first_block(tmp_path, monkeypatch):
    monkeypatch.setattr(plio, "CHUNK_ROWS", 7)
    path = _write(tmp_path / "d.csv", 6, 5)
    lines = path.read_text().splitlines()
    lines[12] += "\n\n# a comment line\n"
    lines[25] += "  # a trailing comment"
    path.write_text("\n".join(lines) + "\n")
    assert _as_before(path) is not None


def test_edited_tables_keep_the_reference_outcome(tmp_path, monkeypatch):
    """Seeded random line edits, read in random block sizes: the block reader
    accepts exactly what the whole-file reader accepted, with its bits."""
    rng = random.Random(11)
    path = tmp_path / "d.csv"
    accepted = 0
    for _ in range(300):
        nx, n_p = rng.randint(1, 5), rng.randint(1, 5)
        lines = _write(path, nx, n_p, rng.randrange(100)).read_text().splitlines()
        for _ in range(rng.randint(0, 2)):
            at = rng.randrange(1, len(lines))
            other = lines[rng.randrange(1, len(lines))]
            lines[at:at + 1] = rng.choice([
                [], [other], [lines[at], lines[at]], [lines[at], other],
                [other.split(",")[0] + "," + ",".join(lines[at].split(",")[1:])],
                [lines[at].split(",")[0] + "," + other.split(",")[1] + ","
                 + lines[at].split(",")[2]],
            ])
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(plio, "CHUNK_ROWS", rng.randint(1, 9))
        accepted += _as_before(path) is not None
    assert 60 < accepted < 290


def test_state_csv_in_blocks(tmp_path, monkeypatch):
    grid = make_grid(64, -8.0, 8.0)
    path = tmp_path / "s.csv"
    plio.save_wavefunction(coherent_state(grid, 0.0, -0.5, 1.0), path, fmt="csv")
    whole = plio.load_wavefunction(path)
    monkeypatch.setattr(plio, "CHUNK_ROWS", 7)
    back = plio.load_wavefunction(path)
    assert back.grid == whole.grid and back.amp.tobytes() == whole.amp.tobytes()
