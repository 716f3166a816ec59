"""Run a fixed set of phaselab CLI runs, then print their exit codes and file digests.

Each run goes through ``phaselab.cli.main`` with its ``--out`` directory under
OUT.  The set covers every subcommand in json and csv (``dist`` with each
``--which`` and with ``husimi --delta 2``), an n = 512 ``cat 2 1`` state on
[-15, 17.3) with its pointer, sample, ``--s 0.5`` characteristic and report
runs, and a characteristic run that fails (``--s 1 --grid-n 1024``) with its
report.  Run from the repository root with an OUT that is absent or empty:

    PYTHONPATH=src python tools/artifact_digests.py OUT

It prints one ``exit-code argv`` line per run, in run order, with ``--out``
relative to OUT, then one ``sha256 path`` line per file under OUT, sorted by
path.  Two trees print the same lines iff every run kept its exit code and
every artifact its bytes, so comparing two commits is a ``diff`` of two
outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import sys
from pathlib import Path

from phaselab import cli

CAT = ("--state", "cat 2 1", "--grid-n", "512", "--x-min", "-15", "--x-max", "17.3")


def _basic(fmt: str) -> list:
    """Every subcommand on the default state, writing its data files as `fmt`."""
    runs = [
        ("state",),
        ("dist", "--which", "wigner"),
        ("dist", "--which", "husimi"),
        ("dist", "--which", "characteristic"),
        ("sample", "--shots", "20000"),
        ("pointer", "--g", "0.5"),
        ("report",),
    ]
    return [(f"basic-{fmt}", (*run, "--format", fmt)) for run in runs] + [
        (f"husimi-delta2-{fmt}", ("dist", "--which", "husimi", "--delta", "2", "--format", fmt)),
    ]


# (output directory under OUT, arguments) of every run, in run order.
RUNS = tuple(_basic("json") + _basic("csv") + [
    ("cat512", ("state", *CAT)),
    ("cat512", ("pointer", *CAT, "--g", "0.08", "--delta-device", "4")),
    ("cat512", ("sample", *CAT, "--shots", "20000", "--bins", "16", "16")),
    ("cat512", ("dist", "--which", "characteristic", *CAT, "--s", "0.5")),
    ("cat512", ("report",)),
    ("cat512-g1", ("pointer", *CAT, "--g", "1")),
    ("failing", ("dist", "--which", "characteristic", "--s", "1", "--grid-n", "1024")),
    ("failing", ("report",)),
])


def run_all(out: Path, runs=RUNS) -> list:
    """Run each of `runs` into its directory under `out`; one ``exit-code argv`` line per run."""
    lines = []
    for sub, args in runs:
        with contextlib.redirect_stdout(io.StringIO()):  # `report` prints its text
            code = cli.main([*args, "--out", str(out / sub)])
        lines.append(f"{code} {shlex.join([*args, '--out', sub])}")
    return lines


def digests(out: Path) -> list:
    """One ``sha256 path`` line per file under `out`, sorted by the path relative to `out`."""
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()} {p.relative_to(out).as_posix()}"
            for p in files]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python tools/artifact_digests.py OUT", file=sys.stderr)
        return 2
    out = Path(args[0])
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty; its files would join the digests", file=sys.stderr)
        return 2
    print("\n".join(run_all(out) + digests(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
