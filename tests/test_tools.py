"""The repository tools under ``tools/``."""

import hashlib
import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# What `tools/artifact_digests.py OUT` prints: every run's exit code and every
# artifact's SHA-256.  A change meant to alter artifact bytes rewrites this file.
ARTIFACT_DIGESTS = Path(__file__).resolve().parent / "artifact_digests.txt"

# A small module, and the kind of each of its lines in KINDS: c code, d docstring,
# b comment or blank.
FIXTURE = '''"""Module docstring,
over two lines."""
# a comment line
import math  # a code line with a comment


class Box:
    """Class docstring."""

    size = 1  # code

    def area(self):
        """Method docstring."""
        text = """a string over
two lines is code"""
        return math.pi * len(text)
'''
KINDS = "ddbcbbcdbcbcdccc"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_counts_a_fixture_module(tmp_path, capsys):
    src_lines = _tool("src_lines")
    assert len(KINDS) == len(FIXTURE.splitlines())
    counts = (KINDS.count("c"), KINDS.count("d"), KINDS.count("b"))
    assert src_lines.count(FIXTURE) == counts == (7, 4, 5)
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert src_lines.main([str(path), str(path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[1] == ["fixture.py", "7", "4", "5", "16"]
    assert rows[-1] == ["total", "14", "8", "10", "32"]


def test_artifact_digests_lists_each_run_and_file(tmp_path):
    tool = _tool("artifact_digests")
    # three cheap runs of the set, and a report over a directory with no sources, which fails
    wanted = {("state",), ("dist", "--which", "husimi"), ("report",)}
    runs = [(sub, args) for sub, args in tool.RUNS
            if sub == "basic-json" and args[:args.index("--format")] in wanted]
    lines = tool.run_all(tmp_path, runs + [("empty", ("report",))])
    assert lines == [
        "0 state --format json --out basic-json",
        "0 dist --which husimi --format json --out basic-json",
        "0 report --format json --out basic-json",
        "1 report --out empty",
    ]
    digests = [line.split(" ") for line in tool.digests(tmp_path)]
    assert [path for _, path in digests] == [
        "basic-json/husimi.json", "basic-json/husimi.summary.json", "basic-json/report.json",
        "basic-json/report.txt", "basic-json/state.json", "basic-json/state.meta.json",
        "empty/report.json", "empty/report.txt",
    ]
    for sha, path in digests:
        assert sha == hashlib.sha256((tmp_path / path).read_bytes()).hexdigest()
    assert tool.main([str(tmp_path)]) == 2  # a non-empty OUT is refused


def test_cli_artifacts_keep_their_bytes(tmp_path):
    """The whole 24-run CLI set: each exit code and each file's bytes as recorded."""
    tool = _tool("artifact_digests")
    lines = tool.run_all(tmp_path) + tool.digests(tmp_path)
    assert lines == ARTIFACT_DIGESTS.read_text().splitlines()
