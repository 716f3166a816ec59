"""The repository tools under ``tools/``."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

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


def _src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", TOOLS / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_counts_a_fixture_module(tmp_path, capsys):
    src_lines = _src_lines()
    assert len(KINDS) == len(FIXTURE.splitlines())
    counts = (KINDS.count("c"), KINDS.count("d"), KINDS.count("b"))
    assert src_lines.count(FIXTURE) == counts == (7, 4, 5)
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert src_lines.main([str(path), str(path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[1] == ["fixture.py", "7", "4", "5", "16"]
    assert rows[-1] == ["total", "14", "8", "10", "32"]
