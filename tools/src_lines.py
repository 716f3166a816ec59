"""Count each module's lines by kind: code, docstring, and comment or blank.

A docstring line is a line of a module, class or function docstring.  A code
line is any other line that holds part of a token other than a comment; a
string that spans lines makes every one of its lines code.  The rest are
comment-or-blank lines.  Run from the repository root:

    python tools/src_lines.py [FILE ...]

With no FILE it counts ``src/phaselab/*.py``.  It prints one row per module
and a total row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def count(text: str) -> tuple:
    """(code, docstring, comment-or-blank) line counts of one module's source."""
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            doc.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= doc
    total = len(text.splitlines())
    return len(code), len(doc), total - len(code) - len(doc)


def main(argv=None) -> int:
    paths = [Path(p) for p in (sys.argv[1:] if argv is None else argv)]
    paths = paths or sorted(Path("src/phaselab").glob("*.py"))
    print(f"{'module':<20}{'code':>8}{'docstring':>11}{'comment/blank':>15}{'total':>8}")
    sums = [0, 0, 0]
    for path in paths:
        counts = count(path.read_text())
        sums = [a + b for a, b in zip(sums, counts)]
        print(f"{path.name:<20}{counts[0]:>8}{counts[1]:>11}{counts[2]:>15}{sum(counts):>8}")
    print(f"{'total':<20}{sums[0]:>8}{sums[1]:>11}{sums[2]:>15}{sum(sums):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
