"""Code lines of each ``difint`` module and their total.

Run as ``python tools/code_lines.py [DIRECTORY]``; the directory defaults
to ``src/difint`` next to this script.  A code line is a line that some
statement or expression of the module's syntax tree spans, unless it is
blank, holds only a comment, or belongs to a module, class or function
docstring.  Each module prints as ``<lines> <file name>``, then the total
as ``<lines> total``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "difint"


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of ``source``, a module's text."""
    tree = ast.parse(source)
    spanned = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.stmt, ast.expr)):
            spanned.update(range(node.lineno, node.end_lineno + 1))
    empty = {number for number, line in enumerate(source.splitlines(), start=1)
             if not line.strip() or line.lstrip().startswith("#")}
    return len(spanned - empty - _docstring_lines(tree))


def main(argv: list[str]) -> None:
    directory = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(directory.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path.name}")
    print(f"{total} total")


if __name__ == "__main__":
    main(sys.argv[1:])
