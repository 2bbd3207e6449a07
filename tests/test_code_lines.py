"""``tools/code_lines.py`` counts the lines a module's syntax tree spans,
without blank, comment-only or docstring lines."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

SOURCE = '''"""Module docstring
over two lines."""

import math  # a trailing comment keeps its line


def area(radius):
    """Function docstring."""
    # A comment on its own line.
    text = """a string that is
no docstring"""
    return math.pi * (
        radius ** 2)


class Shape:
    """Class docstring."""

    sides = 0
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_but_no_docstring_comment_or_blank_line():
    # import, def, both lines of the string, both of the return, class, sides.
    assert load_tool().code_lines(SOURCE) == 8


def test_package_total_is_printed_last(capsys):
    tool = load_tool()
    tool.main([])
    *modules, total = capsys.readouterr().out.splitlines()
    counts = [int(line.split()[0]) for line in modules]
    assert "design.py" in {line.split()[1] for line in modules}
    assert total == f"{sum(counts)} total"
