"""``tools/code_lines.py``: the code-line count simplicity changes report.

Blank lines, comment-only lines and docstrings (module, class, function)
are not code; every other line holding a token is, once, however many
tokens or continuation lines a statement spans.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

MODULE = '''"""Module docstring
over two lines."""

import math  # a trailing comment keeps the line


# a comment-only line
class Shape:
    """Class docstring."""

    sides = 0


def area(r):
    """Function docstring,
    three lines
    long."""
    label = """a multi-line string
that is not a docstring"""
    return (math.pi
            * r ** 2)


async def later():
    "single-quoted docstring"
    x = 1
    "a bare string after the first statement is code"
    return x
'''


def test_counts_code_lines_of_a_synthetic_module():
    # import, class, sides, def area, label (2 lines), return (2 lines),
    # async def, x = 1, the bare string, return x
    assert code_lines.code_lines(MODULE) == 12


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "    12 a.py", "     1 b.py", "    13 total"]
