"""Self-test of ``tools/code_lines.py`` on sources counted by hand."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# COUNTS holds each line's count, counted by hand: a docstring, comment or
# blank line counts 0, a line some other token touches counts 1
SOURCE = '''\
"""Module docstring,
over two lines."""

import os  # a trailing comment

# a comment line


class A:
    """Class docstring."""

    x = """not a docstring,
but a string over two lines"""

    def f(self):
        """Function docstring."""
        return (1 +
                2)


async def g():
    "one-line docstring"
    "a second string is code"
    pass


def h(): "a docstring on the def line"
'''
COUNTS = [0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1,
          0, 0, 1]


def test_counts_the_synthetic_source_by_hand():
    assert len(COUNTS) == len(SOURCE.splitlines())
    assert code_lines.code_lines(SOURCE) == sum(COUNTS) == 11


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# comment\ny = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "    11  a.py", "     2  pkg/b.py", "    13  total"]
    assert code_lines.main([]) == 2
