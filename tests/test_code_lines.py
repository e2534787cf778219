"""Tests for tools/code_lines.py, the code-line count of the package."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


# a comment line
class C:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        text = """not a docstring
# so this line counts"""
        return (x +
                len(text))
'''


def test_counts_code_but_not_blanks_comments_or_docstrings():
    # import, class, def, the two lines of the string and the two of the return
    assert code_lines.code_lines(SOURCE) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys, monkeypatch):
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\n# note\nz = 3\n')
    monkeypatch.setattr(code_lines, "PACKAGE", tmp_path)
    assert code_lines.main() == 0
    assert capsys.readouterr().out.split("\n") == [
        f"{'a.py':<16} {2:>6}",
        f"{'b.py':<16} {1:>6}",
        f"{'total':<16} {3:>6}",
        "",
    ]
