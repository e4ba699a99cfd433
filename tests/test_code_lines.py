"""The code-line count of tools/code_lines.py, on a small source string."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment


# a comment on its own line
def f(a,
      b):
    """One line."""
    text = """not a docstring,
    but a value"""
    return (a +
            b)
'''


def test_counts_code_lines_without_docstrings_comments_or_blank_lines():
    # import; def over 2 lines; the assigned string over 2 lines; the
    # return over 2 lines.
    assert code_lines.code_lines(SOURCE) == 7


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["7", "a.py"], ["1", "pkg/b.py"],
                                                ["8", "total"]]
