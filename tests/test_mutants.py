"""The sweep of tools/mutants.py, on a tiny package and test file."""

import io
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import mutants  # noqa: E402  (from tools/)

SOURCE = '''"""A module docstring."""


def settle(n):
    """Count n down to 1."""
    while n > 1:
        n -= 1
    unused = n
    spare = n
    return n
'''

TEST = '''from tinymutants import settle


def test_settle():
    assert settle(3) == 1
'''

ACCEPTED = '''# The survivors that stay.
__init__.py: settle: spare = n
    Kept on purpose, to check the accepted list.
'''


def test_statements_leave_out_docstrings_and_name_their_function():
    found = [(node.lineno, function, inside)
             for node, function, inside in mutants.statements(SOURCE)]
    assert found == [(4, "<module>", False), (6, "settle", True), (7, "settle", True),
                     (8, "settle", True), (9, "settle", True), (10, "settle", True)]


def test_a_compound_statement_becomes_one_pass():
    node = mutants.statements(SOURCE)[1][0]
    assert mutants.mutate(SOURCE, node).splitlines()[5:] == [
        "    pass", "    unused = n", "    spare = n", "    return n"]


def test_the_sweep_reports_only_the_survivor_not_accepted(tmp_path):
    (tmp_path / "src" / "tinymutants").mkdir(parents=True)
    (tmp_path / "src" / "tinymutants" / "__init__.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_tiny.py").write_text(TEST, encoding="utf-8")
    (tmp_path / "accepted.txt").write_text(ACCEPTED, encoding="utf-8")
    out = io.StringIO()
    # n -= 1 deleted loops forever: the short limit stops it.
    assert mutants.sweep(tmp_path, "src/tinymutants", "tests", tmp_path / "accepted.txt",
                         limit=3.0, out=out) == 1
    assert out.getvalue() == (
        "__init__.py:8: settle: unused = n\n"
        "6 mutants: 3 killed, 1 timed out, 1 accepted, 1 survived\n")
    # the sweep ran in a copy: the tree is as it was
    assert (tmp_path / "src" / "tinymutants" / "__init__.py").read_text(encoding="utf-8") == SOURCE
