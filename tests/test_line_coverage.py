"""The report of tools/line_coverage.py, on a tiny module traced in-process."""

import importlib.util
import io
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import line_coverage  # noqa: E402  (from tools/)

SOURCE = '''"""A module docstring."""


def sign(x):
    """One line."""
    if x < 0:
        return -1
    total = (x +
             0)
    return 1 if total else 0


class Unused:
    def method(self):
        pass
'''


def test_statement_lines_leave_out_docstrings():
    assert line_coverage.statement_lines(SOURCE) == {4, 6, 7, 8, 10, 13, 14, 15}


def test_reports_the_statements_a_run_never_reached(tmp_path):
    (tmp_path / "pkg").mkdir()
    path = tmp_path / "pkg" / "mod.py"
    path.write_text(SOURCE, encoding="utf-8")
    (tmp_path / "pkg" / "empty.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "pkg" / "__main__.py").write_text("y = 2\n", encoding="utf-8")
    spec = importlib.util.spec_from_file_location("mod", path)
    module = importlib.util.module_from_spec(spec)

    def outer(_frame, _event, _arg):
        return None

    # The suite may itself run under the tool: its tracer must come back.
    saved = sys.gettrace()
    sys.settrace(outer)
    try:
        with line_coverage.tracing(tmp_path) as executed:
            spec.loader.exec_module(module)
            result = module.sign(2)
        restored = sys.gettrace()
    finally:
        sys.settrace(saved)
    assert restored is outer
    assert result == 1
    out = io.StringIO()
    # __main__.py's line is listed but not counted: only python -m runs it.
    assert line_coverage.report(tmp_path, executed, out) == 3
    assert out.getvalue() == ("pkg/__main__.py\n"
                              "      1 y = 2\n"
                              "pkg/empty.py\n"
                              "      1 x = 1\n"
                              "pkg/mod.py\n"
                              "      7 return -1\n"
                              "     15 pass\n"
                              "4 statement lines never ran\n")
