"""List the statement lines of src/icsp that the test suite never runs.

    python3 tools/line_coverage.py

pytest runs the tests/ directory in this process under a sys.settrace
hook. The hook traces only frames whose code lives in a file under
src/icsp, so the rest of the suite, and every subprocess a test starts,
runs untraced. Then, module by module in path order, each statement
that never ran is printed as its first line, `<line number> <text>`, and
at the end the total. Docstrings are not statements here. The exit code
is pytest's. Stdlib plus pytest.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from code_lines import docstring_lines

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "icsp"


def statement_lines(source: str) -> set:
    """The first line of every statement in a module's source text, the
    docstrings left out."""
    tree = ast.parse(source)
    lines = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)}
    return lines - docstring_lines(tree)


@contextmanager
def tracing(directory: Path):
    """Record, while the block runs, the lines it executes in files under
    directory: yields {file name: set of line numbers}, filled as they
    run."""
    prefix = os.path.join(Path(directory).resolve(), "")
    executed: defaultdict = defaultdict(set)

    def trace_line(frame, event, _arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_line

    def trace_call(frame, _event, _arg):
        if frame.f_code.co_filename.startswith(prefix):
            return trace_line
        return None

    previous = sys.gettrace()  # a traced run may call this again
    sys.settrace(trace_call)
    try:
        yield executed
    finally:
        sys.settrace(previous)


def report(directory: Path, executed: dict, out=None) -> int:
    """Print each module's statement lines that never ran, then the total,
    and return the total."""
    out = out if out is not None else sys.stdout
    directory = Path(directory).resolve()
    total = 0
    for path in sorted(directory.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        missing = sorted(statement_lines(source) - executed.get(str(path), set()))
        if missing:
            text = source.splitlines()
            out.write(f"{path.relative_to(directory)}\n")
            out.writelines(f"  {n:5d} {text[n - 1].strip()}\n" for n in missing)
        total += len(missing)
    out.write(f"{total} statement lines never ran\n")
    return total


def main() -> int:
    import pytest

    sys.path.insert(0, str(SOURCE.parent))
    with tracing(SOURCE) as executed:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    report(SOURCE, executed)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
