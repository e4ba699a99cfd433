"""Delete each statement of src/icsp in turn and report the deletions that
no test notices.

    python3 tools/mutants.py

The tree is copied to a scratch directory, and everything below happens
in the copy, never in place. pytest first runs tests/ in this process,
each test under the line hook of tools/line_coverage.py, to learn which
lines of src/icsp each test reaches. Then each statement in turn, simple
or compound (a whole loop, a whole function), docstrings and `pass`
excepted, is replaced with `pass`: a mutant. pytest runs in a child
process, with -x, over the tests that reach the statement's first line,
in suite order (some tests read what earlier ones in their module left),
and stops at the first failure. Every test runs when no test reaches the
line, or when the statement lies outside any function: it runs at
import, which no single test owns, and the CLI tests run `python -m icsp`
in a subprocess the hook does not see. A mutant is killed when the run
fails, timed out when it outlives LIMIT seconds (an infinite loop), and
survives when every test passes.

tools/mutants_accepted.txt lists the survivors that stay, each keyed by
file, enclosing function and the statement's first line, so an edit
elsewhere does not invalidate it, with the reason on the next, indented
line:

    engine.py: _first_support: return None
        Time only: the function returns None by falling off its end.

Every other survivor is printed as `file:line: function: statement`, and
the exit code is then 1. Accepted entries that match no survivor are
printed as stale. The last line counts the mutants. Stdlib plus pytest.
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from code_lines import docstring_lines
from line_coverage import tracing

ROOT = Path(__file__).resolve().parent.parent
LIMIT = 30.0  # seconds per mutant; the whole suite takes about 15 in a child

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                  ".bench_out", ".benchmarks")


def statements(source: str) -> list:
    """(node, enclosing function, inside a function) for every statement
    of a module but docstrings and `pass`, in source order. The enclosing
    function is the dotted name of the functions and classes around the
    statement, "<module>" at the top level."""
    tree = ast.parse(source)
    docstrings = docstring_lines(tree)
    found = []

    def visit(node, scope, in_function):
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for child in getattr(node, field, ()):
                if isinstance(child, ast.stmt):
                    if child.lineno not in docstrings and not isinstance(child, ast.Pass):
                        found.append((child, scope, in_function))
                if isinstance(child, _SCOPES):
                    name = child.name if scope == "<module>" else f"{scope}.{child.name}"
                    visit(child, name, not isinstance(child, ast.ClassDef) or in_function)
                else:
                    visit(child, scope, in_function)

    visit(tree, "<module>", False)
    return found


def mutate(source: str, node: ast.stmt) -> str:
    """The source with the statement, decorators included, replaced by
    `pass`."""
    lines = source.splitlines(keepends=True)
    decorators = getattr(node, "decorator_list", None)
    start = decorators[0].lineno if decorators else node.lineno  # @ is at node's column
    head = lines[start - 1].encode()[:node.col_offset].decode()
    tail = lines[node.end_lineno - 1].encode()[node.end_col_offset:].decode()
    text = "".join(lines[:start - 1]) + head + "pass" + tail + "".join(lines[node.end_lineno:])
    compile(text, "<mutant>", "exec")
    return text


def read_accepted(path: Path) -> dict:
    """{(file, function, statement): reason} from an accepted list."""
    accepted, key = {}, None
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        if line[0].isspace():
            if key is None:
                raise ValueError(f"{path}: a reason with no entry: {line.strip()!r}")
            accepted[key], key = line.strip(), None
            continue
        if key is not None:
            raise ValueError(f"{path}: no reason for {': '.join(key)}")
        file, function, text = line.split(": ", 2)
        key = (file, function, text.strip())
    if key is not None:
        raise ValueError(f"{path}: no reason for {': '.join(key)}")
    return accepted


class _PerTest:
    """A pytest plugin: the lines of the package each test reaches, by test
    in the order they ran."""

    def __init__(self, package: Path):
        self.package = package
        self.lines: dict = {}

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_protocol(self, item):
        with tracing(self.package) as executed:
            result = yield
        self.lines[item.nodeid] = executed
        return result


def _run(copy: Path, package: Path, nodeids: list, limit: float) -> str:
    """Run the tests in a child process: "killed", "timed out" or
    "survived"."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               f"--rootdir={copy}", *nodeids]
    env = dict(os.environ, PYTHONPATH=str(package.parent), PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.Popen(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = child.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)  # with any process a test started
        child.wait()
        return "timed out"
    return "survived" if code == 0 else "killed"


def sweep(root: Path, package: str, tests: str, accepted: Path,
          limit: float = LIMIT, out=None) -> int:
    """Run every mutant of the package directory under root (package and
    tests are paths relative to root) and print the survivors that the
    accepted list does not hold. Returns the number printed."""
    out = out if out is not None else sys.stdout
    accepted = read_accepted(accepted)
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(root, copy, ignore=_IGNORED)
        package = copy / package
        plugin = _PerTest(package)
        sys.path.insert(0, str(package.parent))
        saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
        try:
            code = pytest.main(["-q", "-p", "no:cacheprovider", f"--rootdir={copy}",
                                str(copy / tests)], plugins=[plugin])
        finally:
            sys.dont_write_bytecode = saved
            sys.path.remove(str(package.parent))
        if code != 0:
            raise RuntimeError(f"the tests fail before any mutation (pytest exit {code})")
        suite = list(plugin.lines)
        if _run(copy, package, suite, limit) != "survived":
            raise RuntimeError(f"the tests do not pass in a child within {limit} s")
        counts = dict.fromkeys(("killed", "timed out", "accepted", "survived"), 0)
        matched, printed = set(), 0
        for path in sorted(package.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            name = str(path.relative_to(package))
            text = source.splitlines()
            for node, function, in_function in statements(source):
                reached = [t for t in suite if node.lineno in plugin.lines[t].get(str(path), ())]
                path.write_text(mutate(source, node), encoding="utf-8")
                try:
                    outcome = _run(copy, package, reached if in_function and reached else suite,
                                   limit)
                finally:
                    path.write_text(source, encoding="utf-8")
                key = (name, function, text[node.lineno - 1].strip())
                if outcome == "survived" and key in accepted:
                    outcome = "accepted"
                    matched.add(key)
                elif outcome == "survived":
                    out.write(f"{name}:{node.lineno}: {function}: {key[2]}\n")
                    out.flush()
                    printed += 1
                counts[outcome] += 1
    for key in sorted(accepted.keys() - matched):
        out.write(f"stale accepted entry: {': '.join(key)}\n")
    out.write(f"{sum(counts.values())} mutants: "
              + ", ".join(f"{n} {outcome}" for outcome, n in counts.items()) + "\n")
    return printed


def main() -> int:
    start = time.perf_counter()
    survivors = sweep(ROOT, "src/icsp", "tests", ROOT / "tools" / "mutants_accepted.txt")
    print(f"{time.perf_counter() - start:.0f} s in all")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
