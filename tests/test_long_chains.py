"""Long support chains and deep search at the default recursion limit,
and the memory label() takes and the variables label() and solve() scan
on a long chain."""

import sys
import tracemalloc

import pytest

from icsp import Engine, RangeSource, resolve_verifier
from icsp.oracle import ClosedCsp, build_engine, compare_kac_ac

from instances import engine_kac_holds

DEFAULT_RECURSION_LIMIT = 1000


@pytest.fixture(autouse=True)
def default_recursion_limit():
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT)
    yield
    sys.setrecursionlimit(saved)


def closed_chain(name: str, n: int, width: int) -> ClosedCsp:
    """name(x0, x1), name(x1, x2), ... over n variables, each with the
    closed domain 0..width-1."""
    keys = [f"x{i}" for i in range(n)]
    verifier = resolve_verifier(name)[2]
    return ClosedCsp({k: list(range(width)) for k in keys},
                     [(name, [a, b], verifier) for a, b in zip(keys, keys[1:])])


@pytest.mark.parametrize("name, n, width", [("lt", 30, 30), ("ne", 500, 2)])
def test_closed_chain_agrees_with_ac3(name, n, width):
    # Each value's support is a candidate of the next variable, checked in
    # turn: the chain of checks is as long as the chain of variables.
    verdict = compare_kac_ac(closed_chain(name, n, width))
    assert verdict.agree, verdict.report
    assert not verdict.engine_failed


def test_open_lt_chain_is_known_arc_consistent():
    eng = Engine()
    ids = []
    for i in range(50):
        iset = eng.new_iset(name=f"d{i}")
        eng.register_source(iset, RangeSource(0, 100))
        ids.append(eng.new_fd_variable(iset, name=f"x{i}"))
    for a, b in zip(ids, ids[1:]):
        eng.post_fd_constraint("lt", [a, b])
    assert eng.solve() is True
    assert engine_kac_holds(eng)
    assert all(eng.present(v) for v in ids)


def test_label_on_a_long_ne_chain():
    csp = closed_chain("ne", 500, 2)
    eng, ids = build_engine(csp)
    assert eng.solve() is True
    solution = eng.label()
    assert solution is not None
    for _name, (a, b), verifier in csp.constraints:
        assert verifier([solution[ids[a]], solution[ids[b]]])


def test_label_does_not_recurse_per_variable():
    # Search keeps its choice points on an explicit stack: twice as many
    # variables as the recursion limit still label.
    csp = closed_chain("ne", 2 * DEFAULT_RECURSION_LIMIT, 2)
    eng, ids = build_engine(csp)
    solution = eng.label()
    assert solution is not None
    assert [solution[ids[k]] for k in csp.domains] == [i % 2 for i in range(len(ids))]


def test_label_memory_on_a_long_ne_chain():
    # Copying the whole engine at every search node made this peak at
    # about 72 MB; undoing through the trail needs well under 1 MB.
    eng, _ids = build_engine(closed_chain("ne", 300, 2))
    assert eng.solve() is True
    tracemalloc.start()
    try:
        assert eng.label() is not None
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


class CountingList(list):
    """A list that counts the items its iterators yield; indexing is
    unchanged."""

    def __init__(self, items):
        super().__init__(items)
        self.yielded = 0

    def __iter__(self):
        for item in super().__iter__():
            self.yielded += 1
            yield item


def test_label_on_a_long_ne_chain_scans_few_variables():
    # A bind runs kac_fixpoint, which scans every variable, only when its
    # removals leave some variable with no present value: here never, so
    # label() visits 3n variables, where a fixpoint per bind visited 2n^2.
    n = 500
    eng, _ids = build_engine(closed_chain("ne", n, 2))
    assert eng.solve() is True
    eng.variables = CountingList(eng.variables)
    assert eng.label() is not None
    assert eng.variables.yielded < 20 * n


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: kac_fixpoint picks each candidate by scanning from the "
    "first variable, so solve() on a closed lt chain of n variables visits "
    "about n^3/3 of them"))
def test_solve_on_a_closed_lt_chain_scans_few_variables():
    n = 100
    eng, _ids = build_engine(closed_chain("lt", n, n + 1))
    eng.variables = CountingList(eng.variables)
    assert eng.solve() is True
    assert eng.variables.yielded < 10 * n * n
