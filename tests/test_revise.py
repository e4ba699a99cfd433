"""Differential test of the revise step that follows each search decision.

Arc consistency has a unique closure, so after a value is bound the
present sets must be exactly what icsp.oracle.ac3 leaves of the present
sets from before the bind, with the bound variable fixed to its value: a
revision skipped when it would have removed something shows up as a value
too many, one made wrongly as a value too few.
"""

import random

import pytest

from icsp import Inconsistency
from icsp.oracle import ClosedCsp, ac3, build_engine

from instances import random_closed_csp, random_nary_closed_csp


def queens(n):
    diag = [(f"q{i}", f"q{j}", j - i) for i in range(n) for j in range(i + 1, n)]
    return ClosedCsp(
        {f"q{i}": list(range(n)) for i in range(n)},
        [("diag", [a, b], lambda t, gap=gap: t[0] != t[1] and abs(t[0] - t[1]) != gap)
         for a, b, gap in diag])


def checked_binds(engine):
    """Replace engine._bind by a version that checks every bind against ac3;
    returns the list that counts the binds it checked."""
    bind, checked = engine._bind, []
    constraints = [(c.name, c.args, c.verify) for c in engine.fd_constraints()]

    def bind_and_check(var, value):
        domains = {v.id: list(v.present) for v in engine.variables}
        domains[var.id] = [value]
        closure = ac3(ClosedCsp(domains, constraints))
        try:
            bind(var, value)
        except Inconsistency:
            assert not closure.consistent, f"bind {var.name}={value!r} failed, ac3 did not"
            checked.append(var)
            raise
        assert closure.consistent, f"bind {var.name}={value!r} held, ac3 wiped out"
        assert {v.id: list(v.present) for v in engine.variables} == closure.domains
        checked.append(var)

    engine._bind = bind_and_check
    return checked


@pytest.mark.parametrize("generate, seeds", [
    (random_nary_closed_csp, range(150)),
    (random_closed_csp, range(150)),
])
def test_each_bind_leaves_the_ac3_closure(generate, seeds):
    binds = 0
    for seed in seeds:
        engine, _ids = build_engine(generate(random.Random(seed)))
        checked = checked_binds(engine)
        if engine.solve():
            engine.label()
        binds += len(checked)
    assert binds > 200


def test_each_bind_leaves_the_ac3_closure_in_queens():
    for n in (5, 6, 8):
        engine, _ids = build_engine(queens(n))
        checked = checked_binds(engine)
        assert engine.solve() is True
        assert engine.label() is not None
        assert len(checked) >= n
