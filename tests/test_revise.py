"""Differential test of the revise step that follows each search decision.

Arc consistency has a unique closure, so after a value is bound the
present sets must be exactly what icsp.oracle.ac3 leaves of the present
sets from before the bind, with the bound variable fixed to its value: a
revision skipped when it would have removed something shows up as a value
too many, one made wrongly as a value too few.

Each variable's revise list, the arcs revise walks from it, is checked
against the walk it stands for: every arc of the variable's constraints,
in posting order, but the variable's own.
"""

import random
from collections import Counter

import pytest

from icsp import Inconsistency
from icsp.fd import resolve_verifier
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


def nested_walk(engine, var):
    """The arcs that revise walked from var before it kept a list of them:
    for each constraint on var, the arc that each of its other distinct
    variables holds for it, in argument order."""
    return [arc for c, *_ in var.arcs
            for w in dict.fromkeys(c.args) if w != var.id
            for arc in engine.variables[w].arcs if arc[0] is c]


def assert_revise_lists(engine):
    for var in engine.variables:
        walk = nested_walk(engine, var)
        assert list(map(id, var.revise)) == list(map(id, walk)), var.name
        assert var.revise_nary == any(len(others) > 1 for _, _, others, *_ in walk)


def test_each_revise_list_is_the_nested_walk_it_replaces():
    repeated = nary = 0
    for seed in range(150):
        csp = random_nary_closed_csp(random.Random(seed))
        engine, _ids = build_engine(csp)
        assert_revise_lists(engine)
        repeated += any(len(set(args)) < len(args) for _, args, _ in csp.constraints)
        nary += any(v.revise_nary for v in engine.variables)
    assert repeated > 30 and nary > 30


def test_each_revise_list_is_the_nested_walk_it_replaces_in_queens():
    for n in (1, 4, 8):
        engine, _ids = build_engine(queens(n))
        assert_revise_lists(engine)
        assert all(len(v.revise) == n - 1 and not v.revise_nary for v in engine.variables)


def test_a_constraint_posted_after_solve_joins_the_revise_lists():
    engine, ids = build_engine(random_nary_closed_csp(random.Random(3)))
    engine.solve()
    a, b, c = list(ids.values())[:3]
    engine.post_fd_constraint("sum_eq_const:6", [a, b, a, c])
    engine.post_fd_constraint("ne", [c, a])
    assert_revise_lists(engine)
    assert engine.variables[b].revise_nary
    engine.label()
    assert_revise_lists(engine)


class Walks(list):
    """A revise list that counts, in walks, the pops that walk it."""

    def __init__(self, arcs, vid, walks):
        super().__init__(arcs)
        self.vid, self.walks = vid, walks

    def __iter__(self):
        self.walks[self.vid] += 1
        return super().__iter__()


def revise_counts(engine):
    """Counters of the times revise queues each variable and the times it
    walks each variable's revise list, by variable id."""
    queued, walks = Counter(), Counter()
    for var in engine.variables:
        var.revise = Walks(var.revise, var.id, walks)
    revise = engine._revise

    def counted(seed):
        lost = [len(var.removed) for var in engine.variables]
        queued[seed.id] += 1
        try:
            return revise(seed)
        finally:
            for var, before in zip(engine.variables, lost):
                if len(var.removed) > before:
                    queued[var.id] += len(var.removed) - before

    engine._revise = counted
    return queued, walks


def test_each_bind_leaves_the_ac3_closure_next_to_a_ternary_sum():
    """Binding c narrows b to one value, so b is queued once per lost value;
    b has only binary arcs, and its later pops, which find it unchanged,
    are skipped whole. c, d and e share a ternary sum, so each of their
    pops walks their whole list."""
    values = list(range(5))
    csp = ClosedCsp({key: values for key in "cbade"}, [
        ("le", ["a", "b"], resolve_verifier("le")[2]),
        ("le", ["b", "c"], resolve_verifier("le")[2]),
        ("sum_eq_const:6", ["c", "d", "e"], resolve_verifier("sum_eq_const:6")[2]),
        ("ne", ["d", "e"], resolve_verifier("ne")[2]),
    ])
    engine, ids = build_engine(csp)
    checked = checked_binds(engine)
    queued, walks = revise_counts(engine)
    assert engine.solve() is True
    assert engine.label() is not None
    assert len(checked) == 5
    nary = {ids[key] for key in "cde"}
    assert {v.id for v in engine.variables if v.revise_nary} == nary
    for vid in ids.values():
        if vid in nary:
            assert walks[vid] == queued[vid]
        else:
            assert walks[vid] <= queued[vid]
    assert walks[ids["b"]] < queued[ids["b"]]
