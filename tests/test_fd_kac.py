"""Engine-level tests of the known-arc-consistency procedure: candidate
handling, support seek priority, the reliance graph, cascaded removal, and
the full lazy-acquisition walkthrough."""

import gc
import operator
from collections import Counter

import pytest

from icsp import (Engine, Inclusion, Inconsistency, IsetStore, PairState,
                  ScriptedSource, Union, resolve_verifier)

from instances import (
    LoggedEngine,
    audit_transitions,
    engine_kac_holds,
    golden_engine,
    pair_place_errors,
)
from icsp.oracle import ClosedCsp, ac3


# ----------------------------------------------------------------------
# variables, candidates, verify

def test_new_variable_over_empty_domain():
    eng = Engine()
    d = eng.new_iset()
    v = eng.new_fd_variable(d)
    assert eng.present(v) == [] and eng.removed(v) == []
    assert list(eng.variable(v).candidates) == []


def test_new_variable_candidates_existing_elements():
    eng = Engine()
    d = eng.new_iset([1, 2])
    v = eng.new_fd_variable(d)
    assert list(eng.variable(v).candidates) == [1, 2]
    assert eng.variable(v).state(1) is PairState.CANDIDATE


def test_shared_domain_independent_queues():
    eng = Engine()
    d = eng.new_iset([1])
    v1 = eng.new_fd_variable(d)
    v2 = eng.new_fd_variable(d)
    assert list(eng.variable(v1).candidates) == [1]
    assert list(eng.variable(v2).candidates) == [1]
    eng.variable(v1).candidates.popleft()
    assert list(eng.variable(v2).candidates) == [1]


def test_verify_builtins():
    eng = Engine()
    d = eng.new_iset([1])
    v = eng.new_fd_variable(d)
    lt = eng.fd_constraint(eng.post_fd_constraint("lt", [v, v]))
    gt = eng.fd_constraint(eng.post_fd_constraint("gt", [v, v]))
    assert lt.verify([1, 2]) is True
    assert lt.verify([2, 2]) is False
    assert gt.verify([2, 1]) is True
    with pytest.raises(ValueError):
        lt.verify([1])


MIXED_POOL = [-3, 0, 5, "a", "zz", "e1"]


@pytest.mark.parametrize("name, op", [("lt", operator.lt), ("le", operator.le),
                                      ("gt", operator.gt), ("ge", operator.ge)])
def test_builtin_comparisons_order_ints_and_atoms_apart(name, op):
    # Numeric order for two ints, string order for two atoms, and no order
    # at all between an int and an atom, in either argument order.
    _, _, verify = resolve_verifier(name)
    for a in MIXED_POOL:
        for b in MIXED_POOL:
            if isinstance(a, int) and isinstance(b, int):
                expected = op(a, b)
            elif isinstance(a, str) and isinstance(b, str):
                expected = op(a, b)
            else:
                expected = False
            assert verify([a, b]) is expected, (name, a, b)


@pytest.mark.parametrize("owner, name", [
    *((Engine, name) for name in ("ensure_member", "close", "known", "is_closed",
                                  "enqueue_candidate", "pair_state", "candidates")),
    (IsetStore, "contains"),
    (Engine, "def_domain"),
])
def test_set_state_and_pairs_have_one_public_route(owner, name):
    # Sets are read and changed through engine.isets, pairs through
    # engine.variable(v), and candidates come only from set propagation; a
    # variable gets its definition domain only from new_fd_variable.
    assert not hasattr(owner, name)


def test_builtin_arity_checked_at_post():
    eng = Engine()
    d = eng.new_iset([1])
    v = eng.new_fd_variable(d)
    with pytest.raises(ValueError):
        eng.post_fd_constraint("lt", [v])
    with pytest.raises(ValueError):
        eng.post_fd_constraint("no_such_thing", [v, v])


@pytest.mark.parametrize("name", ["sum_eq_const:x", "sum_eq_const:1_0", "sum_eq_const:+1",
                                  "sum_eq_const: 7", "sum_eq_const:\uff11"])
def test_a_sum_constant_is_written_as_an_integer_element(name):
    # The constant reads by the rule an integer element does: ASCII -?[0-9]+.
    with pytest.raises(ValueError, match="bad constant"):
        resolve_verifier(name)
    assert resolve_verifier("sum_eq_const:-7")[2]([-3, -4]) is True


def test_a_constraint_without_arguments_is_rejected():
    eng = Engine()
    with pytest.raises(ValueError, match="constraint needs at least one argument"):
        eng.post_fd_constraint("c", [], lambda t: True)
    assert eng.fd_constraints() == []


def test_an_illegal_move_raises_before_changing_anything():
    eng = LoggedEngine()
    v = eng.new_fd_variable(eng.new_iset([1]), name="v")
    var = eng.variable(v)
    assert var.state(1) is PairState.CANDIDATE
    before = (dict(var.states), list(var.present), list(var.removed),
              list(var.candidates), list(eng.trace), list(eng.transitions))
    with pytest.raises(AssertionError) as raised:
        eng._move(var, 1, PairState.PRESENT)
    assert str(raised.value) == "illegal prop transition candidate->present for (v,1)"
    assert (dict(var.states), list(var.present), list(var.removed),
            list(var.candidates), list(eng.trace), list(eng.transitions)) == before


_S = PairState
_LISTS = {_S.CANDIDATE: "candidates", _S.OBSERVED: "observed", _S.PRESENT: "present",
          _S.REMOVED: "removed"}
_TAGS = {_S.CANDIDATE: "CANDIDATE", _S.OBSERVED: "OBSERVE", _S.PRESENT: "PRESENT",
         _S.REMOVED: "REMOVE"}
_PROP_MOVES = {(_S.UNKNOWN, _S.CANDIDATE), (_S.CANDIDATE, _S.OBSERVED),
               (_S.OBSERVED, _S.PRESENT), (_S.OBSERVED, _S.REMOVED)}
_SEARCH_MOVES = _PROP_MOVES | {(_S.PRESENT, _S.REMOVED), (_S.CANDIDATE, _S.REMOVED)}


@pytest.mark.parametrize("phase", ["prop", "search"])
@pytest.mark.parametrize("old", list(PairState), ids=lambda s: s.value)
@pytest.mark.parametrize("new", list(PairState), ids=lambda s: s.value)
def test_every_move_follows_the_step_table_of_its_phase(phase, old, new):
    # The element 1 starts in state old, first in its list, behind nothing
    # and ahead of a filler element in every list. A legal move takes it
    # out of its old list, to the end of its new one, and logs one trace
    # entry and one transition record; in search its trail record undoes
    # it. An illegal move raises and changes nothing.
    eng = LoggedEngine()
    v = eng.new_fd_variable(eng.new_iset(name="d"), name="v")
    var = eng.variable(v)
    for filler, state in enumerate(_LISTS, start=10):
        getattr(var, _LISTS[state]).append(filler)
        var.states[filler] = state
    if old is not _S.UNKNOWN:
        getattr(var, _LISTS[old]).insert(0, 1)
        var.states[1] = old
    if phase == "search":
        eng.isets.trail = []

    def seen():
        return ({name: list(getattr(var, name)) for name in _LISTS.values()},
                dict(var.states), list(eng.graph.nodes), list(eng.trace),
                list(eng.transitions), list(eng.isets.trail or ()))

    before = seen()
    if (old, new) not in (_PROP_MOVES if phase == "prop" else _SEARCH_MOVES):
        with pytest.raises(AssertionError) as raised:
            eng._move(var, 1, new)
        assert str(raised.value) == f"illegal {phase} transition {old.value}->{new.value} for (v,1)"
        assert seen() == before
        return
    eng._move(var, 1, new)
    lists, states, nodes, trace, transitions, trail = seen()
    for state, name in _LISTS.items():
        want = [x for x in before[0][name] if x != 1] + [1] * (state is new)
        assert lists[name] == want, name
    assert states == {**before[1], 1: new}
    assert nodes == before[2] + [(v, 1)] * (new is _S.OBSERVED)
    assert trace == before[3] + [(_TAGS[new], "v", 1)]
    assert transitions == [(v, 1, old, new, phase)]
    if phase == "prop":
        assert trail == []
        return
    assert len(trail) == 1
    eng.isets.set_state(0)
    assert seen()[:2] == before[:2]


def test_the_engine_keeps_no_transition_log_and_a_logged_engine_rebuilds_it():
    # A plain engine's transitions stay () through solve() and label(), and
    # a list assigned to them stays empty: the engine logs nothing there. A
    # LoggedEngine gets one record per move, in the order of the trace's
    # move entries; all three engines run alike.
    def run(eng):
        dx = eng.new_iset([1, 2], name="dx")
        eng.register_source(dx, ScriptedSource([3]))
        x = eng.new_fd_variable(dx, name="x")
        y = eng.new_fd_variable(eng.new_iset([1, 2, 3], open=False, name="dy"), name="y")
        eng.post_fd_constraint("lt", [x, y])
        assert eng.solve() is True
        assert eng.label() == {x: 1, y: 2}
        return eng

    default = run(Engine())
    assigned = Engine()
    assigned.transitions = []
    run(assigned)
    logged = run(LoggedEngine())
    assert default.transitions == () and assigned.transitions == []
    for eng in (default, assigned):
        assert (eng.trace, eng.acquisitions) == (logged.trace, logged.acquisitions)
    moves = [entry[1:] for entry in logged.trace
             if entry[0] in ("CANDIDATE", "OBSERVE", "PRESENT", "REMOVE")]
    assert [(logged.variables[vid].name, e) for vid, e, *_ in logged.transitions] == moves
    phases = Counter(phase for *_, phase in logged.transitions)
    assert phases == {"prop": 18, "search": 2}  # label() removes x's 2 and y's 3


@pytest.mark.parametrize("vid", [-1, 1, "x", 0.0, True, False])
def test_unknown_variable_id_is_a_usage_error(vid):
    eng = Engine()
    v = eng.new_fd_variable(eng.new_iset([1]))
    with pytest.raises(ValueError):
        eng.variable(vid)
    with pytest.raises(ValueError):
        eng.post_fd_constraint("lt", [v, vid])
    assert eng.fd_constraints() == []


@pytest.mark.parametrize("cid", [-1, 2, 5, "0", 0.0, True, False])
def test_unknown_constraint_id_is_a_usage_error(cid):
    eng = Engine()
    v, w = (eng.new_fd_variable(eng.new_iset([1])) for _ in range(2))
    first, second = eng.post_fd_constraint("lt", [v, w]), eng.post_fd_constraint("ne", [v, w])
    with pytest.raises(ValueError, match="unknown constraint id"):
        eng.fd_constraint(cid)
    assert [eng.fd_constraint(c).name for c in (first, second)] == ["lt", "ne"]


def test_new_variable_over_an_unknown_iset_leaves_no_variable():
    eng = Engine()
    x = eng.new_fd_variable(eng.new_iset([1, 2], open=False), name="x")
    with pytest.raises(ValueError):
        eng.new_fd_variable(99)
    with pytest.raises(TypeError):
        eng.new_fd_variable()  # every variable ranges over an iset
    assert len(eng.variables) == 1
    assert eng.solve() is True
    assert eng.label() == {x: 1}


# ----------------------------------------------------------------------
# the KAC loop

def test_no_variables_is_quiescent():
    assert Engine().solve() is True


def test_golden_walkthrough():
    eng, (dx, dy, dz), (x, y, z) = golden_engine()
    assert eng.solve() is True
    assert eng.present(x) == [1] and eng.removed(x) == [2]
    assert eng.present(y) == [2] and eng.removed(y) == []
    assert eng.present(z) == [2] and eng.removed(z) == []
    assert eng.isets.is_closed(dz)
    assert not eng.isets.is_closed(dx) and not eng.isets.is_closed(dy)
    # one acquisition for dx, two for dz (the second being the exhausted reply)
    per_iset = [iset for iset, _var, _elem in eng.acquisitions]
    assert per_iset == [dx, dz, dz]
    assert eng.acquisitions[-1][2] is None
    assert engine_kac_holds(eng)
    assert audit_transitions(eng) == []


def test_wipeout_on_closed_empty_domain():
    eng = Engine()
    d = eng.new_iset([], open=False)
    eng.new_fd_variable(d)
    assert eng.solve() is False


def test_unsupported_pair_with_closed_domains_fails_like_ac():
    eng = Engine()
    dx = eng.new_iset([2], open=False)
    dz = eng.new_iset([2], open=False)
    x = eng.new_fd_variable(dx, name="x")
    z = eng.new_fd_variable(dz, name="z")
    eng.post_fd_constraint("gt", [z, x])
    assert eng.solve() is False
    from icsp import resolve_verifier
    _, _, gt = resolve_verifier("gt")
    assert ac3(ClosedCsp({"x": [2], "z": [2]}, [("gt", ["z", "x"], gt)])).consistent is False


def test_variable_without_constraints_is_vacuously_supported():
    eng = Engine()
    d = eng.new_iset([5], open=False)
    v = eng.new_fd_variable(d)
    assert eng.solve() is True
    assert eng.present(v) == [5]


def test_unary_constraint_is_node_consistency():
    eng = Engine()
    d = eng.new_iset([1, 2, 3, 4], open=False)
    v = eng.new_fd_variable(d)
    eng.post_fd_constraint("even", [v], lambda t: t[0] % 2 == 0)
    assert eng.solve() is True
    # oracle: direct filter of the domain
    assert eng.present(v) == [e for e in [1, 2, 3, 4] if e % 2 == 0]
    assert eng.removed(v) == [e for e in [1, 2, 3, 4] if e % 2 != 0]


def test_repeated_argument_substitutes_same_element():
    eng = Engine()
    d = eng.new_iset([2, 3], open=False)
    v = eng.new_fd_variable(d)
    eng.post_fd_constraint("self_sum_is_even", [v, v], lambda t: (t[0] + t[1]) % 4 == 0)
    assert eng.solve() is True
    assert eng.present(v) == [2]  # (2,2) passes, (3,3) does not
    assert eng.removed(v) == [3]


# ----------------------------------------------------------------------
# support priority and the reliance graph

def test_support_by_present_records_no_arc():
    eng = Engine()
    dz = eng.new_iset([2], open=False, name="dz")
    z = eng.new_fd_variable(dz, name="z")
    assert eng.solve() is True  # z=2 becomes present with no constraints yet
    assert eng.present(z) == [2]
    dx = eng.new_iset([1], name="dx")
    x = eng.new_fd_variable(dx, name="x")
    eng.post_fd_constraint("gt", [z, x])
    assert eng.solve() is True
    assert eng.present(x) == [1]
    # support came from a present value: nothing was recorded
    assert [t for t in eng.trace if t[0] == "RELY"] == []


def test_support_by_observed_records_arc():
    eng, _isets, (x, _y, z) = golden_engine()
    eng.solve()
    relies = [t for t in eng.trace if t[0] == "RELY"]
    assert (("RELY", ("x", 1), ("z", 2), "gt")) in relies
    assert (("RELY", ("z", 2), ("x", 1), "gt")) in relies


def test_flush_clears_graph_and_promotes():
    eng, _isets, (x, _y, z) = golden_engine()
    eng.solve()
    assert eng.graph.nodes == []
    assert eng.graph._supporters == {} and eng.graph._dependents == {}
    assert eng.variable(x).state(1) is PairState.PRESENT
    assert eng.variable(z).state(2) is PairState.PRESENT


def test_removal_cascade_chain():
    # ea relies on eb relies on ec; ec fails its unary check, so all three
    # fall, and the second elements of each domain survive instead
    table_ab = {(1, 2), (10, 20)}
    table_bc = {(2, 3), (20, 30)}
    eng = Engine()
    da = eng.new_iset([1, 10], open=False, name="da")
    db = eng.new_iset([2, 20], open=False, name="db")
    dc = eng.new_iset([3, 30], open=False, name="dc")
    a = eng.new_fd_variable(da, name="a")
    b = eng.new_fd_variable(db, name="b")
    c = eng.new_fd_variable(dc, name="c")
    eng.post_fd_constraint("ab", [a, b], lambda t: tuple(t) in table_ab)
    eng.post_fd_constraint("bc", [b, c], lambda t: tuple(t) in table_bc)
    eng.post_fd_constraint("cok", [c], lambda t: t[0] != 3)
    assert eng.solve() is True
    assert eng.removed(a) == [1] and eng.removed(b) == [2] and eng.removed(c) == [3]
    assert eng.present(a) == [10] and eng.present(b) == [20] and eng.present(c) == [30]
    # oracle agreement: AC prunes exactly the same three values
    csp = ClosedCsp(
        {"a": [1, 10], "b": [2, 20], "c": [3, 30]},
        [("ab", ["a", "b"], lambda t: tuple(t) in table_ab),
         ("bc", ["b", "c"], lambda t: tuple(t) in table_bc),
         ("cok", ["c"], lambda t: t[0] != 3)],
    )
    result = ac3(csp)
    assert result.consistent
    assert result.domains == {"a": [10], "b": [20], "c": [30]}


def test_cascade_reseek_finds_all_present_tuple():
    # b first leans on a doomed supporter; after the cascade the re-seek
    # succeeds purely among present values and records no new arc
    truths = {(2, 10, 4), (2, 20, 40)}
    eng = Engine()
    dc = eng.new_iset([10, 20], open=False, name="dc")
    dd = eng.new_iset([40], name="dd")
    c = eng.new_fd_variable(dc, name="c")
    d = eng.new_fd_variable(dd, name="d")
    assert eng.solve() is True  # c: 10,20 present; d: 40 present
    db = eng.new_iset([2], open=False, name="db")
    b = eng.new_fd_variable(db, name="b")
    eng.post_fd_constraint("k", [b, c, d], lambda t: tuple(t) in truths)
    eng.post_fd_constraint("dok", [d], lambda t: t[0] != 4)
    eng.isets.ensure_member(dd, 4)
    assert eng.solve() is True
    assert eng.present(b) == [2]
    assert eng.removed(d) == [4] and eng.present(d) == [40]
    # exactly the two arcs of the first (doomed) tuple were ever recorded
    relies = [t for t in eng.trace if t[0] == "RELY"]
    assert relies == [
        ("RELY", ("d", 4), ("b", 2), "k"),
        ("RELY", ("b", 2), ("d", 4), "k"),
    ]
    # oracle agreement on the closed-world equivalent
    csp = ClosedCsp(
        {"b": [2], "c": [10, 20], "d": [40, 4]},
        [("k", ["b", "c", "d"], lambda t: tuple(t) in truths),
         ("dok", ["d"], lambda t: t[0] != 4)],
    )
    result = ac3(csp)
    assert result.consistent
    assert 2 in result.domains["b"]
    # no blanket consistency check here: k was posted after c's values were
    # already present, so those carry no promise of support under k


def test_transition_log_is_clean_across_scenarios():
    eng, _isets, _vars = golden_engine()
    eng.solve()
    assert audit_transitions(eng) == []
    assert all(phase == "prop" for *_rest, phase in eng.transitions)


def test_pair_stranded_by_a_raising_verifier_is_checked_by_the_next_solve():
    # The verifier raises while x=3 is under check, which leaves the pair
    # observed, in x's observed list and in the graph's nodes. The next
    # solve() must finish that check (3 has no larger y) instead of
    # promoting the pair unverified.
    eng = Engine()
    x = eng.new_fd_variable(eng.new_iset([1, 2, 3], open=False, name="dx"), name="x")
    y = eng.new_fd_variable(eng.new_iset([1, 2, 3], open=False, name="dy"), name="y")
    raised = []

    def flaky_lt(values):
        if values == [3, 1] and not raised:
            raised.append(values)
            raise TypeError("flaky verifier")
        return values[0] < values[1]

    eng.post_fd_constraint("lt", [x, y], flaky_lt)
    with pytest.raises(TypeError):
        eng.solve()
    assert eng.variable(x).state(3) is PairState.OBSERVED
    assert eng.variable(x).observed == [3]
    assert (x, 3) in eng.graph.nodes
    assert pair_place_errors(eng) == []
    assert eng.solve() is True
    assert engine_kac_holds(eng)
    assert eng.present(x) == [1, 2] and eng.removed(x) == [3]
    assert eng.present(y) == [2, 3] and eng.removed(y) == [1]
    assert eng.graph.nodes == []


@pytest.mark.xfail(strict=True, reason=(
    "CHANGES.md FOUND on post_fd_constraint, ROADMAP item 5: a constraint "
    "posted after solve() never re-checks the present values"))
def test_a_constraint_posted_after_solve_revises_the_present_values():
    eng = Engine()
    a = eng.new_fd_variable(eng.new_iset([1, 2, 3], open=False, name="da"), name="a")
    b = eng.new_fd_variable(eng.new_iset([1, 2, 3], open=False, name="db"), name="b")
    assert eng.solve() is True
    eng.post_fd_constraint("lt", [a, b])
    assert eng.solve() is True
    assert engine_kac_holds(eng)
    assert eng.present(a) == [1, 2] and eng.present(b) == [2, 3]


def test_a_contradiction_found_by_solve_is_final():
    # x needs a value, and da's source offers 7 first, which the inclusion
    # forces into the closed db = {5}. Nothing outside search takes 7 back,
    # so acquiring 5 next would leave da = {5, 7} outside db: every later
    # solve() must stay False, without acquiring or propagating again.
    eng = LoggedEngine()
    da = eng.new_iset(name="da")
    eng.register_source(da, ScriptedSource([7, 5]))
    db = eng.new_iset([5], open=False, name="db")
    eng.post_iset_constraint(Inclusion(da, db))
    x = eng.new_fd_variable(da, name="x")
    y = eng.new_fd_variable(db, name="y")
    eng.post_fd_constraint("eq", [x, y])
    assert eng.solve() is False
    kept = eng.inconsistency
    assert isinstance(kept, Inconsistency)
    logs = (list(eng.trace), list(eng.transitions), list(eng.acquisitions))
    assert eng.solve() is False
    assert eng.label([x, y]) is None
    assert eng.inconsistency is kept
    assert (eng.trace, eng.transitions, eng.acquisitions) == logs
    assert eng.isets.known(da) == {7} and eng.present(x) == []


def test_a_contradiction_raised_at_posting_is_final():
    eng = Engine()
    a = eng.new_iset([1, 2], open=False, name="a")
    b = eng.new_iset([1], open=False, name="b")
    with pytest.raises(Inconsistency) as raised:
        eng.post_iset_constraint(Inclusion(a, b))
    # The caller gets the exception with its traceback; the engine keeps a
    # copy without it.
    kept = eng.inconsistency
    assert type(kept) is Inconsistency and kept.args == raised.value.args
    assert kept.__traceback__ is None and raised.value.__traceback__ is not None
    x = eng.new_fd_variable(a, name="x")
    assert eng.solve() is False
    assert eng.label([x]) is None
    with pytest.raises(Inconsistency):
        eng.post_iset_constraint(Inclusion(a, b))
    assert eng.inconsistency is kept  # the first one is kept


def inconsistent_by_solve():
    eng = Engine()
    d = eng.new_iset([1], open=False)
    x, y = eng.new_fd_variable(d), eng.new_fd_variable(d)
    eng.post_fd_constraint("lt", [x, y])
    assert eng.solve() is False
    return eng


def inconsistent_at_posting():
    eng = Engine()
    a = eng.new_iset([1, 2], open=False)
    b = eng.new_iset([1], open=False)
    try:
        eng.post_iset_constraint(Inclusion(a, b))
    except Inconsistency:
        pass
    return eng


@pytest.mark.parametrize("make", [inconsistent_by_solve, inconsistent_at_posting])
def test_an_inconsistent_engine_is_freed_without_the_cycle_collector(make):
    # The kept Inconsistency holds no traceback, whose frames would hold
    # the engine and make it a reference cycle.
    gc.collect()
    eng = make()
    assert eng.inconsistency is not None
    del eng
    assert gc.collect() == 0


def test_a_labelled_engine_is_freed_without_the_cycle_collector():
    # Each arc holds its constraint and no constraint holds an arc, so an
    # engine that solved, acquired and labelled forms no reference cycle.
    gc.collect()
    eng = Engine()
    a = eng.new_iset([1, 2, 3], open=False)
    b = eng.new_iset([2, 3], open=False)
    u = eng.new_iset()
    eng.post_iset_constraint(Union(a, b, u))
    o = eng.new_iset()
    eng.register_source(o, ScriptedSource([3, 1]))
    x, y, z, w = (eng.new_fd_variable(s) for s in (a, b, o, u))
    eng.post_fd_constraint("lt", [x, y])
    eng.post_fd_constraint("sum_eq_const:6", [x, y, z])
    eng.post_fd_constraint("sum_eq_const:4", [w, w, x])
    assert eng.solve() is True
    assert eng.label() == {x: 2, y: 3, z: 1, w: 1}
    assert [element for _, _, element in eng.acquisitions] == [3, 1]
    del eng
    assert gc.collect() == 0
