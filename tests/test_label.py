"""Search tests: depth-first labeling over present values, undone through
the trail on backtracking, plus acquisition of extra elements at a search
node."""

import io
import random

import pytest

from icsp import (
    AcquisitionSource,
    Engine,
    Inclusion,
    InteractiveSource,
    Intersection,
    PairState,
    ScriptedSource,
)

from icsp.oracle import build_engine

from instances import (
    LoggedEngine,
    engine_kac_holds,
    engine_state,
    pair_place_errors,
    random_closed_csp,
    random_open_engine,
)


def gated_triangle(a_open=False, a_script=None):
    """a in {0,1}; y,z,w form a 2-colour triangle whose disequalities are
    active only when a == 0. Arc consistency holds everywhere, but the
    a=0 subtree is globally unsatisfiable, so search must backtrack."""
    eng = Engine()
    da = eng.new_iset([0] if a_open else [0, 1], open=a_open, name="da")
    if a_open:
        eng.register_source(da, ScriptedSource(a_script or [1]))
    dom = eng.new_iset([1, 2], open=False, name="dyzw")
    a = eng.new_fd_variable(da, name="a")
    y = eng.new_fd_variable(dom, name="y")
    z = eng.new_fd_variable(dom, name="z")
    w = eng.new_fd_variable(dom, name="w")
    gate = lambda t: t[0] == 1 or t[1] != t[2]
    eng.post_fd_constraint("gyz", [a, y, z], gate)
    eng.post_fd_constraint("gzw", [a, z, w], gate)
    eng.post_fd_constraint("gyw", [a, y, w], gate)
    return eng, (a, y, z, w)


def test_label_golden_instance():
    eng = Engine()
    dx = eng.new_iset(name="dx")
    dy = eng.new_iset(name="dy")
    dz = eng.new_iset(name="dz")
    x = eng.new_fd_variable(dx, name="x")
    y = eng.new_fd_variable(dy, name="y")
    z = eng.new_fd_variable(dz, name="z")
    eng.post_iset_constraint(Intersection(dx, dy, dz))
    eng.post_fd_constraint("gt", [z, x])
    eng.register_source(dx, ScriptedSource([1]))
    eng.register_source(dz, ScriptedSource([2]))
    assert eng.solve() is True
    assert eng.label([x, y, z]) == {x: 1, y: 2, z: 2}


def test_label_closed_empty_domain_is_exhausted():
    eng = Engine()
    d = eng.new_iset([], open=False)
    v = eng.new_fd_variable(d)
    assert eng.label([v]) is None


@pytest.mark.parametrize("vid", [-1, 2, 5, "x", 0.0, True, False])
def test_label_rejects_an_unknown_variable_id(vid):
    # -1 would label the last variable, and 5 is past the end; a string or
    # a float is no id at all.
    eng = Engine()
    d = eng.new_iset([3, 4], open=False)
    eng.new_fd_variable(d, name="x")
    eng.new_fd_variable(d, name="y")
    assert eng.solve() is True
    with pytest.raises(ValueError):
        eng.label([vid])
    assert eng.isets.trail is None
    assert all(v.bound_to is None for v in eng.variables)


def test_label_keeps_a_trail_only_while_it_runs():
    eng, (a, y, z, w) = gated_triangle()
    assert eng.isets.trail is None
    assert eng.solve() is True
    assert eng.isets.trail is None  # solve() records nothing
    trails = []
    fixpoint = eng.kac_fixpoint

    def watched():
        trails.append(eng.isets.trail)
        fixpoint()

    eng.kac_fixpoint = watched
    assert eng.label([a, y, z, w]) is not None
    # the entry solve() runs outside the trail, every search node inside it
    assert trails[0] is None
    assert trails[1:] and all(t is not None for t in trails[1:])
    assert eng.isets.trail is None


def test_label_two_variable_equality():
    eng = Engine()
    dx = eng.new_iset([1, 2], open=False)
    dx2 = eng.new_iset([2], open=False)
    x = eng.new_fd_variable(dx, name="x")
    x2 = eng.new_fd_variable(dx2, name="x2")
    eng.post_fd_constraint("eq", [x, x2])
    assert eng.solve() is True
    assert eng.label([x, x2]) == {x: 2, x2: 2}


def test_label_exhausted_restores_state():
    # pairwise-different over two values for three variables: arc-consistent
    # but unsatisfiable, so every branch fails and is rolled back
    eng = Engine()
    dom = eng.new_iset([0, 1], open=False)
    xs = [eng.new_fd_variable(dom, name=f"x{i}") for i in range(3)]
    eng.post_fd_constraint("ne", [xs[0], xs[1]])
    eng.post_fd_constraint("ne", [xs[1], xs[2]])
    eng.post_fd_constraint("ne", [xs[0], xs[2]])
    assert eng.solve() is True
    before = [(eng.present(v), eng.removed(v)) for v in xs]
    assert eng.label(xs) is None
    after = [(eng.present(v), eng.removed(v)) for v in xs]
    assert before == after
    assert all(eng.variable(v).bound_to is None for v in xs)


def test_label_backtracks_out_of_a_dead_subtree():
    eng, (a, y, z, w) = gated_triangle()
    assert eng.solve() is True
    assert eng.present(a) == [0, 1]  # both gate values look fine pairwise
    solution = eng.label([a, y, z, w])
    assert solution is not None
    assert solution[a] == 1  # 0 was tried first and abandoned


def test_label_acquires_at_a_node_when_presents_run_out():
    eng, (a, y, z, w) = gated_triangle(a_open=True, a_script=[1])
    assert eng.solve() is True
    assert eng.present(a) == [0]
    calls_before = len(eng.acquisitions)
    solution = eng.label([a, y, z, w])
    assert solution is not None and solution[a] == 1
    # the winning value was pulled in during search, not during propagation
    assert (eng.acquisitions[calls_before:])[0][2] == 1


def test_label_solution_leaves_bound_state():
    eng = Engine()
    d = eng.new_iset([3, 4], open=False)
    v = eng.new_fd_variable(d, name="v")
    assert eng.solve() is True
    assert eng.label([v]) == {v: 3}
    assert eng.present(v) == [3]
    assert eng.removed(v) == [4]


def test_label_agrees_with_exhaustive_search():
    # differential against brute force: on random closed instances the
    # search must find a verifying assignment exactly when one exists
    import itertools
    import random

    from icsp import Engine, resolve_verifier
    from instances import COMPARISONS

    for seed in range(150):
        rng = random.Random(300_000 + seed)
        nvars = rng.randint(1, 4)
        domains = [rng.sample(range(4), rng.randint(1, 3)) for _ in range(nvars)]
        constraints = []
        for _ in range(rng.randint(0, 4)):
            name = rng.choice(COMPARISONS)
            if nvars >= 2 and rng.random() < 0.9:
                a, b = rng.sample(range(nvars), 2)
            else:
                a = b = rng.randrange(nvars)
            constraints.append((name, [a, b], resolve_verifier(name)[2]))

        brute = None
        for values in itertools.product(*domains):
            if all(fn([values[a], values[b]]) for _n, (a, b), fn in constraints):
                brute = values
                break

        eng = Engine()
        var_ids = [eng.new_fd_variable(eng.new_iset(dom, open=False), name=f"x{i}")
                   for i, dom in enumerate(domains)]
        for name, (a, b), fn in constraints:
            eng.post_fd_constraint(name, [var_ids[a], var_ids[b]], fn)
        if not eng.solve():
            assert brute is None, f"seed {seed}: engine failed a satisfiable instance"
            continue
        solution = eng.label(var_ids)
        if brute is None:
            assert solution is None, f"seed {seed}: found solution where none exists"
        else:
            assert solution is not None, f"seed {seed}: missed an existing solution"
            values = [solution[v] for v in var_ids]
            for name, (a, b), fn in constraints:
                assert fn([values[a], values[b]]), f"seed {seed}: bad solution"


def record_visits(engine, var_ids):
    """Wrap the engine's _bind. Each call is filed under the visit of its
    variable's node that it belongs to, as (value, present list at the
    call); a visit ends when a variable earlier in var_ids is bound.
    Returns a function that lists the visits: those that ended, in the
    order they ended, then those still open."""
    position = {v: i for i, v in enumerate(dict.fromkeys(var_ids))}
    open_visits: dict = {}  # position -> the tries of its current visit
    ended = []
    bind = engine._bind

    def recorded(var, value):
        p = position[var.id]
        ended.extend(open_visits.pop(q) for q in sorted(open_visits) if q > p)
        open_visits.setdefault(p, []).append((value, list(var.present)))
        bind(var, value)

    engine._bind = recorded
    return lambda: ended + list(open_visits.values())


def test_a_node_tries_its_present_values_in_list_order_without_repeat():
    # label() keeps only the count of values a node has tried, and takes
    # present[count] next. That is exact because the present list of a
    # node only grows between its tries: every restore puts it back as it
    # was, and an acquisition at the node appends. So the k-th value a
    # visit binds is present[k], the list at each try extends the one at
    # the try before, and no value repeats. Some visits acquire between
    # two tries, so an appended value is tried too.
    grown = visits = 0
    for seed in range(2400):
        if seed < 2000:
            engine, var_ids = random_open_engine(random.Random(1_000_000 + seed))
        else:
            engine, ids = build_engine(random_closed_csp(random.Random(seed)))
            var_ids = list(ids.values())
        if not engine.solve():
            continue
        recorded = record_visits(engine, var_ids)
        engine.label(var_ids)
        for visit in recorded():
            visits += 1
            values = [value for value, _present in visit]
            assert len(set(values)) == len(values), f"seed {seed}: {values}"
            for k, (value, present) in enumerate(visit):
                assert present[k] == value, f"seed {seed}"
                if k:
                    before = visit[k - 1][1]
                    assert present[:len(before)] == before, f"seed {seed}"
                    grown += len(present) > len(before)
    assert visits > 1000 and grown >= 5


def test_label_interrupted_by_a_raising_verifier_restores_its_entry_state():
    # x=1 is bound, x=2 removed, and then the verifier raises while y=1 is
    # revised. label() must restore the state it started from before the
    # exception leaves it: a later element for x is then an ordinary
    # candidate, not a contradiction of a stale search decision.
    eng = Engine()
    dx = eng.new_iset([1, 2], name="dx")
    eng.register_source(dx, ScriptedSource([3]))
    x = eng.new_fd_variable(dx, name="x")
    y = eng.new_fd_variable(eng.new_iset([1, 2, 3], open=False, name="dy"), name="y")
    armed = []

    def flaky_ne(values):
        if armed and values == [1, 1]:
            armed.clear()
            raise TypeError("flaky verifier")
        return values[0] != values[1]

    eng.post_fd_constraint("ne", [x, y], flaky_ne)
    assert eng.solve() is True
    before = {v: eng.present(v) for v in (x, y)}
    armed.append(True)
    with pytest.raises(TypeError):
        eng.label()
    assert not armed  # the verifier did raise inside label()
    assert eng.isets.trail is None
    assert all(eng.variable(v).bound_to is None for v in (x, y))
    assert {v: eng.present(v) for v in (x, y)} == before
    assert engine_kac_holds(eng)
    assert pair_place_errors(eng) == []
    eng.isets.ensure_member(dx, 7)
    assert eng.solve() is True
    assert eng.variable(x).state(7) is PairState.PRESENT
    assert engine_kac_holds(eng)
    assert pair_place_errors(eng) == []


class Armed(Exception):
    """What an armed verifier or source raises."""


class RaisingSource(AcquisitionSource):
    def next(self, iset, ctx):
        raise Armed


def recorded_restores(engine):
    """Wrap the engine's trail restore: the returned list gets (mark,
    records on the trail) for each call."""
    calls = []
    set_state = engine.isets.set_state

    def recorded(mark):
        calls.append((mark, len(engine.isets.trail)))
        set_state(mark)

    engine.isets.set_state = recorded
    return calls


def before_a_triangle(source=None, open=True):
    """a over {0}, open unless told otherwise, with the given source, then
    an ne triangle y, z, w over closed {1, 2}, which has no solution
    whatever a is."""
    eng = Engine()
    da = eng.new_iset([0], open=open, name="da")
    if source is not None:
        eng.register_source(da, source)
    eng.new_fd_variable(da, name="a")
    dom = eng.new_iset([1, 2], open=False, name="d")
    y, z, w = (eng.new_fd_variable(dom, name=n) for n in "yzw")
    for p, q in ((y, z), (z, w), (y, w)):
        eng.post_fd_constraint("ne", [p, q])
    return eng


def raising_verifier():
    # The verifier raises while y is revised after x = 1 is bound.
    eng = Engine()
    x = eng.new_fd_variable(eng.new_iset([1, 2], open=False, name="dx"), name="x")
    y = eng.new_fd_variable(eng.new_iset([1, 2], open=False, name="dy"), name="y")
    bound = []

    def ne(values):
        if bound:
            raise Armed
        return values[0] != values[1]

    eng.post_fd_constraint("ne", [x, y], ne)
    eng._bind = lambda var, value, bind=eng._bind: bound.append(var) or bind(var, value)
    return eng


@pytest.mark.parametrize("build, raised, to_start", [
    # a = 0 fails and is restored, and so does the node's acquisition,
    # exhaustion, which the trail still holds when the search gives up.
    (lambda: before_a_triangle(ScriptedSource([])), None, 2),
    # a = 0 fails and is restored, and the trail holds nothing.
    (lambda: before_a_triangle(open=False), None, 1),
    (raising_verifier, Armed, 1),
    # a = 0 fails and is restored; the node's first acquisition then
    # raises, before the trail holds anything.
    (lambda: before_a_triangle(RaisingSource()), Armed, 1),
], ids=["no solution, acquired", "no solution, closed", "raising verifier",
        "raising source"])
def test_label_restores_to_the_start_once_and_only_a_trail_that_holds_a_record(
        build, raised, to_start):
    # The first node restores each failed try to mark 0 itself. When the
    # search finds no solution or raises, label() restores to mark 0 once
    # more if the trail holds a record, and not at all if it holds
    # nothing. Either way no restore finds the trail empty, and the engine
    # is left as the search found it.
    eng = build()
    assert eng.solve() is True
    before = engine_state(eng)
    restores = recorded_restores(eng)
    if raised is None:
        assert eng.label() is None
    else:
        with pytest.raises(raised):
            eng.label()
    assert [mark for mark, _records in restores if mark == 0] == [0] * to_start
    assert all(records for _mark, records in restores)
    assert eng.isets.trail is None
    assert engine_state(eng) == before
    assert pair_place_errors(eng) == []


def test_label_after_an_interrupted_solve_finishes_propagation_first():
    # The verifier raises once while solve() checks x=1 against y=2, which
    # leaves that check unfinished. label() must finish it before it
    # searches: searching the half-checked state returns None.
    eng = Engine()
    x = eng.new_fd_variable(eng.new_iset([1, 2, 3], open=False, name="dx"), name="x")
    y = eng.new_fd_variable(eng.new_iset([1, 2, 3], open=False, name="dy"), name="y")
    armed = [True]

    def flaky_lt(values):
        if armed and values == [1, 2]:
            armed.clear()
            raise TypeError("flaky verifier")
        return values[0] < values[1]

    eng.post_fd_constraint("lt", [x, y], flaky_lt)
    with pytest.raises(TypeError):
        eng.solve()
    assert not armed
    assert eng.label() == {x: 1, y: 2}


def typed_replies():
    """x over open {1} fed by typed input 5, 6, 7, and g over {0, 1}
    gating an ne triangle y, z, w over {1, 2}, labelled in that order.
    Under g = 0 the triangle has no solution, so x's values 1, 5, 6 and 7
    each fail there and x's input runs out. Backtracking out of g = 0
    undoes those acquisitions but keeps their replies: g = 1 succeeds with
    x = 1. Returns the engine after label(), its prompt stream, dx and x."""
    eng = Engine()
    g = eng.new_fd_variable(eng.new_iset([0, 1], open=False, name="dg"), name="g")
    dx = eng.new_iset([1], name="dx")
    prompts = io.StringIO()
    eng.register_source(dx, InteractiveSource("dx", io.StringIO("5\n6\n7\n"), prompts))
    x = eng.new_fd_variable(dx, name="x")
    dom = eng.new_iset([1, 2], open=False, name="d")
    y, z, w = (eng.new_fd_variable(dom, name=n) for n in "yzw")
    gate = lambda t: t[0] == 1 or t[1] != t[2]
    for p, q in ((y, z), (z, w), (y, w)):
        eng.post_fd_constraint("gate", [g, p, q], gate)
    assert eng.solve() is True
    solution = eng.label([g, x, y, z, w])
    assert solution[g] == 1 and solution[x] == 1
    return eng, prompts, dx, x


def test_label_reads_each_typed_reply_once():
    # The next acquire for x replays 5 without prompting again.
    eng, prompts, dx, x = typed_replies()
    assert [e for _iset, _var, e in eng.acquisitions] == [5, 6, 7, None]
    assert prompts.getvalue().count("acquire dx") == 4  # once per reply
    assert eng.isets.known(dx) == {1} and not eng.isets.is_closed(dx)
    assert eng.acquire(dx, requesting_var=x) == 5
    assert prompts.getvalue().count("acquire dx") == 4
    assert eng.isets.known(dx) == {1, 5}


def test_a_replayed_reply_known_by_another_route_is_dropped():
    # 5 waits for replay when it enters dx by another route. The replay
    # drops it instead of blaming the source for a repeat, and replays 6.
    eng, prompts, dx, x = typed_replies()
    eng.isets.ensure_member(dx, 5)
    assert eng.acquire(dx, requesting_var=x) == 6
    assert prompts.getvalue().count("acquire dx") == 4
    assert eng.isets.known(dx) == {1, 5, 6}
    assert [e for _iset, _var, e in eng.acquisitions][4:] == [6]


def test_a_value_bound_by_label_discards_later_arrivals():
    # After label() binds x to 1, 7 enters x's open domain. solve() moves
    # it to removed under the search transitions and stays consistent.
    eng = LoggedEngine()
    dx = eng.new_iset([1, 2], name="dx")
    dy = eng.new_iset([1, 2], open=False, name="dy")
    x = eng.new_fd_variable(dx, name="x")
    y = eng.new_fd_variable(dy, name="y")
    eng.post_fd_constraint("ne", [x, y])
    assert eng.label() == {x: 1, y: 2}
    eng.isets.ensure_member(dx, 7)
    assert eng.solve() is True
    assert eng.present(x) == [1] and eng.removed(x) == [2, 7]
    assert eng.transitions[-1] == (x, 7, PairState.CANDIDATE, PairState.REMOVED, "search")
    assert pair_place_errors(eng) == []


def test_an_acquisition_at_an_exhausted_node_that_contradicts_is_undone():
    # v's values 1 and 2 each fail, since z must both equal and differ
    # from v, so the node for v acquires. The reply 3 cannot enter de, the
    # closed superset of v's domain, and the node fails; for x=2 the reply
    # is replayed, not asked for again, and fails the same way.
    eng = Engine()
    dx = eng.new_iset([1, 2], open=False, name="dx")
    dv = eng.new_iset([1, 2], name="dv")
    de = eng.new_iset([1, 2, 4], open=False, name="de")
    dz = eng.new_iset([1, 2], open=False, name="dz")
    calls = []
    source = ScriptedSource([3])
    served = source.next
    source.next = lambda iset, ctx: calls.append(iset) or served(iset, ctx)
    eng.register_source(dv, source)
    eng.post_iset_constraint(Inclusion(dv, de))
    x = eng.new_fd_variable(dx, name="x")
    v = eng.new_fd_variable(dv, name="v")
    z = eng.new_fd_variable(dz, name="z")
    eng.post_fd_constraint("eq", [v, z])
    eng.post_fd_constraint("ne", [v, z])
    assert eng.solve() is True
    before = engine_state(eng)
    assert eng.label([x, v, z]) is None
    assert engine_state(eng) == before
    assert eng.isets.trail is None
    assert calls == [dv]
    assert eng.acquisitions == [(dv, v, 3), (dv, v, 3)]


@pytest.mark.xfail(strict=True, reason=(
    "CHANGES.md FOUND on _find_or_acquire: during label() a seek whose other "
    "variable is bound keeps acquiring into that variable's open domain"))
def test_no_seek_acquisition_targets_a_bound_variable():
    # random_open_engine seed 8, the first of 7 seeds in 0-1999 that show it.
    eng = Engine()
    d0 = eng.new_iset([4], name="d0")
    eng.register_source(d0, ScriptedSource([2]))
    d1 = eng.new_iset([2, 4], name="d1")
    eng.register_source(d1, ScriptedSource([1, 5, 3]))
    x0 = eng.new_fd_variable(d0, name="x0")
    x1 = eng.new_fd_variable(d1, name="x1")
    for name, args in (("ge", [x1, x0]), ("ge", [x0, x1]), ("eq", [x1, x0]),
                       ("ne", [x0, x1])):
        eng.post_fd_constraint(name, args)
    assert eng.solve() is True
    assert eng.present(x0) == eng.present(x1) == [4, 2]
    bound_seeks = []
    acquire = eng.acquire

    def spy(iset, *, requesting_var=None, requesting_constraint=None):
        if (requesting_constraint is not None
                and eng.variable(requesting_var).bound_to is not None):
            bound_seeks.append((iset, requesting_var, requesting_constraint))
        return acquire(iset, requesting_var=requesting_var,
                       requesting_constraint=requesting_constraint)

    eng.acquire = spy
    assert eng.label([x0, x1]) is None
    assert bound_seeks == []


@pytest.mark.xfail(strict=True, reason=(
    "CHANGES.md FOUND on _revise: search's revise removes a value that no "
    "present value supports while another domain of the constraint is open"))
def test_label_finds_a_solution_that_needs_an_element_not_yet_acquired():
    # (x, u, w) = (1, 3, 3) is a solution, but u's 3 is not acquired yet.
    # After x = 1, revise removes w's 3, which no present value of u
    # supports, though u is unbound over an open domain; w, closed, wipes
    # out, x = 5 fails the same way, and u's 3 is never acquired.
    eng = Engine()
    x = eng.new_fd_variable(eng.new_iset([1, 5], open=False, name="dx"), name="x")
    du = eng.new_iset(name="du")
    eng.register_source(du, ScriptedSource([4, 2, 3]))
    u = eng.new_fd_variable(du, name="u")
    w = eng.new_fd_variable(eng.new_iset([9, 3], open=False, name="dw"), name="w")
    for args, table in (([x, u], {(1, 4), (5, 2), (1, 3)}),
                        ([u, w], {(4, 9), (2, 3), (3, 3)}),
                        ([x, w], {(1, 3), (5, 9)})):
        eng.post_fd_constraint("table", args, lambda t, table=table: tuple(t) in table)
    assert eng.solve() is True
    assert [eng.present(v) for v in (x, u, w)] == [[1, 5], [4, 2], [9, 3]]
    assert eng.label([x, u, w]) == {x: 1, u: 3, w: 3}
