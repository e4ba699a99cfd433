"""Unit tests for the iset store: primitives, events, and the per-kind
propagation rules. An event is a pair: (iset, element) for an insertion,
(iset, None) for a closure."""

import random

import pytest

from icsp import (
    AcquisitionContext,
    AcquisitionSource,
    Engine,
    Inconsistency,
    IsetStore,
    RangeSource,
    ScriptedSource,
    SourceContractError,
)
from icsp.isets import (
    Difference,
    Inclusion,
    Intersection,
    IsetConstraint,
    Member,
    Union,
    parse_element,
)

from instances import engine_state, intersection_store, random_algebra_instance


# ----------------------------------------------------------------------
# creation and primitives

def test_new_iset_empty_open():
    store = IsetStore()
    s = store.new_iset()
    assert store.known(s) == set()
    assert not store.is_closed(s)


def test_new_iset_known_part_open():
    store = IsetStore()
    s = store.new_iset([1, 2, 3, 4])
    assert store.known(s) == {1, 2, 3, 4}
    assert not store.is_closed(s)


def test_new_iset_dedup_and_closed():
    store = IsetStore()
    s = store.new_iset([1, 2, 2, 3, 4], open=False)
    assert store.known(s) == {1, 2, 3, 4}
    assert store.is_closed(s)
    # one insertion event per distinct element, plus one closure
    assert list(store.queue) == [(s, 1), (s, 2), (s, 3), (s, 4), (s, None)]


def test_new_iset_reads_a_one_shot_iterator_once():
    store = IsetStore()
    s = store.new_iset(iter([1, 2]))
    assert store.known(s) == {1, 2}
    with pytest.raises(ValueError, match="not an element: None"):
        store.new_iset(iter([3, None]))
    assert list(store.queue) == [(s, 1), (s, 2)]
    assert store.new_iset() == s + 1  # the rejected iset was never created


def test_ensure_member_inserts():
    store = IsetStore()
    s = store.new_iset([4])
    assert store.ensure_member(s, 5) is True
    assert store.known(s) == {4, 5}


def test_ensure_member_idempotent():
    store = IsetStore()
    s = store.new_iset([4])
    assert store.ensure_member(s, 4) is False
    assert store.known(s) == {4}


def test_ensure_member_closed_fails():
    store = IsetStore()
    s = store.new_iset([2], open=False)
    with pytest.raises(Inconsistency):
        store.ensure_member(s, 7)


def test_close_is_idempotent():
    store = IsetStore()
    s = store.new_iset([1, 2])
    assert store.close(s) is True
    assert store.is_closed(s)
    assert store.known(s) == {1, 2}
    assert store.close(s) is False
    assert list(store.queue) == [(s, 1), (s, 2), (s, None)]  # one closure


def test_known_returns_snapshot():
    store = IsetStore()
    s = store.new_iset([2, 4])
    snap = store.known(s)
    snap.add(99)
    assert store.known(s) == {2, 4}


def test_is_closed():
    store = IsetStore()
    assert not store.is_closed(store.new_iset())
    assert store.is_closed(store.new_iset([1], open=False))
    s = store.new_iset()
    store.close(s)
    assert store.is_closed(s)


def test_unknown_iset_rejected():
    store = IsetStore()
    with pytest.raises(ValueError):
        store.ensure_member(3, 1)
    with pytest.raises(ValueError):
        store.post(Inclusion(0, 1))


@pytest.mark.parametrize("make", [
    lambda bad, s: Member(1, bad),
    lambda bad, s: Inclusion(bad, s), lambda bad, s: Inclusion(s, bad),
    *(lambda bad, s, kind=kind, at=at: kind(*(bad if i == at else s for i in range(3)))
      for kind in (Union, Intersection, Difference) for at in range(3)),
])
@pytest.mark.parametrize("bad", [-1, "s0"])
def test_post_rejects_an_unknown_id_in_any_argument_and_records_nothing(make, bad):
    store = IsetStore()
    s = store.new_iset([1, 2])
    store.fixpoint()
    with pytest.raises(ValueError):
        store.post(make(bad, s))
    assert store._on_inserted == [[]] and store._on_closed == [[]]
    assert not store.queue and store.known_in_order(s) == [1, 2]
    assert store.trace == [("INSERT", "s0", 1), ("INSERT", "s0", 2)]


class Replies(AcquisitionSource):
    """Replies the same value to every call."""

    def __init__(self, reply):
        self.reply = reply

    def next(self, iset, ctx):
        return self.reply


def test_parse_element_reads_ascii_integers_and_atoms():
    assert [parse_element(t) for t in ("7", " -12 ", "007", "blue", "e1")] == \
        [7, -12, 7, "blue", "e1"]
    for text in ("\u0663", "\uff11\uff12", "+1", "1_0", "1.0", "Abc", "a b", ""):
        with pytest.raises(ValueError, match="not an element"):
            parse_element(text)


# Each route by which an element enters a set, as (error, call), on the
# engine of test_none_is_not_an_element: iset 0 = s, iset 1 = t with a
# source that replies bad, variable 0 over s.
ELEMENT_ROUTES = {
    "new_iset": (ValueError, lambda eng, bad: eng.new_iset([2, bad])),
    "ensure_member": (ValueError, lambda eng, bad: eng.isets.ensure_member(0, bad)),
    "Member": (ValueError, lambda eng, bad: eng.post_iset_constraint(Member(bad, 0))),
    "source reply": (SourceContractError, lambda eng, bad: eng.acquire(1)),
}
NOT_ELEMENTS = [None, True, False, 1.0, 2.5, (1,), "Abc", "a b", [1]]


@pytest.mark.parametrize("route, bad", [
    (route, bad) for route in ELEMENT_ROUTES for bad in NOT_ELEMENTS
    if not (route == "source reply" and bad is None)  # a None reply is exhaustion
], ids=repr)
def test_none_is_not_an_element(route, bad):
    # An event (iset, None) marks a closure, so None never enters a set; nor
    # does anything else that parse_element cannot yield, a bool equal to a
    # known int included. Every route checks before it changes anything.
    eng = Engine()
    s = eng.new_iset([1], name="s")
    t = eng.new_iset(name="t")
    eng.register_source(t, Replies(bad))
    eng.new_fd_variable(s, name="x")
    assert eng.solve() is True
    error, call = ELEMENT_ROUTES[route]
    before = boundary_snapshot(eng)
    with pytest.raises(error):
        call(eng, bad)
    assert boundary_snapshot(eng) == before


# ----------------------------------------------------------------------
# posting and its replay of history

def test_member_posts_immediately():
    store = IsetStore()
    s = store.new_iset()
    store.post(Member(5, s))
    assert store.known(s) == {5}


def test_post_intersection_already_satisfied():
    store, dx, dy, dz = intersection_store()
    # 4 was everywhere already: no extra insertions happened
    assert store.known(dx) == {2, 4}
    assert store.known(dy) == {3, 4}
    assert store.known(dz) == {4}


def test_post_inclusion_into_closed_empty_fails():
    store = IsetStore()
    a = store.new_iset([1])
    b = store.new_iset([], open=False)
    with pytest.raises(Inconsistency):
        store.post(Inclusion(a, b))


def test_posting_after_insertions_replays_history():
    # same final state whether the constraint is posted before or after
    # the insertions it must react to
    final = []
    for post_first in (True, False):
        store = IsetStore()
        a = store.new_iset()
        b = store.new_iset()
        if post_first:
            store.post(Inclusion(a, b))
            store.ensure_member(a, 1)
            store.ensure_member(a, 2)
        else:
            store.ensure_member(a, 1)
            store.ensure_member(a, 2)
            store.post(Inclusion(a, b))
        store.fixpoint()
        final.append((store.known(a), store.known(b)))
    assert final[0] == final[1] == ({1, 2}, {1, 2})


# ----------------------------------------------------------------------
# propagation rules

def test_intersection_right_to_left():
    store, dx, dy, dz = intersection_store()
    store.ensure_member(dz, 5)
    drained = store.fixpoint()
    assert store.known(dx) == {2, 4, 5}
    assert store.known(dy) == {3, 4, 5}
    assert drained == [(dz, 5), (dx, 5), (dy, 5)]


def test_intersection_left_to_right_when_in_both():
    store, dx, dy, dz = intersection_store()
    store.ensure_member(dz, 3)
    store.fixpoint()
    assert store.known(dx) == {2, 3, 4}
    assert store.known(dy) == {3, 4}  # 3 was already there
    store2, dx2, dy2, dz2 = intersection_store()
    store2.ensure_member(dx2, 3)
    store2.fixpoint()
    assert store2.known(dz2) == {3, 4}


def test_intersection_no_inference():
    store, dx, dy, dz = intersection_store()
    store.ensure_member(dx, 1)
    store.fixpoint()
    assert store.known(dy) == {3, 4}
    assert store.known(dz) == {4}


def test_intersection_closure_completes_result():
    store = IsetStore()
    a = store.new_iset([1, 2, 3])
    b = store.new_iset([2, 3, 9])
    c = store.new_iset()
    store.post(Intersection(a, b, c))
    store.close(a)
    store.close(b)
    store.fixpoint()
    assert store.known(c) == {2, 3}
    assert store.is_closed(c)


def test_inclusion_forward():
    store = IsetStore()
    a = store.new_iset()
    b = store.new_iset()
    store.post(Inclusion(a, b))
    store.ensure_member(a, 7)
    store.fixpoint()
    assert store.known(b) == {7}


def test_inclusion_gets_no_call_for_superset_insertions():
    # a ⊆ b acts on insertions into a and on the closure of b only, so
    # neither the replay at posting nor the fixpoint calls it for the rest.
    store = IsetStore()
    a = store.new_iset([1])
    b = store.new_iset([1, 2])
    store.fixpoint()
    inclusion = Inclusion(a, b)
    calls = []
    inclusion.on_inserted = lambda store, iset, element: calls.append(("ins", iset, element))
    inclusion.on_closed = lambda store, iset: calls.append(("close", iset))
    store.post(inclusion)
    store.ensure_member(b, 3)
    store.close(a)
    store.fixpoint()
    assert calls == [("ins", a, 1)]
    store.close(b)
    store.fixpoint()
    assert calls == [("ins", a, 1), ("close", b)]


def test_inclusion_closure_rule():
    # superset closed with equal known parts closes the subset
    store = IsetStore()
    a = store.new_iset([1, 2])
    b = store.new_iset([1, 2], open=False)
    store.post(Inclusion(a, b))
    store.fixpoint()
    assert store.is_closed(a)


def test_inclusion_closure_rule_fires_on_late_insert():
    store = IsetStore()
    a = store.new_iset([1])
    b = store.new_iset([1, 2], open=False)
    store.post(Inclusion(a, b))
    store.fixpoint()
    assert not store.is_closed(a)
    store.ensure_member(a, 2)
    store.fixpoint()
    assert store.is_closed(a)


def test_inclusion_insert_into_subset_of_closed_superset_fails():
    store = IsetStore()
    a = store.new_iset()
    b = store.new_iset([2], open=False)
    store.post(Inclusion(a, b))
    store.ensure_member(a, 1)
    with pytest.raises(Inconsistency):
        store.fixpoint()


def test_union_forward():
    store = IsetStore()
    a = store.new_iset([1])
    b = store.new_iset([2])
    c = store.new_iset()
    store.post(Union(a, b, c))
    store.fixpoint()
    assert store.known(c) == {1, 2}


def test_union_result_insert_with_one_side_closed():
    store = IsetStore()
    a = store.new_iset([1], open=False)
    b = store.new_iset()
    c = store.new_iset()
    store.post(Union(a, b, c))
    store.fixpoint()
    store.ensure_member(c, 5)
    store.fixpoint()
    assert store.known(b) == {5}  # a is closed without 5: forced into b


def test_union_pending_obligation_settles_on_closure():
    store = IsetStore()
    a = store.new_iset()
    b = store.new_iset()
    c = store.new_iset()
    store.post(Union(a, b, c))
    store.ensure_member(c, 5)
    store.fixpoint()
    # both sides open: no placement decision yet
    assert 5 not in store.known(a) and 5 not in store.known(b)
    store.close(a)
    store.fixpoint()
    assert store.known(b) == {5}


def test_union_both_closed_completes_and_checks():
    store = IsetStore()
    a = store.new_iset([1], open=False)
    b = store.new_iset([2], open=False)
    c = store.new_iset()
    store.post(Union(a, b, c))
    store.fixpoint()
    assert store.known(c) == {1, 2}
    assert store.is_closed(c)

    store = IsetStore()
    a = store.new_iset([1], open=False)
    b = store.new_iset([2], open=False)
    c = store.new_iset([7], open=True)
    with pytest.raises(Inconsistency):
        store.post(Union(a, b, c))  # 7 can be in neither side


@pytest.mark.parametrize("first, second", [(0, 1), (1, 0)])
def test_union_closure_completes_the_result_before_an_operand_insertion_leaves_the_queue(
        first, second):
    # The second operand's closure event reaches Union when both operands
    # are closed but the first one's insertion of 1 is still queued, so c
    # lacks 1: that closure must put it into c before it closes c.
    store = IsetStore()
    sets = [store.new_iset(name=n) for n in "abc"]
    store.post(Union(*sets))
    store.close(sets[second])
    store.ensure_member(sets[first], 1)
    store.close(sets[first])
    store.fixpoint()
    assert store.known(sets[2]) == {1} and store.is_closed(sets[2])


def test_intersection_closure_completes_the_result_before_an_operand_insertion_leaves_the_queue():
    # Union puts 1 into a and closes a. b's closure event reaches
    # Intersection while a's insertion of 1 is still queued, so c lacks 1:
    # that closure must put it into c before it closes c.
    store = IsetStore()
    a, b, c, p, q = (store.new_iset(name=n) for n in "abcpq")
    store.post(Intersection(a, b, c))
    store.post(Union(p, q, a))
    store.ensure_member(b, 1)
    store.close(q)
    store.ensure_member(p, 1)
    store.close(p)
    store.close(b)
    store.fixpoint()
    assert store.known(c) == {1} and store.is_closed(c)


def test_difference_result_insert_flows_left_and_blocks_subtrahend():
    store = IsetStore()
    a = store.new_iset()
    b = store.new_iset()
    c = store.new_iset()
    store.post(Difference(a, b, c))
    store.ensure_member(c, 3)
    store.fixpoint()
    assert store.known(a) == {3}
    store.ensure_member(b, 3)
    with pytest.raises(Inconsistency):
        store.fixpoint()


def test_difference_subtrahend_conflict():
    store = IsetStore()
    a = store.new_iset()
    b = store.new_iset([3])
    c = store.new_iset()
    store.post(Difference(a, b, c))
    store.ensure_member(c, 3)
    with pytest.raises(Inconsistency):
        store.fixpoint()


def test_difference_defers_while_subtrahend_open():
    store = IsetStore()
    a = store.new_iset()
    b = store.new_iset()
    c = store.new_iset()
    store.post(Difference(a, b, c))
    store.ensure_member(a, 1)
    store.fixpoint()
    assert store.known(c) == set()  # 1 may yet show up in b
    store.close(b)
    store.fixpoint()
    assert store.known(c) == {1}
    store.ensure_member(a, 2)
    store.fixpoint()
    assert store.known(c) == {1, 2}  # b closed: flows immediately


def test_difference_both_closed_completes():
    store = IsetStore()
    a = store.new_iset([1, 2, 3], open=False)
    b = store.new_iset([2], open=False)
    c = store.new_iset()
    store.post(Difference(a, b, c))
    store.fixpoint()
    assert store.known(c) == {1, 3}
    assert store.is_closed(c)


# ----------------------------------------------------------------------
# store-wide invariants

def test_fixpoint_empty_queue():
    store = IsetStore()
    assert store.fixpoint() == []


def test_fixpoint_inclusion_failure_from_queue():
    store = IsetStore()
    a = store.new_iset()
    b = store.new_iset([2], open=False)
    store.fixpoint()
    store.post(Inclusion(a, b))
    store.ensure_member(a, 1)
    with pytest.raises(Inconsistency):
        store.fixpoint()


def test_insert_events_unique_per_pair():
    rng = random.Random(7)
    store = IsetStore()
    ids = [store.new_iset() for _ in range(3)]
    store.post(Union(ids[0], ids[1], ids[2]))
    store.post(Inclusion(ids[0], ids[2]))
    seen = []
    for _ in range(60):
        store.ensure_member(rng.choice(ids[:2]), rng.randint(1, 5))
        store.fixpoint()
    seen = [(t[1], t[2]) for t in store.trace if t[0] == "INSERT"]
    assert len(seen) == len(set(seen))


def test_known_monotone_and_frozen_after_close():
    store = IsetStore()
    s = store.new_iset([1])
    store.ensure_member(s, 2)
    assert store.known(s) == {1, 2}
    store.close(s)
    frozen = store.known(s)
    assert store.ensure_member(s, 1) is False  # still fine: already known
    assert store.known(s) == frozen


def test_closed_world_equivalence_smoke():
    rng = random.Random(20240811)
    for kind in ("member", "inclusion", "union", "intersection", "difference"):
        for _ in range(60):
            succeeded, expected, checks = random_algebra_instance(rng, kind)
            assert succeeded == expected
            assert checks


def test_repeated_argument_forms():
    # intersection(a, a, c) pins c to a
    store = IsetStore()
    a = store.new_iset([1, 2], open=False)
    c = store.new_iset()
    store.post(Intersection(a, a, c))
    store.fixpoint()
    assert store.known(c) == {1, 2} and store.is_closed(c)

    # union(a, b, a) makes b a subset of a
    store = IsetStore()
    a = store.new_iset()
    b = store.new_iset()
    store.post(Union(a, b, a))
    store.ensure_member(b, 7)
    store.fixpoint()
    assert 7 in store.known(a)

    # difference(a, b, a) forces a and b disjoint
    store = IsetStore()
    a = store.new_iset([1])
    b = store.new_iset()
    store.post(Difference(a, b, a))
    store.ensure_member(b, 1)
    with pytest.raises(Inconsistency):
        store.fixpoint()


# ----------------------------------------------------------------------
# ids are checked at the public boundary, records are used inside

def test_draining_resolves_no_ids():
    # Posting resolves every argument once; from then on the handlers work
    # on records, so the drain never looks an id up. The network has a
    # union holding a pending element when one operand closes, an
    # intersection, a difference, and an inclusion that closes its left
    # side.
    store = IsetStore()
    a = store.new_iset([1], name="a")
    b = store.new_iset([2], name="b")
    u = store.new_iset(name="u")
    y = store.new_iset([3, 4], open=False, name="y")
    i = store.new_iset(name="i")
    d = store.new_iset(name="d")
    union = Union(a, b, u)
    for constraint in (union, Intersection(u, y, i), Difference(y, a, d), Inclusion(d, y)):
        store.post(constraint)
    calls = []
    get = store._get
    store._get = lambda iset: calls.append(iset) or get(iset)

    def drain():
        before = len(calls)
        store.fixpoint()
        assert len(calls) == before

    drain()
    store.ensure_member(u, 7)
    store.ensure_member(b, 3)
    drain()
    assert union.pending == [7]
    assert store.known(i) == {3}
    store.close(a)
    drain()
    assert union.pending == []
    assert store.known_in_order(b) == [2, 3, 7]
    assert store.known_in_order(d) == [3, 4]
    assert store.is_closed(d)
    assert store.trace[-3:] == [("INSERT", "d", 3), ("INSERT", "d", 4), ("CLOSE", "d")]


BAD_IDS = [-1, 2, "x", 1.0, True, None]  # with two isets, 2 is past the end; True, None are no ids

BOUNDARY_CALLS = {
    "name_of": lambda eng, bad: eng.isets.name_of(bad),
    "known": lambda eng, bad: eng.isets.known(bad),
    "known_in_order": lambda eng, bad: eng.isets.known_in_order(bad),
    "is_closed": lambda eng, bad: eng.isets.is_closed(bad),
    "ensure_member": lambda eng, bad: eng.isets.ensure_member(bad, 9),
    "close": lambda eng, bad: eng.isets.close(bad),
    "post Member": lambda eng, bad: eng.isets.post(Member(9, bad)),
    "post Inclusion left": lambda eng, bad: eng.isets.post(Inclusion(bad, 0)),
    "post Inclusion right": lambda eng, bad: eng.isets.post(Inclusion(0, bad)),
    **{f"post {kind.__name__} arg {at}":
       lambda eng, bad, kind=kind, at=at: eng.isets.post(kind(*(bad if k == at else k % 2
                                                                 for k in range(3))))
       for kind in (Union, Intersection, Difference) for at in range(3)},
    "Engine.acquire": lambda eng, bad: eng.acquire(bad),
    "register_source": lambda eng, bad: eng.register_source(bad, ScriptedSource([9])),
    "new_fd_variable": lambda eng, bad: eng.new_fd_variable(bad),
}


def boundary_snapshot(eng):
    store = eng.isets
    return (engine_state(eng), list(store.queue), list(eng.trace), list(eng.acquisitions),
            [list(cs) for cs in store._on_inserted], [list(cs) for cs in store._on_closed],
            dict(eng._sources), len(eng.variables))


@pytest.mark.parametrize("call", BOUNDARY_CALLS.values(), ids=BOUNDARY_CALLS.keys())
@pytest.mark.parametrize("bad", BAD_IDS, ids=repr)
def test_every_public_id_taking_method_rejects_a_bad_id_and_changes_nothing(call, bad):
    eng = Engine()
    a = eng.new_iset([1], name="a")
    b = eng.new_iset([2], name="b")
    eng.register_source(a, ScriptedSource([5]))
    eng.post_iset_constraint(Union(a, b, a))
    eng.new_fd_variable(a, name="x")
    assert eng.solve() is True
    before = boundary_snapshot(eng)
    with pytest.raises(ValueError):
        call(eng, bad)
    assert boundary_snapshot(eng) == before


class Stray(IsetConstraint):
    ARITY, INSERTED = 1, (0, 1)  # position 1 names no argument


class Unnamed(IsetConstraint):
    ARITY, INSERTED = 1, (0,)

    def __init__(self, a):  # skips IsetConstraint.__init__, so keeps no isets
        self.a = a


@pytest.mark.parametrize("kind, error", [(Stray, IndexError), (Unnamed, AttributeError)])
def test_post_rejects_a_malformed_constraint_and_records_nothing(kind, error):
    store = IsetStore()
    a = store.new_iset([1])
    store.new_iset()
    constraint = kind(a)
    with pytest.raises(error):
        store.post(constraint)
    assert store._on_inserted == [[], []] and store._on_closed == [[], []]
    assert constraint.sets == ()


class Doubled(IsetConstraint):
    """{2x | x in a} ⊆ b, and b closes when a does: a set constraint written
    against the documented contract alone. It keeps its own list of the
    elements it forwarded, with an undo record for each addition."""

    ARITY, INSERTED, CLOSED = 2, (0,), (0,)

    def __init__(self, a, b):
        super().__init__(a, b)
        self.forwarded = []

    def on_inserted(self, store, iset, element):
        _, b = self.sets
        if element not in self.forwarded:
            self.forwarded.append(element)
            store.record(self.forwarded.pop)
        store._insert(b, 2 * element)

    def on_closed(self, store, iset):
        store._close(self.sets[1])


def test_a_custom_constraint_works_through_posting_replay_and_search():
    eng = Engine()
    a = eng.new_iset([1, 2], name="a")
    b = eng.new_iset(name="b")
    eng.register_source(a, ScriptedSource([3]))
    doubled = Doubled(a, b)
    eng.post_iset_constraint(doubled)  # posting replays a's history
    assert eng.isets.known_in_order(b) == [2, 4]
    assert doubled.forwarded == [1, 2]
    # Four pairwise different variables over a: propagation finds nothing to
    # remove, but search must acquire 3 and exhaust a, and then backtrack.
    xs = [eng.new_fd_variable(a, name=f"x{k}") for k in range(4)]
    seen = []

    def ne(values):
        seen.append(list(doubled.forwarded))
        return values[0] != values[1]

    for k, x in enumerate(xs):
        for z in xs[k + 1:]:
            eng.post_fd_constraint("ne", [x, z], verifier=ne)
    assert eng.solve() is True
    before = engine_state(eng)
    assert eng.label() is None
    assert [1, 2, 3] in seen  # search acquired 3, and it reached b doubled
    assert ("INSERT", "b", 6) in eng.trace and ("CLOSE", "b") in eng.trace
    assert engine_state(eng) == before
    assert doubled.forwarded == [1, 2]
    assert eng.isets.known_in_order(b) == [2, 4] and not eng.isets.is_closed(b)
    assert eng.isets.trail is None


@pytest.mark.parametrize("kind, message", [
    (Intersection, "s2 holds [7] outside s0 ∩ s1"),
    (Union, "s2 holds 7 outside s0 ∪ s1"),
])
def test_closing_both_operands_rejects_a_result_element_outside_them(kind, message):
    store = IsetStore()
    a = store.new_iset([1])
    b = store.new_iset([1, 2])
    c = store.new_iset()
    store.post(kind(a, b, c))
    store.fixpoint()
    store.close(a)
    store.close(b)
    store.ensure_member(c, 7)
    with pytest.raises(Inconsistency) as raised:
        store.fixpoint()
    assert str(raised.value) == message


def test_reprs_name_their_arguments_and_set_constraints_check_their_count():
    eng = Engine()
    x = eng.variable(eng.new_fd_variable(eng.new_iset([1]), name="x"))
    lt = eng.fd_constraint(eng.post_fd_constraint("lt", [x.id, x.id]))
    assert [repr(c) for c in (Member(5, 0), Member("blue", 2), Inclusion(0, 1),
                              Intersection(0, 1, 2), Union(3, 4, 5), Difference(2, 1, 0),
                              ScriptedSource([1, "a"]), RangeSource(2, 5), x, lt)] == [
        "Member(5, s0)", "Member('blue', s2)", "Inclusion(s0, s1)",
        "Intersection(s0, s1, s2)", "Union(s3, s4, s5)", "Difference(s2, s1, s0)",
        "ScriptedSource([1, 'a'])", "RangeSource(2..5)", "FdVariable(x)", "FdConstraint(lt/2)"]
    with pytest.raises(TypeError):
        Intersection(0, 1)
    with pytest.raises(TypeError):
        Inclusion(0, 1, 2)


class Silent(IsetConstraint):
    """Watches both events on its first iset and keeps the base handlers."""

    ARITY, INSERTED, CLOSED = 2, (0,), (0,)


def test_a_constraint_that_keeps_the_base_handlers_changes_nothing():
    store = IsetStore()
    a = store.new_iset([1])
    b = store.new_iset([2])
    store.post(Silent(a, b))
    store.ensure_member(a, 3)
    store.close(a)
    store.fixpoint()
    assert store.known_in_order(a) == [1, 3] and store.is_closed(a)
    assert store.known_in_order(b) == [2] and not store.is_closed(b)
    assert store.trace == [("INSERT", "s0", 1), ("INSERT", "s1", 2),
                           ("INSERT", "s0", 3), ("CLOSE", "s0")]


def test_the_base_source_has_no_next():
    with pytest.raises(NotImplementedError):
        AcquisitionSource().next(0, AcquisitionContext())


def test_posting_replays_the_watched_history_in_position_order():
    store = IsetStore()
    a = store.new_iset([1], open=False)
    b = store.new_iset([2])
    c = store.new_iset([2])
    store.post(Union(a, b, c))
    store.fixpoint()
    assert store.known_in_order(c) == [2, 1]
