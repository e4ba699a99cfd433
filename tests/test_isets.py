"""Unit tests for the iset store: primitives, events, and the per-kind
propagation rules. An event is a pair: (iset, element) for an insertion,
(iset, None) for a closure."""

import random

import pytest

from icsp import Inconsistency, IsetStore
from icsp.isets import (
    Difference,
    Inclusion,
    Intersection,
    Member,
    Union,
)

from instances import random_algebra_instance


def intersection_store():
    """The worked starting state: DX={2,4}, DY={3,4}, DZ={4}, all open."""
    store = IsetStore()
    dx = store.new_iset([2, 4], name="dx")
    dy = store.new_iset([3, 4], name="dy")
    dz = store.new_iset([4], name="dz")
    store.post(Intersection(dx, dy, dz))
    store.fixpoint()
    return store, dx, dy, dz


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


def test_none_is_not_an_element():
    # An event (iset, None) marks a closure, so None never enters a set.
    store = IsetStore()
    s = store.new_iset([1])
    with pytest.raises(ValueError):
        store.ensure_member(s, None)
    with pytest.raises(ValueError):
        store.new_iset([2, None])
    assert store.known(s) == {1} and len(store._isets) == 1
    assert list(store.queue) == [(s, 1)]


# ----------------------------------------------------------------------
# posting and retroactive activation

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
    # neither activation nor the fixpoint calls it for the rest.
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
