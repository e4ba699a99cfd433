"""The undo trail restores exactly what a full copy would.

Every snapshot label() takes is checked against instances.engine_state, the
full copy of the engine that search used to take at each node: after each
restore the state must equal the copy taken at the matching snapshot.
"""

import contextlib
import random
from collections import Counter

import pytest

from icsp import Engine, Inclusion, Inconsistency, IsetStore, Member, ScriptedSource, Union
from icsp.oracle import build_engine

from instances import (
    ISETC_CLASSES,
    engine_kac_holds,
    engine_state,
    pair_place_errors,
    random_closed_csp,
    random_iset_instance,
    random_nary_closed_csp,
    random_open_engine,
)


PARTS = ("variables", "isets", "pending", "sources")  # engine_state's parts


class UndoAudit:
    """Wraps an engine's _snapshot/_restore. Each snapshot saves a full
    copy of the state under its mark; each restore compares the state it
    leaves with the copy saved at that mark, and counts in undone which
    parts of the state it had to change. Snapshots a successful branch
    abandons are dropped when an older mark is restored."""

    def __init__(self, engine):
        self.saved = []  # (mark, state), oldest first
        self.undone: Counter = Counter()
        self.errors = []
        snapshot, restore = engine._snapshot, engine._restore

        def audited_snapshot():
            mark = snapshot()
            self.saved.append((mark, engine_state(engine)))
            return mark

        def audited_restore(mark):
            before = engine_state(engine)
            restore(mark)
            while self.saved[-1][0] > mark:
                self.saved.pop()
            saved_mark, state = self.saved.pop()
            self.undone.update(part for part, was, now in zip(PARTS, before, state)
                               if was != now)
            if saved_mark != mark:
                self.errors.append(f"restored mark {mark}, innermost is {saved_mark}")
            elif engine_state(engine) != state:
                self.errors.append(f"restore to mark {mark} left a different state")

        engine._snapshot = audited_snapshot
        engine._restore = audited_restore


def label_audited(engine, variables=None):
    audit = UndoAudit(engine)
    result = engine.label(variables)
    assert audit.errors == []
    assert engine.isets.trail is None
    assert pair_place_errors(engine) == []
    return result, audit


def test_a_snapshot_with_an_event_still_queued_is_refused():
    engine = Engine()
    iset = engine.new_iset([1])
    engine.isets.ensure_member(iset, 2)  # queued, not drained
    with pytest.raises(AssertionError, match="quiescent"):
        engine._snapshot()


def test_a_restore_drops_the_set_events_a_contradiction_left_queued():
    # Binding y to 1 leaves x only 2, which z = 2 contradicts, so x's open
    # domain da acquires 4. The first inclusion queues 4 for db, then the
    # second finds 4 outside the closed dc. The restore must drop the
    # queued insertion, or the snapshot for y = 2 finds the engine busy.
    engine = Engine()
    da = engine.new_iset([1, 2], name="da")
    engine.register_source(da, ScriptedSource([4]))
    db = engine.new_iset(name="db")
    engine.post_iset_constraint(Inclusion(da, db))
    dc = engine.new_iset([1, 2, 3], open=False, name="dc")
    engine.post_iset_constraint(Inclusion(da, dc))
    dyz = engine.new_iset([1, 2], open=False, name="dyz")
    x, y, z = (engine.new_fd_variable(d, name=n) for d, n in ((da, "x"), (dyz, "y"), (dyz, "z")))
    for p, q in ((x, y), (y, z), (x, z)):
        engine.post_fd_constraint("ne", [p, q])
    assert engine.solve() is True
    assert label_audited(engine, [y, x, z])[0] is None
    assert engine.isets.known(db) == {1, 2} and list(engine._replays[da]) == [4]


def test_a_restore_drops_the_insertions_a_contradiction_left_drained():
    # The insertion of 1 into a is drained and passes 1 on to b, whose own
    # event then finds 1 outside the closed c. Undoing the insertions must
    # drop the drained one too, or the next fixpoint hands it over.
    store = IsetStore()
    a, b, c = store.new_iset(), store.new_iset(), store.new_iset([2], open=False)
    store.post(Inclusion(a, b))
    store.post(Inclusion(b, c))
    store.trail = []
    store.ensure_member(a, 1)
    with pytest.raises(Inconsistency):
        store.fixpoint()
    store.set_state(0)
    assert store.known(a) == set() and store.fixpoint() == []


def test_solve_keeps_no_replay_queue():
    # Only search undoes an acquisition, so only search needs a queue.
    engine = Engine()
    ids = []
    for i in range(4):
        iset = engine.new_iset([0], name=f"d{i}")
        engine.register_source(iset, ScriptedSource(range(1, 6)))
        ids.append(engine.new_fd_variable(iset, name=f"x{i}"))
    for a, b in zip(ids, ids[1:]):
        engine.post_fd_constraint("lt", [a, b])
    assert engine.solve() is True
    assert len(engine.acquisitions) > 4
    assert engine._replays == {}


def test_restores_are_exact_on_random_closed_csps():
    undone: Counter = Counter()
    for seed in range(400):
        rng = random.Random(700_000 + seed)
        csp = random_nary_closed_csp(rng) if seed % 2 else random_closed_csp(rng)
        engine, _ids = build_engine(csp)
        if not engine.solve():
            continue
        before = engine_state(engine)
        result, audit = label_audited(engine)
        undone += audit.undone
        if result is None:
            assert engine_state(engine) == before, f"seed {seed}"
    assert undone["variables"] > 50


def test_restores_are_exact_when_label_acquires():
    # Few random open instances acquire during label(); two thousand hold
    # enough restores that undo an acquisition and shrink a set.
    undone: Counter = Counter()
    for seed in range(2000):
        engine, var_ids = random_open_engine(random.Random(800_000 + seed))
        if not engine.solve():
            continue
        result, audit = label_audited(engine, var_ids)
        undone += audit.undone
        if result is not None:
            assert engine_kac_holds(engine)
    assert undone["sources"] >= 10 and undone["isets"] >= 10


def test_restores_undo_union_pending_edits_made_in_search():
    # x ranges over c = a ∪ b and u over a, with a, b and c open, so an
    # element acquired into c is pending on the union until a closes. g is
    # labelled first; under g = 0 the gated triangle y, z, w has no
    # solution, so every branch below fails: u exhausts a's source, which
    # closes a and settles the pending elements into b, and x acquires 5
    # and 6 into c, which go straight to b, until c's source is exhausted
    # too. Restoring g's node must reopen a and c, empty b and put the
    # pending list back. g = 1 then succeeds with x's first value.
    engine = Engine()
    g = engine.new_fd_variable(engine.new_iset([0, 1], open=False, name="dg"), name="g")
    a, b = engine.new_iset([3], name="a"), engine.new_iset(name="b")
    c = engine.new_iset([1], name="c")
    union = Union(a, b, c)
    engine.post_iset_constraint(union)
    engine.register_source(a, ScriptedSource([]))
    engine.register_source(c, ScriptedSource([5, 6]))
    x = engine.new_fd_variable(c, name="x")
    u = engine.new_fd_variable(a, name="u")
    dom = engine.new_iset([1, 2], open=False, name="d")
    y, z, w = (engine.new_fd_variable(dom, name=n) for n in "yzw")
    gate = lambda t: t[0] == 1 or t[1] != t[2]
    for p, q in ((y, z), (z, w), (y, w)):
        engine.post_fd_constraint("gate", [g, p, q], gate)
    assert engine.solve() is True
    assert union.pending == [1]
    solution, audit = label_audited(engine, [g, x, u, y, z, w])
    assert solution[g] == 1 and solution[x] == 1
    assert audit.undone["pending"] > 0
    assert [e for iset, _var, e in engine.acquisitions if iset == c] == [5, 6, None]
    assert union.pending == [1]
    assert engine.isets.known(a) == {3} and engine.isets.known(b) == set()
    assert engine.isets.known(c) == {1, 3}
    assert not (engine.isets.is_closed(a) or engine.isets.is_closed(c))


def test_an_exhausted_label_restores_its_entry_state():
    # The search acquires 3 and then exhaustion into d0 for its first
    # variable and still finds no solution. It undoes both: d0 is back to
    # what solve() left, open, and the two replies wait for replay, so a
    # second label() asks no source and ends in the same state.
    engine, var_ids = random_open_engine(random.Random(900_525))
    assert engine.solve() is True
    before = engine_state(engine)
    result, audit = label_audited(engine, var_ids)
    assert result is None
    assert engine_state(engine) == before
    assert engine.isets.known(0) == {1, 2, 4, 5} and not engine.isets.is_closed(0)
    assert list(engine._replays[0]) == [3, None]
    calls = [s.calls_served() for s in engine._sources.values()]
    assert label_audited(engine, var_ids)[0] is None
    assert engine_state(engine) == before
    assert [s.calls_served() for s in engine._sources.values()] == calls


class Armed(Exception):
    """What an armed verifier, source or set handler raises."""


def count_calls(engine, kind, tally):
    """Wrap every verifier (kind "verify"), every source (kind "source") or
    every set constraint's two handlers (kind "handler") of the engine:
    each call adds one to tally["calls"], and the call whose number is
    tally["raise_at"] raises Armed instead of answering."""
    def wrap(call):
        def counted(*args):
            tally["calls"] += 1
            if tally["calls"] == tally["raise_at"]:
                raise Armed
            return call(*args)
        return counted

    if kind == "verify":
        for constraint in engine.fd_constraints():
            constraint.verify = wrap(constraint.verify)
    elif kind == "source":
        for source in engine._sources.values():
            source.next = wrap(source.next)
    else:
        store = engine.isets
        for constraint in {id(c): c for watching in store._on_inserted + store._on_closed
                           for c in watching}.values():
            constraint.on_inserted = wrap(constraint.on_inserted)
            constraint.on_closed = wrap(constraint.on_closed)


def sets_of(engine):
    """Each iset's known part and whether it is closed."""
    store = engine.isets
    return [(store.known(i), store.is_closed(i)) for i in range(len(store._isets))]


def open_instance(seed):
    return random_open_engine(random.Random(900_000 + seed))


def nary_instance(seed):
    engine, ids = build_engine(random_nary_closed_csp(random.Random(900_000 + seed)))
    return engine, list(ids.values())


@pytest.mark.parametrize("build, kind, seeds, least", [
    (nary_instance, "verify", 200, 100),
    (open_instance, "verify", 400, 150),
    (open_instance, "source", 2000, 15),  # few open instances acquire in label()
])
def test_an_exception_inside_label_restores_its_entry_state(build, kind, seeds, least):
    # Each instance is built twice. One copy is labelled untouched, counting
    # the calls label() makes; in the other the k-th such call raises. The raise
    # must leave the twin as label() found it, through the one restore to
    # the first node's mark, and a second label() must then give what the
    # untouched run gave. Replies the failed run acquired wait for replay,
    # so over both runs the twin asks its sources once more than the
    # untouched run: for the call that raised.
    raised = 0
    for seed in range(seeds):
        reference, var_ids = build(seed)
        tally: Counter = Counter()
        count_calls(reference, kind, tally)
        if not reference.solve():
            continue
        tally.clear()
        expected = reference.label(var_ids)
        if not tally["calls"]:
            continue
        engine, var_ids = build(seed)
        armed: Counter = Counter()
        count_calls(engine, kind, armed)
        assert engine.solve() is True
        armed.clear()
        armed["raise_at"] = random.Random(seed).randint(1, tally["calls"])
        before = engine_state(engine)
        audit = UndoAudit(engine)
        with pytest.raises(Armed):
            engine.label(var_ids)
        assert audit.errors == [], f"seed {seed}"
        assert engine.isets.trail is None
        assert engine_state(engine) == before, f"seed {seed}"
        # Even a raise in the middle of a check leaves no pair under check.
        assert all(not v.observed for v in engine.variables), f"seed {seed}"
        assert pair_place_errors(engine) == []
        assert engine.label(var_ids) == expected, f"seed {seed}"
        assert engine_state(engine) == engine_state(reference), f"seed {seed}"
        if kind == "source":
            assert armed["calls"] == tally["calls"] + 1, f"seed {seed}"
        raised += 1
    assert raised >= least


def closed_instance(seed):
    engine, ids = build_engine(random_closed_csp(random.Random(seed)))
    return engine, list(ids.values())


def nary_closed_instance(seed):
    engine, ids = build_engine(random_nary_closed_csp(random.Random(seed)))
    return engine, list(ids.values())


def open_engine(seed):
    return random_open_engine(random.Random(seed))


def iset_engine(seed):
    """random_iset_instance(seed) as an engine with one variable per iset,
    its insertions queued and each set still open then closed with
    probability 1/2, all before solve()."""
    rng = random.Random(seed)
    sets, constraints, insertions = random_iset_instance(rng)
    engine = Engine()
    ids = [engine.new_iset(initial, open=is_open) for initial, is_open in sets]
    for iset in ids:
        engine.new_fd_variable(iset)
    with contextlib.suppress(Inconsistency):
        for kind, args in constraints:
            if kind == "member":
                engine.post_iset_constraint(Member(args[0], ids[args[1]]))
            else:
                engine.post_iset_constraint(ISETC_CLASSES[kind](*(ids[i] for i in args)))
        for iset, element in insertions:
            engine.isets.ensure_member(ids[iset], element)
        for iset in ids:
            if not engine.isets.is_closed(iset) and rng.random() < 0.5:
                engine.isets.close(iset)
    return engine, ids


@pytest.mark.parametrize("build, kind, closed, seeds, least", [
    (closed_instance, "verify", True, 40, 500),
    (nary_closed_instance, "verify", True, 40, 950),
    (open_engine, "verify", False, 40, 350),
    (open_engine, "source", False, 40, 150),
    (iset_engine, "handler", True, 400, 1300),
])
def test_an_exception_inside_solve_leaves_the_next_solve_exact(build, kind, closed, seeds,
                                                               least):
    # solve() takes nothing back: an exception other than Inconsistency
    # leaves behind it whatever the run had done, pairs under check and
    # set events included. For each of the first 25 calls of the given
    # kind that an uninterrupted solve() makes, a twin raises at that call;
    # its next solve() must re-check what the raise left and end where the
    # uninterrupted run ended.
    raised = 0
    for seed in range(seeds):
        reference, _ = build(seed)
        tally: Counter = Counter()
        count_calls(reference, kind, tally)
        verdict = reference.solve()
        for k in range(1, min(tally["calls"], 25) + 1):
            engine, _ = build(seed)
            count_calls(engine, kind, Counter(raise_at=k))
            with pytest.raises(Armed):
                engine.solve()
            assert engine.solve() is verdict, f"seed {seed} call {k}"
            assert pair_place_errors(engine) == [], f"seed {seed} call {k}"
            assert engine.graph.nodes == [], f"seed {seed} call {k}"
            if verdict:
                assert engine_kac_holds(engine), f"seed {seed} call {k}"
            if closed:
                assert ([set(v.present) for v in engine.variables]
                        == [set(v.present) for v in reference.variables]), f"seed {seed} call {k}"
                assert sets_of(engine) == sets_of(reference), f"seed {seed} call {k}"
            raised += 1
    assert raised >= least
