"""Randomized invariant checks (compact versions; the acceptance module
repeats the headline properties at their full instance counts)."""

import hashlib
import random
from collections import Counter

from icsp import Inconsistency, PairState, resolve_verifier
from icsp.oracle import ClosedCsp, build_engine

from instances import (
    audit_transitions,
    engine_kac_holds,
    pair_place_errors,
    random_closed_csp,
    random_iset_instance,
    random_open_engine,
    run_iset_instance,
)


def test_order_independence_small():
    rng = random.Random(1)
    for _ in range(30):
        instance = random_iset_instance(rng)
        baseline = run_iset_instance(instance)
        for perm in range(4):
            shuffled = run_iset_instance(instance, random.Random(perm))
            assert shuffled == baseline


def test_random_open_instances_stay_known_arc_consistent():
    rng = random.Random(2)
    quiescent = 0
    for _ in range(80):
        engine, _var_ids = random_open_engine(rng)
        if engine.solve():
            quiescent += 1
            assert engine_kac_holds(engine)
    assert quiescent > 10


def test_element_lists_partition_and_stay_in_domain():
    rng = random.Random(3)
    for _ in range(60):
        engine, var_ids = random_open_engine(rng)
        if not engine.solve():
            continue
        for vid in var_ids:
            var = engine.variable(vid)
            present, removed = set(var.present), set(var.removed)
            assert not present & removed
            assert not var.candidates
            known = engine.isets.known(var.def_domain)
            assert present | removed <= known


def test_removed_values_never_return_during_propagation():
    rng = random.Random(4)
    for _ in range(60):
        engine, _var_ids = random_open_engine(rng)
        engine.solve()
        seen_removed = set()
        for vid, element, _frm, to, _phase in engine.transitions:
            assert (vid, element) not in seen_removed
            if to is PairState.REMOVED:
                seen_removed.add((vid, element))
        assert audit_transitions(engine) == []


def test_acquisitions_bounded_by_supply():
    rng = random.Random(5)
    for _ in range(60):
        engine, _var_ids = random_open_engine(rng)
        supplies = {iset: len(src.elements) for iset, src in engine._sources.items()}
        engine.solve()
        calls = {}
        for iset, _var, _elem in engine.acquisitions:
            calls[iset] = calls.get(iset, 0) + 1
        for iset, n in calls.items():
            assert n <= supplies[iset] + 1  # +1 for the exhausted reply


def test_label_calls_each_source_once_per_reply():
    # Search keeps the replies of the acquisitions it undoes and replays
    # them, so over solve() and label() together each source is called
    # once per distinct element plus at most once for exhaustion. Replaying
    # is exact: the digest of every outcome and acquisition log was taken
    # when search rewound the sources instead.
    record = hashlib.sha256()
    labelled = 0
    for seed in range(2000):
        engine, var_ids = random_open_engine(random.Random(seed))
        calls: Counter = Counter()
        replies: dict = {}
        for iset, source in engine._sources.items():
            def counted(i, ctx, next_=source.next, iset=iset):
                calls[iset] += 1
                reply = next_(i, ctx)
                replies.setdefault(iset, set()).add(reply)
                return reply
            source.next = counted
        outcome = engine.solve()
        if outcome:
            labelled += 1
            try:
                outcome = engine.label(var_ids)
            except Inconsistency as exc:  # search may acquire into a failure
                outcome = ("inconsistent", str(exc))
        record.update(repr((outcome, engine.acquisitions)).encode())
        for iset, n in calls.items():
            assert n <= len(replies[iset] - {None}) + 1, f"seed {seed}"
    assert labelled == 903
    assert record.hexdigest()[:16] == "dfdeebc157719888"


def test_no_arc_ever_points_at_a_present_supporter():
    # replay the trace: once a pair has flushed to present it may never
    # appear again as the supporter of a reliance arc
    rng = random.Random(6)
    for _ in range(60):
        engine, _var_ids = random_open_engine(rng)
        engine.solve()
        present_so_far = set()
        for entry in engine.trace:
            if entry[0] == "PRESENT":
                present_so_far.add((entry[1], entry[2]))
            elif entry[0] == "RELY":
                assert entry[2] not in present_so_far


def test_pair_states_match_their_places_after_open_solve():
    rng = random.Random(7)
    consistent = 0
    for _ in range(80):
        engine, var_ids = random_open_engine(rng)
        if engine.solve():
            consistent += 1
            for vid in var_ids:
                var = engine.variable(vid)
                assert set(var.states) == engine.isets.known(var.def_domain)
        assert pair_place_errors(engine) == []
    assert consistent > 10


def test_pair_states_match_their_places_after_closed_label():
    # Three variables over two values, pairwise different: arc consistent,
    # so solve() succeeds, but label() exhausts the search and returns None.
    ne = resolve_verifier("ne")[2]
    pigeonhole = ClosedCsp({k: [1, 2] for k in "abc"},
                           [("ne", [p, q], ne) for p, q in ("ab", "bc", "ac")])
    rng = random.Random(8)
    outcomes = []
    for csp in [pigeonhole] + [random_closed_csp(rng) for _ in range(120)]:
        engine, _ids = build_engine(csp)
        if engine.solve():
            outcomes.append(engine.label())
        assert pair_place_errors(engine) == []
    assert any(o is None for o in outcomes) and any(o is not None for o in outcomes)
