"""Acceptance suite.

Each test implements one exit criterion at its stated size and tolerance
and prints one pass line on success (run with -s to see them live; a
failure shows up as an ordinary pytest failure). The engines of the
scenario criteria come from one module-scoped fixture, and the final
criterion audits their transition logs.
"""

import random
import time

import pytest

from icsp import ScriptedSource

from instances import (
    LoggedEngine,
    audit_transitions,
    engine_kac_holds,
    golden_engine,
    intersection_store,
    random_algebra_instance,
    random_closed_csp,
    random_iset_instance,
    random_open_engine,
    run_iset_instance,
)
from icsp.oracle import compare_kac_ac


def _passed(n, text):
    print(f"\nacceptance criterion {n}: PASS ({text})")


def _lazy_counts_engine():
    """Two variables over empty open domains, one order constraint, and
    two scripted suppliers holding 11 elements each."""
    eng = LoggedEngine()
    dx = eng.new_iset(name="dx")
    dz = eng.new_iset(name="dz")
    x = eng.new_fd_variable(dx, name="x")
    z = eng.new_fd_variable(dz, name="z")
    eng.post_fd_constraint("gt", [z, x])
    dx_source = ScriptedSource([1] + list(range(101, 111)))  # 11 elements held
    dz_source = ScriptedSource([2] + list(range(201, 211)))
    eng.register_source(dx, dx_source)
    eng.register_source(dz, dz_source)
    return eng, (dx, dz), (x, z), (dx_source, dz_source)


@pytest.fixture(scope="module")
def scenario_engines():
    """The scenario engines of criteria 1, 4 and 6, by criterion, each
    built and solved once per module run. Those criteria check them, and
    criterion 8 audits their transition logs, so the audit sees the same
    engines whichever tests run, in whatever order. Each entry is (what
    the builder returned, solve()'s verdict, seconds to build and solve)."""
    def solved(build):
        started = time.perf_counter()
        built = build()
        verdict = built[0].solve()
        return built, verdict, time.perf_counter() - started

    return {1: solved(golden_engine), 4: solved(golden_engine), 6: solved(_lazy_counts_engine)}


def test_criterion_1_golden_walkthrough(scenario_engines):
    (eng, (dx, dy, dz), (x, y, z)), verdict, elapsed = scenario_engines[1]
    assert verdict is True
    assert eng.present(x) == [1] and eng.removed(x) == [2]
    assert eng.present(y) == [2] and eng.removed(y) == []
    assert eng.present(z) == [2] and eng.removed(z) == []
    assert eng.isets.is_closed(dz)
    assert not eng.isets.is_closed(dx) and not eng.isets.is_closed(dy)
    per_iset = [iset for iset, _var, _elem in eng.acquisitions]
    assert per_iset == [dx, dz, dz], "expected 1 acquisition for dx and 2 for dz"
    assert eng.acquisitions[-1][2] is None  # the second dz call was the exhausted reply
    assert elapsed < 1.0
    assert engine_kac_holds(eng)  # feeds criterion 4
    _passed(1, f"exact domains, 3 acquisitions, {elapsed * 1000:.0f} ms")


def test_criterion_2_intersection_consequences():
    cases = [
        ("dz", 5, ({2, 4, 5}, {3, 4, 5}, {4, 5})),   # flows into both operands
        ("dz", 3, ({2, 3, 4}, {3, 4}, {3, 4})),      # only dx was missing it
        ("dx", 3, ({2, 3, 4}, {3, 4}, {3, 4})),      # in both operands: into dz
        ("dx", 1, ({1, 2, 4}, {3, 4}, {4})),         # nothing can be inferred
    ]
    for target, element, (want_dx, want_dy, want_dz) in cases:
        store, dx, dy, dz = intersection_store()
        store.ensure_member({"dx": dx, "dz": dz}[target], element)
        store.fixpoint()
        assert store.known(dx) == want_dx
        assert store.known(dy) == want_dy
        assert store.known(dz) == want_dz
    _passed(2, "all four scripted insertions match exactly")


def test_criterion_3_differential_against_ac3():
    seeds = 1000
    started = time.perf_counter()
    for seed in range(seeds):
        csp = random_closed_csp(random.Random(seed))
        verdict = compare_kac_ac(csp)
        assert verdict.agree, f"seed {seed}: {verdict.report}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _passed(3, f"{seeds} seeds agree, {elapsed:.1f} s")


def test_criterion_4_known_arc_consistency_at_quiescence(scenario_engines):
    # a scenario engine like criterion 1's (criterion 3 asserts the
    # property inside compare_kac_ac for every quiescent instance)
    (eng, _isets, _vars), verdict, _elapsed = scenario_engines[4]
    assert verdict is True
    assert engine_kac_holds(eng)

    instances = 500
    quiescent = 0
    violations = 0
    for seed in range(instances):
        engine, _var_ids = random_open_engine(random.Random(10_000 + seed))
        if not engine.solve():
            continue
        quiescent += 1
        if not engine_kac_holds(engine):
            violations += 1
    assert violations == 0
    assert quiescent > 100  # the sample must actually exercise quiescence
    _passed(4, f"0 violations over {quiescent} quiescent instances of {instances}")


def test_criterion_5_closed_world_set_algebra():
    per_kind = 500
    for kind in ("member", "inclusion", "union", "intersection", "difference"):
        for seed in range(per_kind):
            rng = random.Random(f"{kind}:{seed}")  # str seeding is stable across runs
            succeeded, expected, checks = random_algebra_instance(rng, kind)
            assert succeeded == expected, f"{kind} seed {seed}"
            assert checks, f"{kind} seed {seed}: wrong resulting known parts"
    _passed(5, f"{per_kind} instances per constraint kind, 0 violations")


def test_criterion_6_lazy_acquisition_counts(scenario_engines):
    (eng, (dx, dz), (x, z), (dx_source, dz_source)), verdict, _elapsed = scenario_engines[6]
    assert verdict is True
    # hand trace: x needs one element; its check forces exactly one element
    # of z, which the first supplies; nothing else is ever pulled
    assert eng.acquisitions == [(dx, x, 1), (dz, z, 2)]
    assert dx_source.calls_served() == 1
    assert dz_source.calls_served() == 1
    assert eng.present(x) == [1] and eng.present(z) == [2]
    assert engine_kac_holds(eng)
    _passed(6, "exactly 2 of the 22 held elements were acquired")


def test_criterion_7_order_independence():
    instances = 200
    for seed in range(instances):
        instance = random_iset_instance(random.Random(20_000 + seed))
        baseline = run_iset_instance(instance)
        for perm in range(4):
            shuffled = run_iset_instance(instance, random.Random(f"order:{seed}:{perm}"))
            assert shuffled == baseline, f"seed {seed} permutation {perm}"
    _passed(7, f"{instances} instances invariant under 4 reorderings each")


def test_criterion_8_state_machine_audit(scenario_engines):
    total = 0
    for (engine, *_parts), _verdict, _elapsed in scenario_engines.values():
        assert audit_transitions(engine) == []
        assert all(phase == "prop" for *_rest, phase in engine.transitions)
        total += len(engine.transitions)
    _passed(8, f"{total} logged transitions, all among the four permitted")
