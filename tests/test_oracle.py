"""Tests for the brute-force reference algorithms."""

import random

import pytest

import icsp.oracle
from icsp import resolve_verifier
from icsp.oracle import ClosedCsp, ac3, compare_kac_ac, is_known_arc_consistent

from instances import random_closed_csp

_, _, GT = resolve_verifier("gt")


def test_ac3_single_supported_pair():
    csp = ClosedCsp({"x": [1], "z": [2]}, [("gt", ["z", "x"], GT)])
    result = ac3(csp)
    assert result.consistent
    assert result.domains == {"x": [1], "z": [2]}


def test_ac3_wipeout():
    csp = ClosedCsp({"x": [2], "z": [2]}, [("gt", ["z", "x"], GT)])
    result = ac3(csp)
    assert not result.consistent
    assert result.wiped in ("x", "z")


def test_ac3_no_constraints():
    csp = ClosedCsp({"x": [1, 2]}, [])
    result = ac3(csp)
    assert result.consistent and result.domains == {"x": [1, 2]}


def test_ac3_nary_generalized():
    fn = lambda t: sum(t) == 5
    csp = ClosedCsp({"a": [1, 2, 9], "b": [1, 2], "c": [1, 2]},
                    [("sum5", ["a", "b", "c"], fn)])
    result = ac3(csp)
    assert result.consistent
    assert result.domains["a"] == [1, 2]  # 9 cannot reach 5


def test_ac3_idempotent():
    rng = random.Random(99)
    for _ in range(50):
        csp = random_closed_csp(rng)
        first = ac3(csp)
        if not first.consistent:
            continue
        again = ac3(ClosedCsp(first.domains, csp.constraints))
        assert again.consistent and again.domains == first.domains


def test_empty_domain_rejected():
    with pytest.raises(ValueError):
        ClosedCsp({"x": []}, [])


def test_is_known_arc_consistent():
    fn = GT
    assert is_known_arc_consistent({"x": [1], "z": [2]}, [("gt", ["z", "x"], fn)])
    assert not is_known_arc_consistent({"x": [2], "z": [2]}, [("gt", ["z", "x"], fn)])


def test_the_oracle_checks_a_constraint_wider_than_the_recursion_limit():
    # The oracle alone, no engine: one constraint over 1,200 variables.
    name = "sum_eq_const:0"
    keys = [f"v{i}" for i in range(1200)]
    constraints = [(name, keys, resolve_verifier(name)[2])]
    domains = {k: [0] for k in keys}
    assert is_known_arc_consistent(domains, constraints)
    result = ac3(ClosedCsp(domains, constraints))
    assert result.consistent and result.domains == domains
    domains["v0"] = [1]
    assert not is_known_arc_consistent(domains, constraints)
    assert ac3(ClosedCsp(domains, constraints)).wiped == "v0"


def test_compare_agrees_on_consistent_instance():
    csp = ClosedCsp({"x": [1, 2], "y": [2], "z": [2]}, [("gt", ["z", "x"], GT)])
    verdict = compare_kac_ac(csp)
    assert verdict.agree and not verdict.engine_failed and not verdict.ac_wiped


def test_compare_agrees_on_inconsistent_instance():
    csp = ClosedCsp({"x": [2], "z": [2]}, [("gt", ["z", "x"], GT)])
    verdict = compare_kac_ac(csp)
    assert verdict.agree and verdict.engine_failed and verdict.ac_wiped


def test_compare_reports_an_engine_failure_on_a_satisfiable_instance(monkeypatch):
    monkeypatch.setattr(icsp.oracle, "run_engine_on", lambda csp: (True, None))
    csp = ClosedCsp({"x": [1], "z": [2]}, [("gt", ["z", "x"], GT)])
    verdict = compare_kac_ac(csp)
    assert verdict.agree is False
    assert verdict.engine_failed and not verdict.ac_wiped
    assert verdict.report == "engine_failed=True but ac_wiped=False (wiped var: None)"


def test_compare_reports_present_sets_that_are_not_arc_consistent(monkeypatch):
    presents = {"x": [1, 2], "z": [2]}  # x = 2 has no z above it
    monkeypatch.setattr(icsp.oracle, "run_engine_on", lambda csp: (False, presents))
    csp = ClosedCsp({"x": [1, 2], "z": [2]}, [("gt", ["z", "x"], GT)])
    verdict = compare_kac_ac(csp)
    assert verdict.agree is False
    assert not verdict.engine_failed and not verdict.ac_wiped
    assert verdict.report == ("engine sub-domains not arc-consistent: "
                              "{'x': [1, 2], 'z': [2]}")


def test_compare_random_smoke():
    rng = random.Random(4242)
    for _ in range(100):
        verdict = compare_kac_ac(random_closed_csp(rng))
        assert verdict.agree, verdict.report


def test_compare_random_with_ternary_constraints():
    # the engine's support seek and the oracle's generalized revision must
    # also agree beyond binary constraints
    rng = random.Random(777)
    for seed in range(200):
        nvars = rng.randint(3, 4)
        keys = [f"v{i}" for i in range(nvars)]
        domains = {k: rng.sample(range(5), rng.randint(1, 4)) for k in keys}
        constraints = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.4:
                name = f"sum_eq_const:{rng.randint(2, 8)}"
                args = rng.sample(keys, 3)
            else:
                name = rng.choice(["lt", "le", "gt", "ge", "eq", "ne"])
                args = rng.sample(keys, 2)
            constraints.append((name, args, resolve_verifier(name)[2]))
        verdict = compare_kac_ac(ClosedCsp(domains, constraints))
        assert verdict.agree, f"seed {seed}: {verdict.report}"
