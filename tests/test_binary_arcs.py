"""Differential test of the binary-arc path against the general one.

A constraint over two distinct variables [a, b] seeks and revises through
the engine's binary path, which scans the other variable's lists in place.
Posted as [a, b, b], with a verifier that reads only the first two values,
the same relation goes through the general path (_find_tuple over copied
pools, with a spread), which tests exactly the same pairs in the same
order. Both engines must therefore agree on everything they record: the
outcome, the trace, the transition and acquisition logs, and the number
of verifier calls.
"""

import random

import pytest

import icsp.oracle
import instances
from icsp import Engine, Inconsistency
from icsp.fd import builtin_verifier

from instances import random_closed_csp, random_nary_closed_csp, random_open_engine


class CountingEngine(Engine):
    """Posts every constraint with a verifier that counts its calls, and
    keeps its transition log."""

    def __init__(self):
        super().__init__()
        self.transitions = []
        self.verify_calls = 0

    def post_fd_constraint(self, name, args, verifier=None):
        verify = verifier or builtin_verifier(name, len(args))

        def counted(values):
            self.verify_calls += 1
            return verify(values)

        return super().post_fd_constraint(name, args, counted)


class SpreadEngine(CountingEngine):
    """Posts each constraint over two distinct variables [a, b] as
    [a, b, b], under the same name, so it takes the general path."""

    def post_fd_constraint(self, name, args, verifier=None):
        if len(args) == 2 and args[0] != args[1]:
            verify = verifier or builtin_verifier(name, 2)
            return super().post_fd_constraint(name, [*args, args[1]],
                                              lambda t, f=verify: f(t[:2]))
        return super().post_fd_constraint(name, args, verifier)


def record(engine):
    """Solve and label; the outcome and everything the engine recorded."""
    try:
        outcome = engine.solve()
        if outcome:
            outcome = engine.label()
    except Inconsistency as exc:  # the search may acquire its way into a failure
        outcome = ("inconsistent", str(exc))
    return outcome, engine.trace, engine.transitions, engine.acquisitions, engine.verify_calls


def binary_arcs(engine) -> int:
    """The engine's arcs over two distinct variables."""
    return sum(spread is None and len(others) == 1 for v in engine.variables
               for _, _, others, _, _, spread in v.arcs)


def both_paths(monkeypatch, build):
    """The records of the instance that build() makes, with Engine standing
    for CountingEngine and then for SpreadEngine, and the first engine's
    number of binary arcs; the second engine must have none."""
    records, engines = [], []
    for cls in (CountingEngine, SpreadEngine):
        with monkeypatch.context() as patch:
            patch.setattr(instances, "Engine", cls)
            patch.setattr(icsp.oracle, "Engine", cls)
            engine = build()
        assert type(engine) is cls
        engines.append(engine)
        records.append(record(engine))
    assert binary_arcs(engines[1]) == 0
    return records, binary_arcs(engines[0])


def test_open_engines_agree_on_both_paths(monkeypatch):
    acquisitions = arcs = 0
    for seed in range(1000):
        (binary, general), n = both_paths(
            monkeypatch, lambda: random_open_engine(random.Random(40_000 + seed))[0])
        assert binary == general, f"seed {seed}"
        acquisitions += len(binary[3])
        arcs += n
    assert arcs > 2000
    assert acquisitions > 2000  # the seeks really resume after acquisitions


@pytest.mark.parametrize("generate", [random_closed_csp, random_nary_closed_csp])
def test_closed_engines_agree_on_both_paths_through_search(monkeypatch, generate):
    removals = arcs = 0
    for seed in range(500):
        csp = generate(random.Random(50_000 + seed))
        (binary, general), n = both_paths(
            monkeypatch, lambda: icsp.oracle.build_engine(csp)[0])
        assert binary == general, f"seed {seed}"
        removals += sum(t[4] == "search" and t[3].value == "removed" for t in binary[2])
        arcs += n
    assert arcs > 1000
    assert removals > 1000  # the revise step really removes values
