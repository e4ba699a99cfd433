"""Pinned traces: seeded instances whose full event record must not change.

Each builder below runs one seeded instance to its verdict, on an engine
that keeps its transition log. The digest covers the outcome plus the
engine's trace, transition log and acquisition log, so any change in which
tuple supports a pair, in which supporters are recorded, in the order of
removals or in when an element is acquired shows up here. The digests
were taken with the plain re-enumerating support search (every seek and
every retry starting from the first tuple); the incremental search must
reproduce them byte for byte. closed_nary_label
was taken before `_revise` learned to skip a pop whose variable lost no
value since its previous pop: it pins the order of removals along the
n-ary revise path, which must never skip a variable that has an arc over
three or more variables. iset_traces and cli_problems were taken
while every set event still went to every constraint on its iset: they
pin the order in which the set layer inserts and closes.
"""

import hashlib
import io
import random
from pathlib import Path

import pytest

import icsp.oracle
from icsp import Inconsistency, RangeSource, ScriptedSource
from icsp.cli import parse, run
from icsp.oracle import build_engine

from instances import (
    LoggedEngine,
    random_closed_csp,
    random_iset_instance,
    random_nary_closed_csp,
    random_open_engine,
    run_iset_instance,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def digest(engine, outcome) -> str:
    record = (outcome, engine.trace, engine.transitions, engine.acquisitions)
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


def solve_and_label(engine):
    consistent = engine.solve()
    return consistent, (engine.label() if consistent else None)


def open_chain(seed, name, nvars, universe):
    """A chain of binary constraints over open domains, each backed by a
    shuffled script over the universe, with one element known up front."""
    rng = random.Random(seed)
    engine = LoggedEngine()
    ids = []
    for i in range(nvars):
        values = list(universe)
        rng.shuffle(values)
        iset = engine.new_iset(values[:1], name=f"d{i}")
        engine.register_source(iset, ScriptedSource(values[1:]))
        ids.append(engine.new_fd_variable(iset, name=f"x{i}"))
    for a, b in zip(ids, ids[1:]):
        engine.post_fd_constraint(name, [a, b])
    return engine


def open_sum(seed):
    """sum_eq_const over four variables: two closed, two open with scripts."""
    rng = random.Random(seed)
    engine = LoggedEngine()
    ids = []
    for i in range(4):
        if i < 2:
            iset = engine.new_iset(rng.sample(range(6), 3), open=False, name=f"d{i}")
        else:
            values = rng.sample(range(6), 6)
            iset = engine.new_iset(values[:1], name=f"d{i}")
            engine.register_source(iset, ScriptedSource(values[1:]))
        ids.append(engine.new_fd_variable(iset, name=f"x{i}"))
    engine.post_fd_constraint(f"sum_eq_const:{rng.randint(4, 14)}", ids)
    engine.post_fd_constraint("lt", [ids[0], ids[2]])
    return engine


def shared_iset(seed):
    """Two variables over one open iset inside one ternary constraint: one
    acquisition appends the same element to two pools at once."""
    rng = random.Random(seed)
    engine = LoggedEngine()
    dz = engine.new_iset(rng.sample(range(1, 9), 3), open=False, name="dz")
    dshared = engine.new_iset([rng.randint(1, 8)], name="ds")
    values = [v for v in range(1, 13) if v not in engine.isets.known(dshared)]
    rng.shuffle(values)
    engine.register_source(dshared, ScriptedSource(values))
    z = engine.new_fd_variable(dz, name="z")
    x = engine.new_fd_variable(dshared, name="x")
    y = engine.new_fd_variable(dshared, name="y")
    engine.post_fd_constraint("zxy", [z, x, y], lambda t: t[1] - t[2] == t[0])
    return engine


def exhausted_source():
    """x in {9}; y's source runs dry before anything exceeds 9, z has no
    source at all: both exhausted replies arrive while a seek is pending."""
    engine = LoggedEngine()
    dx = engine.new_iset([9], open=False, name="dx")
    dy = engine.new_iset(name="dy")
    dz = engine.new_iset([1], name="dz")
    engine.register_source(dy, RangeSource(3, 8))
    x = engine.new_fd_variable(dx, name="x")
    y = engine.new_fd_variable(dy, name="y")
    z = engine.new_fd_variable(dz, name="z")
    engine.post_fd_constraint("xyz", [x, z, y],
                              lambda t: t[0] < t[2] or t[1] > t[0])
    return engine


def queens(n):
    engine = LoggedEngine()
    dom = engine.new_iset(range(n), open=False, name="rows")
    ids = [engine.new_fd_variable(dom, name=f"q{i}") for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            gap = j - i
            engine.post_fd_constraint(
                f"q{i}{j}", [ids[i], ids[j]],
                lambda t, gap=gap: t[0] != t[1] and abs(t[0] - t[1]) != gap)
    return engine


def closed_csp(seed, generate=random_closed_csp):
    return build_engine(generate(random.Random(seed)))[0]


def solved(engine) -> str:
    return digest(engine, engine.solve())


def labelled(engine) -> str:
    return digest(engine, solve_and_label(engine))


def open_random(seed) -> str:
    engine, _ids = random_open_engine(random.Random(seed))
    try:
        outcome = solve_and_label(engine)
    except Inconsistency as exc:  # the search may acquire its way into a failure
        outcome = ("inconsistent", str(exc))
    return digest(engine, outcome)


def iset_traces(seed) -> str:
    """One set-only instance, some of whose constraints repeat an argument,
    run in generation order and in a shuffled order of postings and
    insertions: the outcome and INSERT/CLOSE trace of both runs."""
    instance = random_iset_instance(random.Random(30_000 + seed))
    record = []
    for shuffle in (None, random.Random(seed)):
        trace: list = []
        record.append((run_iset_instance(instance, shuffle, trace), trace))
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


def cli_problems() -> str:
    """The exit code and traced output of the CLI on every problem file."""
    record = []
    for path in sorted(PROBLEMS.glob("*.icsp")):
        out = io.StringIO()
        code = run(parse(path.read_text(encoding="utf-8")), trace=True, out=out)
        record.append((path.name, code, out.getvalue()))
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


def over_seeds(case, seeds) -> str:
    return hashlib.sha256("".join(map(case, seeds)).encode()).hexdigest()[:16]


CASES = {
    "open_lt_chain_1": lambda: solved(open_chain(1, "lt", 8, range(12))),
    "open_lt_chain_2": lambda: solved(open_chain(2, "lt", 10, range(14))),
    "open_ne_chain_3": lambda: solved(open_chain(3, "ne", 12, range(3))),
    "open_gt_chain_label_4": lambda: labelled(open_chain(4, "gt", 5, range(8))),
    "open_sum_5": lambda: labelled(open_sum(5)),
    "open_sum_6": lambda: labelled(open_sum(6)),
    "shared_iset_7": lambda: labelled(shared_iset(7)),
    "shared_iset_8": lambda: labelled(shared_iset(8)),
    "exhausted_source": lambda: solved(exhausted_source()),
    "queens_8_label": lambda: labelled(queens(8)),
    "closed_random_label": lambda: over_seeds(lambda s: labelled(closed_csp(s)), range(40)),
    "closed_nary_label": lambda: over_seeds(
        lambda s: labelled(closed_csp(s, random_nary_closed_csp)), range(40)),
    "open_random_label": lambda: over_seeds(open_random, range(40)),
    "iset_traces": lambda: over_seeds(iset_traces, range(300)),
    "cli_problems": cli_problems,
}

PINNED = {
    "closed_nary_label": "24a8146c78c84a5c",
    "cli_problems": "7c77449a8d3b40c0",
    "closed_random_label": "cb38af6c6aa688ef",
    "exhausted_source": "4a85c2dc8cd40cdf",
    "iset_traces": "c799dedc59089a8f",
    "open_gt_chain_label_4": "d4e787abbde4822a",
    "open_lt_chain_1": "2693d3dba9f1c44f",
    "open_lt_chain_2": "9be54ee51880a259",
    "open_ne_chain_3": "d374e0f7db6f20f1",
    "open_random_label": "7d38b4b672dca5fe",
    "open_sum_5": "cc0aa555e435955f",
    "open_sum_6": "a1cd5fc76b164945",
    "queens_8_label": "11783893ec316849",
    "shared_iset_7": "64846e661c3a3618",
    "shared_iset_8": "42bd704d35de4d6f",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_is_pinned(case, monkeypatch):
    monkeypatch.setattr(icsp.oracle, "Engine", LoggedEngine)  # for closed_csp
    assert CASES[case]() == PINNED[case]
