"""Brute-force reference algorithms for differential testing.

Deliberately independent of the propagation engine: everything here works
on plain dicts and lists, recomputed from scratch, and shares nothing with
the engine except the constraint verifier functions themselves. ac3
enforces generalized arc consistency on fully-known domains; compare_kac_ac
runs the engine and ac3 on the same closed instance and checks they agree
on inconsistency, the engine's surviving sub-domains being arc-consistent
(not necessarily maximal) whenever both succeed.
"""

from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

from .engine import Engine


@dataclass
class ClosedCsp:
    """A classical CSP: every domain fully known and non-empty. Each
    constraint is a (name, argument keys, verifier over ground tuples)
    triple."""

    domains: dict
    constraints: list

    def __post_init__(self):
        for key, dom in self.domains.items():
            if not dom:
                raise ValueError(f"empty initial domain for {key!r}")


@dataclass
class Ac3Result:
    consistent: bool
    domains: dict
    wiped: "object | None" = None


@dataclass
class Verdict:
    agree: bool
    engine_failed: bool = False
    ac_wiped: bool = False
    engine_domains: "dict | None" = None
    report: str = ""


def _distinct(args: Sequence) -> list:
    return list(dict.fromkeys(args))


def _supported(domains: dict, key, value, args: Sequence, verifier: Callable) -> bool:
    """Does some assignment over the current domains of the other variables
    satisfy the constraint with `value` at every occurrence of `key`?"""
    others = [w for w in _distinct(args) if w != key]
    for values in product(*(domains[w] for w in others)):
        assignment = dict(zip(others, values))
        assignment[key] = value
        if verifier([assignment[a] for a in args]):
            return True
    return False


def _revise(domains: dict, key, constraint: tuple) -> bool:
    _name, args, verifier = constraint
    keep = [v for v in domains[key] if _supported(domains, key, v, args, verifier)]
    if len(keep) == len(domains[key]):
        return False
    domains[key] = keep
    return True


def ac3(csp: ClosedCsp) -> Ac3Result:
    """Generalized arc consistency by the classic revision-queue scheme.

    A value survives iff some satisfying tuple over the current domains
    extends it. Returns the maximal arc-consistent sub-domains, or the
    first wiped-out variable.
    """
    domains = {k: list(dom) for k, dom in csp.domains.items()}
    queue = deque()
    for idx, (_name, args, _verifier) in enumerate(csp.constraints):
        for key in _distinct(args):
            queue.append((key, idx))
    while queue:
        key, idx = queue.popleft()
        if _revise(domains, key, csp.constraints[idx]):
            if not domains[key]:
                return Ac3Result(False, domains, key)
            for jdx, (_name, args, _verifier) in enumerate(csp.constraints):
                if key in args:
                    for other in _distinct(args):
                        if other != key:
                            queue.append((other, jdx))
    return Ac3Result(True, domains, None)


def is_known_arc_consistent(domains: dict, constraints: list) -> bool:
    """Every value of every variable has, for each constraint on the
    variable, a satisfying tuple over the given domains."""
    for _name, args, verifier in constraints:
        for key in _distinct(args):
            for value in domains.get(key, ()):
                if not _supported(domains, key, value, args, verifier):
                    return False
    return True


def build_engine(csp: ClosedCsp):
    """The instance as an engine, all sets created closed and no sources
    bound. Returns (engine, {key: variable id})."""
    engine = Engine()
    ids = {}
    for key, dom in csp.domains.items():
        iset = engine.new_iset(dom, open=False, name=f"d_{key}")
        ids[key] = engine.new_fd_variable(iset, name=str(key))
    for name, args, verifier in csp.constraints:
        engine.post_fd_constraint(name, [ids[a] for a in args], verifier)
    return engine, ids


def run_engine_on(csp: ClosedCsp):
    """Solve the instance with the full engine (see build_engine). Returns
    (failed, present sub-domains or None)."""
    engine, ids = build_engine(csp)
    ok = engine.solve()
    if not ok:
        return True, None
    return False, {key: engine.present(vid) for key, vid in ids.items()}


def compare_kac_ac(csp: ClosedCsp) -> Verdict:
    """Differential check of the engine against ac3 on one closed instance.

    Agreement means: the engine fails exactly when ac3 wipes out a domain,
    and on success the engine's present sub-domains are arc-consistent.
    Sub-domain equality is deliberately not required; the engine finds an
    arc-consistent sub-domain, not necessarily the maximal one.
    """
    engine_failed, presents = run_engine_on(csp)
    ac = ac3(csp)
    ac_wiped = not ac.consistent
    if engine_failed != ac_wiped:
        return Verdict(
            False, engine_failed, ac_wiped, presents,
            report=f"engine_failed={engine_failed} but ac_wiped={ac_wiped} "
                   f"(wiped var: {ac.wiped!r})",
        )
    if not engine_failed and not is_known_arc_consistent(presents, csp.constraints):
        return Verdict(
            False, engine_failed, ac_wiped, presents,
            report=f"engine sub-domains not arc-consistent: {presents!r}",
        )
    return Verdict(True, engine_failed, ac_wiped, presents)
