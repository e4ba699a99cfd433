"""Finite-domain variables, n-ary constraints, and the support graph.

A variable does not own a classical domain. It ranges over an iset, its
definition domain, which it is given when it is created (the X :: S of a
two-sorted CLP program), and keeps four disjoint element lists of its own:
present (proven usable, the known part of its current domain), removed
(proven inconsistent; they stay in the definition domain but are never
tried again), candidates (waiting to be checked) and observed (under check
now). The current domain is always the definition domain minus the
removed values.

Every (variable, element) pair moves through a small state machine,
stated once in two step tables: PROP_STEPS holds the four moves
propagation makes, and SEARCH_STEPS adds the removals a search decision
makes of candidate and present values. Each step maps (old state, new
state) to the variable's list that holds the element in the old state
(None for unknown), the list it joins, and the move's trace tag. The
engine makes every move in one routine, which looks the move up in the
table its caller names, moves the element between those two lists and
traces it. A pair's state and the list that holds its element therefore
never disagree.
"""

import operator
import re
from collections import deque
from enum import Enum
from typing import Callable, Sequence

from .isets import INT, Element, Iset


class PairState(Enum):
    UNKNOWN = "unknown"
    CANDIDATE = "candidate"
    OBSERVED = "observed"
    PRESENT = "present"
    REMOVED = "removed"

    # Members are singletons, so identity hashing agrees with equality; it
    # runs in C, where Enum's own __hash__ is a Python call.
    __hash__ = object.__hash__


# The members by name: a module global is read faster than an Enum attribute.
UNKNOWN, CANDIDATE, OBSERVED, PRESENT, REMOVED = PairState

# (old, new) -> (source list, target list, trace tag) for each move that
# propagation makes.
PROP_STEPS = {
    (UNKNOWN, CANDIDATE): (None, "candidates", "CANDIDATE"),       # entered the domain
    (CANDIDATE, OBSERVED): ("candidates", "observed", "OBSERVE"),  # seed or supporter
    (OBSERVED, PRESENT): ("observed", "present", "PRESENT"),       # graph flush
    (OBSERVED, REMOVED): ("observed", "removed", "REMOVE"),        # no support found
}

# Those and the removals a search decision makes: binding a variable,
# revising after it, and discarding a bound variable's late arrival (see
# Engine._move).
SEARCH_STEPS = {
    **PROP_STEPS,
    (PRESENT, REMOVED): ("present", "removed", "REMOVE"),
    (CANDIDATE, REMOVED): ("candidates", "removed", "REMOVE"),
}


class FdVariable:
    def __init__(self, vid: int, name: str, domain: Iset):
        self.id = vid
        self.name = name
        # The definition domain, which every variable has: its Iset record,
        # and its iset id (see Engine.new_fd_variable).
        self.domain = domain
        self.def_domain = domain.id
        # One list per state but unknown, named in PROP_STEPS and SEARCH_STEPS.
        self.present: list = []
        self.removed: list = []
        self.candidates: deque = deque()
        self.observed: list = []
        self.states: dict = {}
        # One arc per constraint on this variable, in posting order, the
        # only holder of that arc (see FdConstraint).
        self.arcs: list = []
        # The arcs that revise walks when this variable loses values: for
        # each constraint on it, in posting order, the arcs of the
        # constraint's other distinct variables, in argument order.
        # revise_nary is set once one of them has two or more other
        # variables; without such an arc, a pop that finds the variable
        # unchanged is skipped whole (see Engine._revise).
        self.revise: list = []
        self.revise_nary = False
        # Set while search has committed this variable to a single value.
        self.bound_to: "Element | None" = None

    def state(self, element: Element) -> PairState:
        return self.states.get(element, UNKNOWN)

    def __repr__(self):
        return f"FdVariable({self.name})"


class FdConstraint:
    """A named n-ary relation, tested one ground tuple at a time.

    verify is the function the constraint was posted with, or the built-in
    that resolve_verifier returned for its name, kept as it is. The engine
    calls it with a list built for that one call, in argument order, with
    the same element at every repeated argument, and never reads the list
    again; only the truth value of the result is used. The function must be
    total and deterministic over ground tuples of the constraint's arity.
    The engine reads constraint.verify at every support search, so a
    function put in its place, even after posting, receives every test.

    Posting gives each distinct argument variable w one arc, the tuple
    (constraint, w, others, residues, k, spread), which w holds on its arcs
    list and each other variable on its revise list (see FdVariable). The
    constraint holds no arcs, so a constraint and its arcs form no
    reference cycle and a dropped engine is freed at once, without the
    cycle collector. others holds the other distinct argument variables,
    the ones a support for a value of w must assign, in the order of every
    support tuple. residues maps a value of w to the all-present support
    that search's revise found for it last: the supporting element itself
    on an arc over two distinct variables, the support tuple on any other.
    It is a hint, sound to reuse while every value in it is still present,
    so it needs no undo when search backtracks. k is w's position among the
    distinct arguments, where a value of w is inserted into a support, and
    spread maps each argument to its position among the distinct
    arguments, None when no argument repeats: together they lay out a
    ground tuple without searching the arguments (see
    engine._first_support and Engine._find_tuple).
    Arcs are plain tuples because posting builds one per argument, and a
    class instance costs several times as much to create.
    """

    def __init__(self, cid: int, name: str, args: Sequence[int],
                 verify: Callable[[list], object]):
        if len(args) < 1:
            raise ValueError("constraint needs at least one argument")
        self.id = cid
        self.name = name
        self.args = list(args)
        self.verify = verify

    def __repr__(self):
        return f"FdConstraint({self.name}/{len(self.args)})"


class SupportGraph:
    """The batch of observed pairs under check, and who relies on whom.

    nodes lists the (variable id, element) pairs observed since the graph
    was last cleared, in the order they were observed; a pair removed
    while observed stays listed, so a walk over nodes skips every pair
    whose state is no longer observed. Each variable's own observed list
    holds its observed elements (see FdVariable).

    A reliance arc (p, q, c) records that p's satisfaction of constraint c
    depends on q. Supporters that are already present are never recorded:
    a present element is known to be supported, so losing nothing can
    invalidate it. Each reliance arc also keeps c's arc for p's variable,
    the one its support was found on (see FdConstraint), for re-seeking p
    on that arc alone when q is removed.

    Reliance arcs are indexed both ways, by supported pair and constraint
    and by supporter, so re-seeking a support and finding the pairs that
    relied on a removed one touch only the arcs concerned instead of
    scanning the whole graph. Both indexes are insertion-ordered:
    dependents come back in the order their arcs were recorded, which fixes
    the order of cascaded re-seeks. A removed pair keeps its arcs until the
    graph is cleared. No pool offers it, so nothing comes to rely on it
    again, and when a pair it relied on is removed in turn, the frame
    pushed for it is popped at once by the check's state guard (see
    Engine._check_candidate).
    """

    def __init__(self):
        self.nodes: list = []        # (var id, element), in the order observed
        self._supporters: dict = {}  # (supported pair, constraint) -> supporters
        # supporter -> {(supported pair, constraint): (supported pair, arc)}
        self._dependents: dict = {}

    def set_supporters(self, supported, arc: tuple, supporters: list) -> None:
        """Record that `supported` relies on exactly `supporters` under the
        constraint of arc, which its support was found on, replacing the
        reliance arcs recorded for it and that constraint before; with no
        supporters it relies on nothing for the constraint."""
        key = (supported, arc[0])
        for supporter in self._supporters.pop(key, ()):
            del self._dependents[supporter][key]
        if supporters:
            self._supporters[key] = supporters
            for supporter in supporters:
                self._dependents.setdefault(supporter, {})[key] = (supported, arc)

    def dependents(self, supporter) -> list:
        """(dependent pair, arc) for each reliance on `supporter`, with the
        arc its support was found on."""
        return list(self._dependents.get(supporter, {}).values())

    def clear(self) -> None:
        self.nodes.clear()
        self._supporters.clear()
        self._dependents.clear()


# ----------------------------------------------------------------------
# built-in verifiers (the ones the problem-file front end may name)

def _comparison(op) -> Callable[[list], bool]:
    def check(values):
        a, b = values
        # Every element is an int or an atom str (see isets.is_element), and
        # ints and atoms are not ordered against each other.
        return type(a) is type(b) and op(a, b)

    return check


_BUILTINS = {
    "lt": _comparison(operator.lt),
    "le": _comparison(operator.le),
    "gt": _comparison(operator.gt),
    "ge": _comparison(operator.ge),
    "eq": lambda values: values[0] == values[1],
    "ne": lambda values: values[0] != values[1],
}


def resolve_verifier(name: str):
    """Map a constraint name to (min arity, max arity or None, verifier).

    Supported: lt, le, gt, ge, eq, ne (binary) and sum_eq_const:<k>
    (any arity >= 1, integer elements summing to k, where k is written
    as an integer element is: icsp.isets.INT, ASCII digits only).
    """
    if name in _BUILTINS:
        return 2, 2, _BUILTINS[name]
    if name.startswith("sum_eq_const:"):
        k = name.split(":", 1)[1]
        if not re.fullmatch(INT, k):
            raise ValueError(f"bad constant in {name!r}")

        def check(values, _k=int(k)):
            return all(isinstance(v, int) for v in values) and sum(values) == _k

        return 1, None, check
    raise ValueError(f"unknown constraint name {name!r}")


def builtin_verifier(name: str, nargs: int):
    """The built-in verifier for a constraint name, for nargs arguments;
    ValueError for an unknown name or a wrong arity. Posting and the
    problem-file parser both check through it, with one message."""
    lo, hi, verifier = resolve_verifier(name)
    if nargs < lo or (hi is not None and nargs > hi):
        raise ValueError(f"{name} takes {lo}{'' if hi == lo else ' or more'} arguments")
    return verifier
