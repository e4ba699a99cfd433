"""Random instance generators and tiny reference evaluators shared by the
property and acceptance tests.

Everything here is deliberately dumb: set algebra is evaluated with Python
sets, arc consistency of final domains is confirmed by exhaustive tuple
search, and instances are built from seeded random.Random objects so every
failure is replayable from its seed.
"""

import random

from icsp import Engine, Inconsistency, IsetStore, PairState, ScriptedSource, resolve_verifier
from icsp.fd import ALLOWED_TRANSITIONS
from icsp.isets import Difference, Inclusion, Intersection, Member, Union
from icsp.oracle import ClosedCsp, is_known_arc_consistent

COMPARISONS = ["lt", "le", "gt", "ge", "eq", "ne"]

ISETC_CLASSES = {
    "union": Union,
    "intersection": Intersection,
    "difference": Difference,
    "inclusion": Inclusion,
    "member": Member,
}


def set_algebra(kind, a, b):
    """The ground truth for a three-set relation's third argument."""
    if kind == "union":
        return a | b
    if kind == "intersection":
        return a & b
    if kind == "difference":
        return a - b
    raise ValueError(kind)


class LoggedEngine(Engine):
    """An Engine that keeps a transition log: one (var id, element, from,
    to, phase) record per move, in the order of the trace's move entries.
    The phase follows the rule _move picks its step table by: "prop" while
    no trail is kept and the variable is unbound, "search" otherwise.
    Tests that read the log of engines from icsp.oracle.build_engine patch
    it in for icsp.oracle.Engine."""

    def __init__(self):
        super().__init__()
        self.transitions = []

    def _move(self, var, element, new):
        old = var.state(element)
        super()._move(var, element, new)
        phase = "prop" if self.isets.trail is None and var.bound_to is None else "search"
        self.transitions.append((var.id, element, old, new, phase))


def golden_engine():
    """Three variables over unknown domains, an intersection between the
    domains, one order constraint, and two scripted suppliers. The engine
    keeps its transition log."""
    eng = LoggedEngine()
    dx = eng.new_iset(name="dx")
    dy = eng.new_iset(name="dy")
    dz = eng.new_iset(name="dz")
    x = eng.new_fd_variable(dx, name="x")
    y = eng.new_fd_variable(dy, name="y")
    z = eng.new_fd_variable(dz, name="z")
    eng.post_iset_constraint(Intersection(dx, dy, dz))
    eng.post_fd_constraint("gt", [z, x])
    eng.register_source(dx, ScriptedSource([1]))
    eng.register_source(dz, ScriptedSource([2]))
    return eng, (dx, dy, dz), (x, y, z)


def intersection_store():
    """The worked starting state: DX={2,4}, DY={3,4}, DZ={4}, all open."""
    store = IsetStore()
    dx = store.new_iset([2, 4], name="dx")
    dy = store.new_iset([3, 4], name="dy")
    dz = store.new_iset([4], name="dz")
    store.post(Intersection(dx, dy, dz))
    store.fixpoint()
    return store, dx, dy, dz


def engine_kac_holds(engine):
    """Definition check at quiescence: every present value of every variable
    has a satisfying all-present tuple for every constraint on it."""
    domains = {v.id: list(v.present) for v in engine.variables}
    constraints = [(c.name, c.args, c.verify) for c in engine.fd_constraints()]
    return is_known_arc_consistent(domains, constraints)


def pair_place_errors(engine):
    """Where each pair sits, against its recorded state. Every element with a
    state must be in exactly one of its variable's present, removed,
    candidate and observed lists, the one its state names, and no list may
    repeat an element. The support graph's nodes must list every observed
    pair exactly once, in its variable's observed order."""
    errors = []
    for var in engine.variables:
        listed = [x for vid, x in engine.graph.nodes
                  if vid == var.id and var.state(x) is PairState.OBSERVED]
        if listed != var.observed:
            errors.append(f"{var.name}: graph nodes list its observed pairs as {listed}")
        places = {
            PairState.PRESENT: var.present,
            PairState.REMOVED: var.removed,
            PairState.CANDIDATE: list(var.candidates),
            PairState.OBSERVED: var.observed,
        }
        where = {}
        for state, elements in places.items():
            if len(set(elements)) != len(elements):
                errors.append(f"{var.name}: its {state.value} place repeats an element")
            for element in elements:
                where.setdefault(element, []).append(state)
        for element in where.keys() | var.states.keys():
            sits = where.get(element, [])
            if sits != [var.state(element)]:
                errors.append(f"({var.name},{element!r}) is {var.state(element).value} "
                              f"but sits in {[s.value for s in sits]}")
    return errors


def engine_state(engine):
    """A full copy of everything search must restore when it backtracks:
    each variable's present, removed, candidate and observed lists in order,
    its pair states and its binding; each iset's known part in order and its
    open flag; each Union's pending list; and each ScriptedSource's virtual
    position: the elements it has served, less those waiting on the iset's
    replay queue to be served again. A restore keeps the replies it undoes
    for replay, so the virtual position is where a source rewound by the
    restore would stand. Search used to take this copy at every node; the
    undo trail is checked against it."""
    store = engine.isets
    return (
        [(list(v.present), list(v.removed), list(v.candidates), list(v.observed),
          dict(v.states), v.bound_to) for v in engine.variables],
        [(list(s.known), s.open) for s in store._isets],
        [list(c.pending) for c in dict.fromkeys(c for cs in store._on_inserted for c in cs)
         if isinstance(c, Union)],
        {i: s.calls_served() - sum(e is not None for e in engine._replays.get(i, ()))
         for i, s in engine._sources.items() if isinstance(s, ScriptedSource)},
    )


def audit_transitions(engine):
    """Every propagation-phase transition must be one of the four legal
    moves. The engine must be a LoggedEngine: any other keeps no log, and
    would pass any audit."""
    assert isinstance(engine, LoggedEngine), "the engine keeps no transition log"
    bad = [t for t in engine.transitions
           if t[4] == "prop" and (t[2], t[3]) not in ALLOWED_TRANSITIONS]
    return bad


# ----------------------------------------------------------------------
# closed classical instances (engine vs ac3)

def random_closed_csp(rng: random.Random) -> ClosedCsp:
    nvars = rng.randint(1, 5)
    keys = [f"v{i}" for i in range(nvars)]
    domains = {k: rng.sample(range(5), rng.randint(1, 5)) for k in keys}
    constraints = []
    for _ in range(rng.randint(0, 6)):
        name = rng.choice(COMPARISONS)
        if nvars >= 2 and rng.random() < 0.9:
            a, b = rng.sample(keys, 2)
        else:
            a = b = rng.choice(keys)
        _, _, fn = resolve_verifier(name)
        constraints.append((name, [a, b], fn))
    return ClosedCsp(domains, constraints)


def random_nary_closed_csp(rng: random.Random) -> ClosedCsp:
    """A closed CSP mixing binary comparisons, repeated-argument sums over
    [a, a, b] and ternary sums over three distinct variables. Each sum's
    constant is reached by some tuple of initial values."""
    nvars = rng.randint(4, 7)
    keys = [f"v{i}" for i in range(nvars)]
    domains = {k: rng.sample(range(6), rng.randint(3, 6)) for k in keys}
    constraints = []
    for _ in range(rng.randint(3, 6)):
        roll = rng.random()
        if roll < 0.6:
            name, args = rng.choice(COMPARISONS), rng.sample(keys, 2)
        else:
            if roll < 0.8:
                a, b = rng.sample(keys, 2)
                args = [a, a, b]
            else:
                args = rng.sample(keys, 3)
            picks = {a: rng.choice(domains[a]) for a in args}
            name = f"sum_eq_const:{sum(picks[a] for a in args)}"
        constraints.append((name, args, resolve_verifier(name)[2]))
    return ClosedCsp(domains, constraints)


# ----------------------------------------------------------------------
# open-domain instances with scripted sources

def random_open_engine(rng: random.Random):
    """An engine over partially-known domains, each open set backed by a
    scripted source holding a shuffled slice of the leftover universe. The
    engine keeps its transition log."""
    engine = LoggedEngine()
    universe = list(range(1, 6))
    var_ids = []
    for i in range(rng.randint(2, 4)):
        initial = rng.sample(universe, rng.randint(0, 2))
        is_open = rng.random() < 0.7
        if not is_open and not initial:
            initial = rng.sample(universe, 1)
        iset = engine.new_iset(initial, open=is_open, name=f"d{i}")
        if is_open:
            rest = [e for e in universe if e not in initial]
            rng.shuffle(rest)
            engine.register_source(iset, ScriptedSource(rest[:rng.randint(0, len(rest))]))
        var_ids.append(engine.new_fd_variable(iset, name=f"x{i}"))
    for _ in range(rng.randint(1, 4)):
        name = rng.choice(COMPARISONS)
        if rng.random() < 0.9:
            a, b = rng.sample(var_ids, 2)
        else:
            a = b = rng.choice(var_ids)
        engine.post_fd_constraint(name, [a, b])
    return engine, var_ids


# ----------------------------------------------------------------------
# iset-only instances for order independence

def random_iset_instance(rng: random.Random):
    """(set specs, constraint specs, insertions) with insertions targeting
    sets that start open."""
    nsets = rng.randint(3, 5)
    universe = list(range(1, 7))
    sets = []
    for _ in range(nsets):
        initial = rng.sample(universe, rng.randint(0, 2))
        sets.append((initial, rng.random() >= 0.25))
    constraints = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(list(ISETC_CLASSES))
        repeat_ok = rng.random() < 0.2  # occasionally exercise repeated arguments
        if kind == "inclusion":
            args = tuple(rng.choices(range(nsets), k=2) if repeat_ok
                         else rng.sample(range(nsets), 2))
        elif kind == "member":
            args = (rng.choice(universe), rng.randrange(nsets))
        else:
            args = tuple(rng.choices(range(nsets), k=3) if repeat_ok
                         else rng.sample(range(nsets), 3))
        constraints.append((kind, args))
    insertions = []
    open_ids = [i for i, (_init, is_open) in enumerate(sets) if is_open]
    if open_ids:
        for _ in range(rng.randint(2, 6)):
            insertions.append((rng.choice(open_ids), rng.choice(universe)))
    return sets, constraints, insertions


def run_iset_instance(instance, shuffle_rng=None, trace=None):
    """Build a fresh store and apply constraint postings and insertions,
    interleaved in a (possibly shuffled) order. The outcome is either
    ("fail",) or ("ok", known parts, closure flags) at the final fixpoint.
    With trace given, the store appends its INSERT and CLOSE entries to it."""
    sets, constraints, insertions = instance
    store = IsetStore()
    if trace is not None:
        store.trace = trace
    ids = [store.new_iset(init, open=is_open) for init, is_open in sets]
    steps = [("post", spec) for spec in constraints]
    steps += [("insert", ins) for ins in insertions]
    if shuffle_rng is not None:
        shuffle_rng.shuffle(steps)
    try:
        for tag, payload in steps:
            if tag == "post":
                kind, args = payload
                if kind == "member":
                    store.post(Member(args[0], ids[args[1]]))
                else:
                    store.post(ISETC_CLASSES[kind](*(ids[i] for i in args)))
            else:
                iset, element = payload
                store.ensure_member(ids[iset], element)
            if shuffle_rng is not None and shuffle_rng.random() < 0.4:
                store.fixpoint()
        store.fixpoint()
    except Inconsistency:
        return ("fail",)
    return (
        "ok",
        tuple(frozenset(store.known(i)) for i in ids),
        tuple(store.is_closed(i) for i in ids),
    )


# ----------------------------------------------------------------------
# closed-world set algebra instances, one constraint per store

def random_algebra_instance(rng: random.Random, kind):
    """Build a store exercising one constraint kind on closed operands and
    evaluate the expected outcome with plain Python sets first.

    Returns (succeeded, expected_success, checks) where checks already ran.
    """
    universe = range(6)
    a_set = set(rng.sample(universe, rng.randint(0, 4)))
    b_set = set(rng.sample(universe, rng.randint(0, 4)))
    store = IsetStore()

    if kind == "member":
        element = rng.choice(list(universe))
        s_open = rng.random() < 0.5
        sid = store.new_iset(a_set, open=s_open)
        expected = s_open or element in a_set
        try:
            store.post(Member(element, sid))
            store.fixpoint()
        except Inconsistency:
            return False, expected, True
        return True, expected, element in store.known(sid)

    if kind == "inclusion":
        a_open = rng.random() < 0.4
        a = store.new_iset(a_set, open=a_open)
        b = store.new_iset(b_set, open=False)
        expected = a_set <= b_set
        try:
            store.post(Inclusion(a, b))
            store.fixpoint()
        except Inconsistency:
            return False, expected, True
        ok = store.known(a) == a_set and store.known(b) == b_set
        if a_set == b_set:
            ok = ok and store.is_closed(a)
        return True, expected, ok

    algebra = set_algebra(kind, a_set, b_set)
    if rng.random() < 0.5:
        # closed result argument: relation holds only for the exact algebra
        c_set = set(algebra) if rng.random() < 0.5 else set(rng.sample(universe, rng.randint(0, 4)))
        c_open = False
        expected = c_set == algebra
    else:
        # open result argument: consistent iff its initial content fits,
        # and the rules must complete and close it
        c_set = set(rng.sample(sorted(algebra), rng.randint(0, len(algebra)))) \
            if (algebra and rng.random() < 0.6) else set(rng.sample(universe, rng.randint(0, 3)))
        c_open = True
        expected = c_set <= algebra
    a = store.new_iset(a_set, open=False)
    b = store.new_iset(b_set, open=False)
    c = store.new_iset(c_set, open=c_open)
    try:
        store.post(ISETC_CLASSES[kind](a, b, c))
        store.fixpoint()
    except Inconsistency:
        return False, expected, True
    ok = store.known(c) == algebra and store.is_closed(c)
    return True, expected, ok
