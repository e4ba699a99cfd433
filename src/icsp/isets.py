"""Incrementally-known sets and event-driven set constraint propagation.

An iset is a set whose membership is discovered over time: it holds the
ground elements known so far plus an open/closed flag. While open it can
still grow; closing it is irreversible and freezes the known part. Every
insertion and every closure queues exactly one event, a plain pair:
(iset, element) for an insertion and (iset, None) for a closure. The
posted set constraints (membership, union, intersection, difference,
inclusion) react to those events until a FIFO fixpoint is reached. Like a
CHR rule, which wakes only for the constraints matching its head, an event
reaches only the constraints whose class declares, in INSERTED or CLOSED,
that their handler acts on that argument's insertions or closure. And as a
rule matches its head once and then works on the constraints it matched,
posting resolves a set constraint's arguments to their Iset records once,
validating each id, and its handlers work on those records from then on
(see IsetConstraint).

Elements are ground scalars only: ints or lowercase-atom strings, exactly
what parse_element yields. No variables, no nested sets, no bools, and
never None, which marks a closure; nor the atom none, which reads as None
(the trace writes an exhausted acquisition as none, and an interactive
source reads it as exhaustion). Every public route by which an element
enters a set checks it (see is_element).
"""

import re
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Union as _Union

from .errors import Inconsistency

# A ground element: an integer or an interned-string atom.
Element = _Union[int, str]

# An integer, in ASCII digits only: the text of an integer element, and of
# every number in a problem file (see icsp.cli and resolve_verifier).
INT = r"-?[0-9]+"
_INT_RE = re.compile(rf"{INT}\Z")
# A lowercase atom: the text of every name in a problem file (see
# icsp.cli), and of an atom element, which is any atom but none.
ATOM = r"[a-z][a-z0-9_]*"
_ATOM_RE = re.compile(rf"(?!none\Z){ATOM}\Z")


def parse_element(text: str) -> Element:
    """Parse a signed ASCII integer (INT) or a bare lowercase atom other
    than none."""
    text = text.strip()
    if _INT_RE.match(text):
        return int(text)
    if _ATOM_RE.match(text):
        return text
    raise ValueError(f"not an element: {text!r}")


def is_element(x) -> bool:
    """Whether x is an element: an int (not a bool) or a str matching the
    atom pattern other than none, the values parse_element yields."""
    return type(x) is int or (type(x) is str and _ATOM_RE.match(x) is not None)


def check_element(x) -> Element:
    """x, if it is an element; ValueError otherwise."""
    if not is_element(x):
        raise ValueError(f"not an element: {x!r}")
    return x


def element_sort_key(element: Element):
    """Display ordering: integers first, then atoms alphabetically."""
    return (isinstance(element, str), element)


@dataclass
class Iset:
    """The record of one iset. Set constraints read its fields directly;
    only the store changes them."""

    id: int
    name: str
    known: "dict[Element, None]"  # insertion-ordered set
    open: bool


class IsetConstraint:
    """Base class for set constraints: reacts to events on its arguments.

    A constraint states its shape once, in three class attributes: ARITY,
    the number of iset ids it takes, and INSERTED and CLOSED, the positions
    among them whose insertions reach on_inserted and whose closure reaches
    on_closed. Nothing else is delivered, so a handler never sees an event
    for a role it does not act on. That shape is the whole contract: a
    custom constraint declares ARITY, INSERTED and CLOSED and calls
    super().__init__(*isets), which keeps the ids, in argument order, as
    self.isets, and raises TypeError for any other count before anything
    is posted.

    post() resolves every one of self.isets to its Iset record once, which
    validates it: an unknown id raises ValueError before anything is
    recorded. It then sets self.sets to the records, in argument order,
    replays the history of the isets it watches to the handlers, calls
    activate(), a hook for work done once at posting, and only then files
    the constraint under those isets (see IsetStore.post). From there on the
    constraint works on the records and looks up no id: it reads s.known
    (an insertion-ordered dict of the known elements), s.open and s.name
    directly, and changes a set only through the store, with
    store._insert(s, element) and store._close(s), the record-taking forms
    of ensure_member and close; _insert does not check that its element is
    one (see is_element), so a constraint inserts only elements it read
    from a set or checked itself. Handlers still receive the event's iset
    as an id, and tell the roles of a watched iset apart by comparing it
    with the records' ids.

    Handlers must be idempotent: posting replays history, and an event
    queued before posting will reach the constraint a second time when it
    is drained.

    A constraint that keeps mutable state of its own must record how to
    undo each change with store.record(undo, *args), as Union does for its
    pending list, so that search can take the change back when it
    backtracks.
    """

    INSERTED: tuple = ()  # positions in self.isets
    CLOSED: tuple = ()
    sets: tuple = ()  # the Iset records of self.isets, set by IsetStore.post

    def __init__(self, *isets: int):
        if len(isets) != self.ARITY:
            raise TypeError(f"{type(self).__name__} takes {self.ARITY} iset ids, "
                            f"got {len(isets)}")
        self.isets = isets  # the iset ids, in argument order

    def on_inserted(self, store: "IsetStore", iset: int, element: Element) -> None:
        pass

    def on_closed(self, store: "IsetStore", iset: int) -> None:
        pass

    def activate(self, store: "IsetStore") -> None:
        """Called once by post(), after the replay."""

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f's{i}' for i in self.isets)})"


class Member(IsetConstraint):
    """element ∈ iset, enforced once at posting time. ValueError if element
    is not an element."""

    ARITY = 1

    def __init__(self, element: Element, iset: int):
        self.element = check_element(element)
        super().__init__(iset)

    def activate(self, store):
        store._insert(self.sets[0], self.element)

    def __repr__(self):
        return f"Member({self.element!r}, s{self.isets[0]})"


class Inclusion(IsetConstraint):
    """a ⊆ b.

    Each element of a is forwarded to b when its insertion event arrives,
    so an element that b lacks when b closes raises there, in _insert.
    """

    ARITY, INSERTED, CLOSED = 2, (0,), (1,)

    def on_inserted(self, store, iset, element):
        a, b = self.sets
        store._insert(b, element)
        self._maybe_close_left(store, a, b)

    def on_closed(self, store, iset):
        a, b = self.sets
        self._maybe_close_left(store, a, b)

    @staticmethod
    def _maybe_close_left(store, a, b):
        # Once the superset is closed and the known parts coincide, the
        # subset cannot grow either.
        if not b.open and a.known.keys() == b.known.keys():
            store._close(a)


def _settle_result(store, c: Iset, members: list, relation: str) -> None:
    """Close c as exactly members, the relation's result once both of its
    operands are final: an element of c outside members is an
    Inconsistency, raised before anything changes; otherwise each member
    enters c, in order, and c closes."""
    stray = sorted(c.known.keys() - set(members), key=element_sort_key)
    if stray:
        raise Inconsistency(f"{c.name} holds {stray} outside {relation}")
    for e in members:
        store._insert(c, e)
    store._close(c)


class Intersection(IsetConstraint):
    """a ∩ b = c."""

    ARITY, INSERTED, CLOSED = 3, (0, 1, 2), (0, 1)

    def on_inserted(self, store, iset, element):
        a, b, c = self.sets
        if iset == c.id:
            store._insert(a, element)
            store._insert(b, element)
        if iset == a.id and element in b.known:
            store._insert(c, element)
        if iset == b.id and element in a.known:
            store._insert(c, element)

    def on_closed(self, store, iset):
        a, b, c = self.sets
        if a.open or b.open:
            return
        _settle_result(store, c, [e for e in a.known if e in b.known],
                       f"{a.name} ∩ {b.name}")


class Union(IsetConstraint):
    """a ∪ b = c.

    An element inserted into c while both operands are open cannot be
    assigned a side without guessing, so it is kept as a pending obligation
    and settled when either operand closes.
    """

    ARITY, INSERTED, CLOSED = 3, (0, 1, 2), (0, 1)

    def __init__(self, *isets: int):
        super().__init__(*isets)
        self.pending: list = []

    def on_inserted(self, store, iset, element):
        a, b, c = self.sets
        if iset == a.id or iset == b.id:
            store._insert(c, element)
        if iset == c.id:
            self._settle(store, a, b, element)

    def _settle(self, store, a, b, element):
        if element in a.known or element in b.known:
            return
        if not a.open:
            store._insert(b, element)
        elif not b.open:
            store._insert(a, element)
        elif element not in self.pending:
            self.pending.append(element)
            store.record(self.pending.pop)

    def on_closed(self, store, iset):
        a, b, c = self.sets
        pending, self.pending = self.pending, []
        store.record(setattr, self, "pending", pending)
        for e in pending:
            self._settle(store, a, b, e)
        if not (a.open or b.open):
            _settle_result(store, c, [*a.known, *b.known], f"{a.name} ∪ {b.name}")


class Difference(IsetConstraint):
    """a ∖ b = c.

    Elements of a are forwarded to c only once b is closed; while b is
    open their membership in c is not yet decidable and is deferred.
    """

    ARITY, INSERTED, CLOSED = 3, (0, 1, 2), (0, 1)

    def on_inserted(self, store, iset, element):
        a, b, c = self.sets
        if iset == c.id:
            store._insert(a, element)
        if (iset == c.id and element in b.known) or (iset == b.id and element in c.known):
            raise Inconsistency(
                f"{element!r} is in both {c.name} and {b.name} under difference"
            )
        if iset == a.id and not b.open and element not in b.known:
            store._insert(c, element)

    def on_closed(self, store, iset):
        a, b, c = self.sets
        if not b.open:
            for e in list(a.known):
                if e not in b.known:
                    store._insert(c, e)
            if not a.open:
                store._close(c)


class IsetStore:
    """Owns every iset, the posted set constraints, and the event queue.

    Each iset has two lists of constraints, in posting order:
    _on_inserted[i] holds those watching i's insertions and _on_closed[i]
    those watching its closure (see IsetConstraint).

    The public methods take iset ids and raise ValueError for an unknown
    one before they change anything; _get is that check, and post() runs
    it on every argument of a constraint. Inside, the records are used
    directly: _insert and _close take an Iset record, and the posted
    constraints hold theirs, so draining the queue looks up no id.

    Single-threaded: one store per engine, externally serialized.

    While trail is a list (the engine's search keeps one), every change to
    an iset or to a constraint's own state appends its inverse to it as a
    record (undo, *args); get_state() marks the trail and set_state(mark)
    undoes every change recorded since. Outside search trail is None and
    nothing is recorded.
    """

    def __init__(self):
        self._isets: list[Iset] = []
        self._on_inserted: list[list[IsetConstraint]] = []
        self._on_closed: list[list[IsetConstraint]] = []
        self.queue: deque = deque()  # (iset, element), or (iset, None) for a closure
        # The insertions fixpoint has drained and not yet handed over.
        self.drained: list = []
        # The event trace: the store appends INSERT and CLOSE, and the engine
        # that owns the store, as Engine.trace, every other entry.
        self.trace: list = []
        self.trail: "list | None" = None

    # ------------------------------------------------------------------
    # creation and state access

    def new_iset(self, elements: Iterable[Element] = (), *, open: bool = True,
                 name: "str | None" = None) -> int:
        """Create an iset with the given (deduplicated) initial known part.
        ValueError, before anything is created, if one is not an element."""
        elements = list(elements)
        for e in elements:
            if not is_element(e):  # not check_element: one call per element, not two
                raise ValueError(f"not an element: {e!r}")
        iid = len(self._isets)
        s = Iset(iid, name or f"s{iid}", {}, True)
        self._isets.append(s)
        self._on_inserted.append([])
        self._on_closed.append([])
        for e in elements:
            self._insert(s, e)
        if not open:
            self._close(s)
        return iid

    def _get(self, iset: int) -> Iset:
        """The record of an iset id; ValueError for anything else, bools
        included."""
        if type(iset) is not int or not 0 <= iset < len(self._isets):
            raise ValueError(f"unknown iset id {iset!r}")
        return self._isets[iset]

    def name_of(self, iset: int) -> str:
        return self._get(iset).name

    def known(self, iset: int) -> set:
        """Snapshot of the known part; mutating it does not touch the store."""
        return set(self._get(iset).known)

    def known_in_order(self, iset: int) -> list:
        return list(self._get(iset).known)

    def is_closed(self, iset: int) -> bool:
        return not self._get(iset).open

    # ------------------------------------------------------------------
    # state changes

    def ensure_member(self, iset: int, element: Element) -> bool:
        """Force element into the set.

        Returns True if it was newly inserted (queueing the event
        (iset, element)), False if it was already known. Raises
        Inconsistency if the set is closed without it, and ValueError for
        anything that is not an element, None included.
        """
        return self._insert(self._get(iset), check_element(element))

    def close(self, iset: int) -> bool:
        """Close the set. True if it was open; closing twice is a no-op."""
        return self._close(self._get(iset))

    def _insert(self, s: Iset, element: Element) -> bool:
        """ensure_member on a record, for an element already checked."""
        known = s.known
        if element in known:
            return False
        if not s.open:
            raise Inconsistency(f"{element!r} cannot enter closed set {s.name}")
        known[element] = None
        if self.trail is not None:
            self.trail.append((known.pop, element))
        self.queue.append((s.id, element))
        self.trace.append(("INSERT", s.name, element))
        return True

    def _close(self, s: Iset) -> bool:
        """close on a record."""
        if not s.open:
            return False
        s.open = False
        self.record(setattr, s, "open", True)
        self.queue.append((s.id, None))
        self.trace.append(("CLOSE", s.name))
        return True

    # ------------------------------------------------------------------
    # constraints and propagation

    def post(self, constraint: IsetConstraint) -> None:
        """Resolve the constraint's isets to their records, replay the
        history of the isets at its INSERTED and CLOSED positions against
        it, call its activate(), and then file it under those isets.

        The replay hands the handlers every element each watched iset
        knows, iset by iset in position order (an iset repeated among the
        arguments once) and each in known order, then the closure of each
        watched iset that is closed, so that posting order is irrelevant.
        Every argument is validated before anything is recorded. Handlers
        only queue events, so filing last changes nothing, except when a
        handler or activate() raises: the constraint is then left in no
        list, and posting it again ends where an uninterrupted post ends."""
        isets = constraint.isets
        sets = tuple(map(self._get, isets))
        inserted = dict.fromkeys(isets[p] for p in constraint.INSERTED)
        closed = dict.fromkeys(isets[p] for p in constraint.CLOSED)
        constraint.sets = sets
        for i in inserted:
            for e in list(self._isets[i].known):
                constraint.on_inserted(self, i, e)
        for i in closed:
            if not self._isets[i].open:
                constraint.on_closed(self, i)
        constraint.activate(self)
        for i in inserted:
            self._on_inserted[i].append(constraint)
        for i in closed:
            self._on_closed[i].append(constraint)

    def fixpoint(self) -> list:
        """Drain the event queue FIFO until quiescent, handing each event
        to the constraints watching it, in posting order.

        Returns the insertions drained since the last call returned,
        (iset, element) pairs in drain order, for the engine to convert
        into candidates. An event leaves the queue only after its last
        handler returns, and drained insertions wait in self.drained until
        they are returned, so a handler that raises loses nothing: the next
        call delivers that event again, to every handler (see
        IsetConstraint on idempotence), and returns the insertions drained
        before the fault too. Terminates: each (iset, element) insertion
        and each closure happens at most once and the constraint store
        only grows.
        """
        drained = self.drained
        queue, on_inserted, on_closed = self.queue, self._on_inserted, self._on_closed
        while queue:
            event = iset, element = queue[0]
            if element is None:
                for constraint in on_closed[iset]:
                    constraint.on_closed(self, iset)
            else:
                for constraint in on_inserted[iset]:
                    constraint.on_inserted(self, iset, element)
                drained.append(event)
            queue.popleft()
        self.drained = []
        return drained

    # ------------------------------------------------------------------
    # the undo trail (search only)

    def record(self, undo, *args) -> None:
        """Record that undo(*args) takes back a change just made, if a
        trail is being kept."""
        if self.trail is not None:
            self.trail.append((undo, *args))

    def get_state(self) -> int:
        """A mark on the trail, for set_state to undo back to; only while
        a trail is kept."""
        return len(self.trail)

    def set_state(self, mark: int) -> None:
        """Undo, newest first, every change recorded since get_state()
        returned mark, and drop any queued events."""
        trail = self.trail
        while len(trail) > mark:
            undo, *args = trail.pop()
            undo(*args)
        self.queue.clear()
        self.drained.clear()
