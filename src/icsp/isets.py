"""Incrementally-known sets and event-driven set constraint propagation.

An iset is a set whose membership is discovered over time: it holds the
ground elements known so far plus an open/closed flag. While open it can
still grow; closing it is irreversible and freezes the known part. Every
insertion and every closure queues exactly one event, a plain pair:
(iset, element) for an insertion and (iset, None) for a closure. The
posted set constraints (membership, union, intersection, difference,
inclusion) react to those events until a FIFO fixpoint is reached. Like a
CHR rule, which wakes only for the constraints matching its head, an event
reaches only the constraints that declared, through watches(), that their
handler acts on that argument's insertions or closure.

Elements are ground scalars only: ints or lowercase-atom strings. No
variables, no nested sets, and never None, which marks a closure.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Union as _Union

from .errors import Inconsistency

# A ground element: an integer or an interned-string atom.
Element = _Union[int, str]

_INT_RE = re.compile(r"-?\d+\Z")
_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


def parse_element(text: str) -> Element:
    """Parse a signed integer or a bare lowercase atom."""
    text = text.strip()
    if _INT_RE.match(text):
        return int(text)
    if _ATOM_RE.match(text):
        return text
    raise ValueError(f"not an element: {text!r}")


def format_element(element: Element) -> str:
    return str(element)


def element_sort_key(element: Element):
    """Display ordering: integers first, then atoms alphabetically."""
    return (isinstance(element, str), element)


@dataclass
class Iset:
    id: int
    name: str
    known: "dict[Element, None]"  # insertion-ordered set
    open: bool


class IsetConstraint:
    """Base class for set constraints: reacts to events on its arguments.

    watches() returns (inserted_args, closed_args): the arguments, in
    argument order, whose insertions reach on_inserted and whose closure
    reaches on_closed. Nothing else is delivered, so a handler never sees
    an event for a role it does not act on, and it tells the roles of a
    watched iset apart by comparing ids. post() rejects an unknown id among
    the watched arguments before it records anything; a constraint that
    reads an argument it does not watch validates it itself, before any
    change, as Member does through ensure_member.

    Handlers must be idempotent: activation replays history on posting, and
    an event queued before posting will reach the constraint a second time
    when it is drained.

    A constraint that keeps mutable state of its own must record how to
    undo each change with store.record(undo, *args), as Union does for its
    pending list, so that search can take the change back when it
    backtracks.
    """

    def watches(self) -> tuple:
        return (), ()

    def on_inserted(self, store: "IsetStore", iset: int, element: Element) -> None:
        pass

    def on_closed(self, store: "IsetStore", iset: int) -> None:
        pass

    def activate(self, store: "IsetStore") -> None:
        """Replay the watched arguments' history so that posting order is
        irrelevant."""
        inserted, closed = self.watches()
        for i in dict.fromkeys(inserted):
            for e in store.known_in_order(i):
                self.on_inserted(store, i, e)
        for i in dict.fromkeys(closed):
            if store.is_closed(i):
                self.on_closed(store, i)


class Member(IsetConstraint):
    """element ∈ iset, enforced once at posting time."""

    def __init__(self, element: Element, iset: int):
        self.element = element
        self.iset = iset

    def activate(self, store):
        store.ensure_member(self.iset, self.element)

    def __repr__(self):
        return f"Member({self.element!r}, s{self.iset})"


class Inclusion(IsetConstraint):
    """a ⊆ b."""

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def watches(self):
        return (self.a,), (self.b,)

    def on_inserted(self, store, iset, element):
        store.ensure_member(self.b, element)
        self._maybe_close_left(store)

    def on_closed(self, store, iset):
        missing = store.known(self.a) - store.known(self.b)
        if missing:
            raise Inconsistency(
                f"{store.name_of(self.a)} ⊆ {store.name_of(self.b)} violated: "
                f"{sorted(missing, key=element_sort_key)} missing from closed superset"
            )
        self._maybe_close_left(store)

    def _maybe_close_left(self, store):
        # Once the superset is closed and the known parts coincide, the
        # subset cannot grow either.
        if store.is_closed(self.b) and store.known(self.a) == store.known(self.b):
            store.close(self.a)

    def __repr__(self):
        return f"Inclusion(s{self.a}, s{self.b})"


class Intersection(IsetConstraint):
    """a ∩ b = c."""

    def __init__(self, a: int, b: int, c: int):
        self.a = a
        self.b = b
        self.c = c

    def watches(self):
        return (self.a, self.b, self.c), (self.a, self.b)

    def on_inserted(self, store, iset, element):
        if iset == self.c:
            store.ensure_member(self.a, element)
            store.ensure_member(self.b, element)
        if iset == self.a and store.contains(self.b, element):
            store.ensure_member(self.c, element)
        if iset == self.b and store.contains(self.a, element):
            store.ensure_member(self.c, element)

    def on_closed(self, store, iset):
        if not (store.is_closed(self.a) and store.is_closed(self.b)):
            return
        # Both operands are final: c is exactly their intersection.
        inter = [e for e in store.known_in_order(self.a) if store.contains(self.b, e)]
        stray = store.known(self.c) - set(inter)
        if stray:
            raise Inconsistency(
                f"{store.name_of(self.c)} holds {sorted(stray, key=element_sort_key)} "
                f"outside {store.name_of(self.a)} ∩ {store.name_of(self.b)}"
            )
        for e in inter:
            store.ensure_member(self.c, e)
        store.close(self.c)

    def __repr__(self):
        return f"Intersection(s{self.a}, s{self.b}, s{self.c})"


class Union(IsetConstraint):
    """a ∪ b = c.

    An element inserted into c while both operands are open cannot be
    assigned a side without guessing, so it is kept as a pending obligation
    and settled when either operand closes.
    """

    def __init__(self, a: int, b: int, c: int):
        self.a = a
        self.b = b
        self.c = c
        self.pending: list = []

    def watches(self):
        return (self.a, self.b, self.c), (self.a, self.b)

    def on_inserted(self, store, iset, element):
        if iset in (self.a, self.b):
            store.ensure_member(self.c, element)
        if iset == self.c:
            self._settle(store, element)

    def _settle(self, store, element):
        if store.contains(self.a, element) or store.contains(self.b, element):
            return
        if store.is_closed(self.a):
            store.ensure_member(self.b, element)
        elif store.is_closed(self.b):
            store.ensure_member(self.a, element)
        elif element not in self.pending:
            self.pending.append(element)
            store.record(self.pending.pop)

    def on_closed(self, store, iset):
        pending, self.pending = self.pending, []
        store.record(setattr, self, "pending", pending)
        for e in pending:
            self._settle(store, e)
        if store.is_closed(self.a) and store.is_closed(self.b):
            for e in store.known_in_order(self.c):
                if not (store.contains(self.a, e) or store.contains(self.b, e)):
                    raise Inconsistency(
                        f"{store.name_of(self.c)} holds {e!r} outside "
                        f"{store.name_of(self.a)} ∪ {store.name_of(self.b)}"
                    )
            for e in store.known_in_order(self.a):
                store.ensure_member(self.c, e)
            for e in store.known_in_order(self.b):
                store.ensure_member(self.c, e)
            store.close(self.c)

    def __repr__(self):
        return f"Union(s{self.a}, s{self.b}, s{self.c})"


class Difference(IsetConstraint):
    """a ∖ b = c.

    Elements of a are forwarded to c only once b is closed; while b is
    open their membership in c is not yet decidable and is deferred.
    """

    def __init__(self, a: int, b: int, c: int):
        self.a = a
        self.b = b
        self.c = c

    def watches(self):
        return (self.a, self.b, self.c), (self.a, self.b)

    def on_inserted(self, store, iset, element):
        if iset == self.c:
            store.ensure_member(self.a, element)
            if store.contains(self.b, element):
                raise Inconsistency(
                    f"{element!r} is in both {store.name_of(self.c)} and "
                    f"{store.name_of(self.b)} under difference"
                )
        if iset == self.b and store.contains(self.c, element):
            raise Inconsistency(
                f"{element!r} is in both {store.name_of(self.c)} and "
                f"{store.name_of(self.b)} under difference"
            )
        if iset == self.a and store.is_closed(self.b) and not store.contains(self.b, element):
            store.ensure_member(self.c, element)

    def on_closed(self, store, iset):
        if store.is_closed(self.b):
            for e in store.known_in_order(self.a):
                if not store.contains(self.b, e):
                    store.ensure_member(self.c, e)
            if store.is_closed(self.a):
                store.close(self.c)

    def __repr__(self):
        return f"Difference(s{self.a}, s{self.b}, s{self.c})"


class IsetStore:
    """Owns every iset, the posted set constraints, and the event queue.

    Each iset has two lists of constraints, in posting order:
    _on_inserted[i] holds those watching i's insertions and _on_closed[i]
    those watching its closure (see IsetConstraint.watches).

    Single-threaded: one store per engine, externally serialized.

    While trail is a list (the engine's search keeps one), every change to
    an iset or to a constraint's own state appends its inverse to it as a
    record (undo, *args); get_state() marks the trail and set_state(mark)
    undoes every change recorded since. Outside search trail is None and
    nothing is recorded.
    """

    def __init__(self, trace: "list | None" = None):
        self._isets: list[Iset] = []
        self._on_inserted: list[list[IsetConstraint]] = []
        self._on_closed: list[list[IsetConstraint]] = []
        self.queue: deque = deque()  # (iset, element), or (iset, None) for a closure
        # Shared, append-only event trace (the engine passes its own list in).
        self.trace = trace if trace is not None else []
        self.trail: "list | None" = None

    # ------------------------------------------------------------------
    # creation and state access

    def new_iset(self, elements: Iterable[Element] = (), *, open: bool = True,
                 name: "str | None" = None) -> int:
        """Create an iset with the given (deduplicated) initial known part."""
        elements = list(elements)
        if None in elements:
            raise ValueError("None is not an element")
        iid = len(self._isets)
        self._isets.append(Iset(iid, name or f"s{iid}", {}, True))
        self._on_inserted.append([])
        self._on_closed.append([])
        for e in elements:
            self.ensure_member(iid, e)
        if not open:
            self.close(iid)
        return iid

    def _get(self, iset: int) -> Iset:
        if not isinstance(iset, int) or not 0 <= iset < len(self._isets):
            raise ValueError(f"unknown iset id {iset!r}")
        return self._isets[iset]

    def name_of(self, iset: int) -> str:
        return self._get(iset).name

    def known(self, iset: int) -> set:
        """Snapshot of the known part; mutating it does not touch the store."""
        return set(self._get(iset).known)

    def known_in_order(self, iset: int) -> list:
        return list(self._get(iset).known)

    def contains(self, iset: int, element: Element) -> bool:
        return element in self._get(iset).known

    def is_closed(self, iset: int) -> bool:
        return not self._get(iset).open

    # ------------------------------------------------------------------
    # state changes

    def ensure_member(self, iset: int, element: Element) -> bool:
        """Force element into the set.

        Returns True if it was newly inserted (queueing the event
        (iset, element)), False if it was already known. Raises
        Inconsistency if the set is closed without it, and ValueError for
        None, which marks a closure.
        """
        s = self._get(iset)
        if element in s.known:
            return False
        if element is None:
            raise ValueError("None is not an element")
        if not s.open:
            raise Inconsistency(f"{element!r} cannot enter closed set {s.name}")
        s.known[element] = None
        if self.trail is not None:
            self.trail.append((s.known.pop, element))
        self.queue.append((iset, element))
        self.trace.append(("INSERT", s.name, element))
        return True

    def close(self, iset: int) -> bool:
        """Close the set. True if it was open; closing twice is a no-op."""
        s = self._get(iset)
        if not s.open:
            return False
        s.open = False
        self.record(setattr, s, "open", True)
        self.queue.append((iset, None))
        self.trace.append(("CLOSE", s.name))
        return True

    # ------------------------------------------------------------------
    # constraints and propagation

    def post(self, constraint: IsetConstraint) -> None:
        """File a constraint under the isets it watches and replay their
        history against it."""
        inserted, closed = constraint.watches()
        for i in (*inserted, *closed):
            self._get(i)
        for i in dict.fromkeys(inserted):
            self._on_inserted[i].append(constraint)
        for i in dict.fromkeys(closed):
            self._on_closed[i].append(constraint)
        constraint.activate(self)

    def fixpoint(self) -> list:
        """Drain the event queue FIFO until quiescent, handing each event
        to the constraints watching it, in posting order.

        Returns the insertions drained this round, (iset, element) pairs in
        drain order, for the engine to convert into candidates. Terminates:
        each (iset, element) insertion and each closure happens at most
        once and the constraint store only grows.
        """
        drained = []
        queue, on_inserted, on_closed = self.queue, self._on_inserted, self._on_closed
        while queue:
            event = iset, element = queue.popleft()
            if element is None:
                for constraint in on_closed[iset]:
                    constraint.on_closed(self, iset)
            else:
                drained.append(event)
                for constraint in on_inserted[iset]:
                    constraint.on_inserted(self, iset, element)
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
