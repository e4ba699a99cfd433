"""The propagation engine: known-arc-consistent solving over isets.

Two cooperating solvers share one engine. The set side (IsetStore) keeps
the isets and set constraints quiescent. The finite-domain side checks, for
every value that enters a variable's definition domain, whether each
constraint on the variable can be satisfied by known values of the other
variables, preferring values that are already proven (present), then values
currently under check (observed), then unchecked candidates. Only when
nothing known works is a fresh element acquired from the iset's source.

The two sides interact through insertion events: an acquisition raises an
insertion, set propagation runs to quiescence first, and only then are the
drained insertions turned into candidates for the variables ranging over
the affected sets.

At quiescence every present value of every variable has, for each
constraint on the variable, a satisfying tuple of present values of the
other variables. This holds by construction: a batch of observed pairs is
flushed to present only after mutual support was verified, and present
lists never shrink during propagation.

One engine instance is single-threaded; callers must serialize access.
"""

from collections import deque
from copy import copy
from itertools import islice, product
from typing import Callable, Iterable, Sequence

from .acquisition import AcquisitionContext, AcquisitionSource
from .errors import Inconsistency, SourceContractError
from .fd import (
    CANDIDATE,
    OBSERVED,
    PRESENT,
    PROP_STEPS,
    REMOVED,
    SEARCH_STEPS,
    UNKNOWN,
    FdConstraint,
    FdVariable,
    PairState,
    SupportGraph,
    builtin_verifier,
)
from .isets import Element, IsetConstraint, IsetStore, is_element


def _first_support(verify, element: Element, k: int, pool: Iterable) -> "Element | None":
    """The first x of pool that supports element on a binary arc over two
    distinct variables: verify([element, x]) holds when k is 0,
    verify([x, element]) when k is 1. None if there is none (no element
    is None). The pool is read as it is, in place."""
    if k:
        for x in pool:
            if verify([x, element]):
                return x
    else:
        for x in pool:
            if verify([element, x]):
                return x
    return None


class Engine:
    # The engine keeps no transition log: the trace has one entry per move.
    # bench/tracing.py still reads len(engine.transitions); this goes when
    # ROADMAP item 1 drops that read.
    transitions = ()

    def __init__(self):
        self.isets = IsetStore()
        self.trace = self.isets.trace
        self.variables: list[FdVariable] = []
        self.graph = SupportGraph()
        # (iset id, requesting var id or None, element or None) per acquire call
        self.acquisitions: list = []
        self._fd_constraints: list[FdConstraint] = []
        self._links: dict[int, list[int]] = {}
        self._sources: dict[int, AcquisitionSource] = {}
        # iset id -> the replies search undid, oldest first; an iset gets a
        # queue at its first acquisition in search (see acquire)
        self._replays: dict[int, deque] = {}
        # The first contradiction solve() caught or post_iset_constraint
        # raised. It is final: nothing outside search is ever taken back.
        self.inconsistency: "Inconsistency | None" = None

    # ------------------------------------------------------------------
    # sets: read and change them through self.isets

    def new_iset(self, elements: Iterable[Element] = (), *, open: bool = True,
                 name: "str | None" = None) -> int:
        return self.isets.new_iset(elements, open=open, name=name)

    def post_iset_constraint(self, constraint: IsetConstraint) -> None:
        """Post a set constraint. An Inconsistency its posting derives is
        re-raised, and a copy of it without the traceback, whose frames
        hold the engine, is kept as the engine's final verdict (see solve)."""
        try:
            self.isets.post(constraint)
        except Inconsistency as exc:
            if self.inconsistency is None:
                self.inconsistency = copy(exc)
            raise

    def propagate_isets(self) -> None:
        """Drain set events to quiescence, then feed the drained insertions
        to the variables ranging over the affected sets, strictly in that
        order: no candidate is created while set consequences are pending."""
        for iset, element in self.isets.fixpoint():
            for vid in self._links.get(iset, ()):
                self._enqueue(self.variables[vid], element)

    # ------------------------------------------------------------------
    # variables, links, constraints

    def new_fd_variable(self, def_domain: int, *, name: "str | None" = None) -> int:
        """Create a variable ranging over the iset def_domain, its
        definition domain, which every variable has and gets only here.

        The variable keeps the iset's id in def_domain and its Iset record
        in domain. Elements already known to the iset become candidates
        immediately. An unknown iset raises ValueError before the variable
        exists."""
        domain = self.isets._get(def_domain)
        vid = len(self.variables)
        var = FdVariable(vid, name or f"v{vid}", domain)
        self.variables.append(var)
        self._links.setdefault(domain.id, []).append(vid)
        for element in list(domain.known):
            self._enqueue(var, element)
        return vid

    def variable(self, vid: int) -> FdVariable:
        if type(vid) is not int or not 0 <= vid < len(self.variables):
            raise ValueError(f"unknown variable id {vid!r}")
        return self.variables[vid]

    def post_fd_constraint(self, name: str, args: Sequence[int],
                           verifier: Callable[[list], bool] | None = None) -> int:
        """Register a constraint over the given variables.

        With verifier=None the name must resolve to a built-in; otherwise
        verifier must be callable, and becomes the constraint's verify,
        which the engine calls with one ground tuple at a time (see
        FdConstraint). Anything invalid raises ValueError before anything
        is registered. Constraints should be posted before the first
        kac_fixpoint call: values already present are not re-checked
        against later constraints.

        Each variable gets the constraint's arc for it, in posting order.
        Support seeking walks the arcs on a variable. Each variable also
        gets, on its revise list, the arcs of the constraint's other
        variables: the arcs that revise walks from it when it loses values.
        """
        for vid in args:
            self.variable(vid)
        if verifier is None:
            verifier = builtin_verifier(name, len(args))
        elif not callable(verifier):
            raise ValueError(f"verifier for {name} is not callable: {verifier!r}")
        constraint = FdConstraint(len(self._fd_constraints), name, args, verifier)
        self._fd_constraints.append(constraint)
        distinct = tuple(dict.fromkeys(args))
        spread = (None if len(distinct) == len(args)
                  else tuple(map(distinct.index, args)))
        arcs = [(constraint, w, distinct[:k] + distinct[k + 1:], {}, k, spread)
                for k, w in enumerate(distinct)]
        for arc in arcs:
            var = self.variables[arc[1]]
            var.arcs.append(arc)
            for other in arcs:
                if other is not arc:
                    var.revise.append(other)
            if len(arcs) > 2:
                var.revise_nary = True
        return constraint.id

    def fd_constraint(self, cid: int) -> FdConstraint:
        if type(cid) is not int or not 0 <= cid < len(self._fd_constraints):
            raise ValueError(f"unknown constraint id {cid!r}")
        return self._fd_constraints[cid]

    def fd_constraints(self) -> list:
        return list(self._fd_constraints)

    def _enqueue(self, var: FdVariable, element: Element) -> None:
        if var.state(element) is UNKNOWN:
            self._move(var, element, CANDIDATE)

    # ------------------------------------------------------------------
    # acquisition

    def register_source(self, iset: int, source: AcquisitionSource) -> None:
        name = self.isets.name_of(iset)
        if iset in self._sources:
            raise ValueError(f"{name} already has a source")
        self._sources[iset] = source

    def acquire(self, iset: int, *, requesting_var: "int | None" = None,
                requesting_constraint: "str | None" = None) -> "Element | None":
        """Take one reply for the iset and propagate the outcome.

        The reply is the oldest one waiting on the iset's replay queue, or
        else the next one from its source. Returns the inserted element, or
        None if the reply is exhaustion (which closes the iset). An iset
        without a source is treated as immediately exhausted. A fresh reply
        that repeats an element the iset already knows is a contract
        violation and raises SourceContractError rather than looping, as
        does one that is neither None nor an element; both raise before
        anything is recorded or logged. A replayed element that the iset
        has come to know by another route since search undid it is
        dropped, and the next reply taken.

        In search the trail records that undoing the acquisition, or the
        drop, puts its reply back at the front of the replay queue, so a
        reply is asked of the source once and outlives the branch that
        acquired it. An iset gets its queue when search first acquires for
        it, so solve() alone leaves no queue behind.
        """
        isets = self.isets
        s = isets._get(iset)
        if not s.open:
            raise ValueError(f"cannot acquire for closed set {s.name}")
        source = self._sources.get(iset)
        var_name = (self.variable(requesting_var).name
                    if requesting_var is not None else None)
        ctx = AcquisitionContext(
            requesting_var=requesting_var,
            requesting_constraint=requesting_constraint,
            var_name=var_name,
        )
        replay = self._replays.get(iset, ())
        while replay and replay[0] in s.known:
            isets.record(replay.appendleft, replay.popleft())
        if replay:
            element = replay.popleft()
        else:
            element = source.next(iset, ctx) if source is not None else None
            if element is not None and not is_element(element):
                raise SourceContractError(
                    f"source for {s.name} replied {element!r}, which is not an element"
                )
            if element in s.known:
                raise SourceContractError(
                    f"source for {s.name} repeated element {element!r}"
                )
        if isets.trail is not None:
            replay = self._replays.setdefault(iset, deque())
            isets.trail.append((replay.appendleft, element))
        self.acquisitions.append((iset, requesting_var, element))
        self.trace.append(("ACQUIRE", s.name, element))
        if element is None:
            isets._close(s)
        else:
            isets._insert(s, element)
        self.propagate_isets()
        return element

    # ------------------------------------------------------------------
    # the KAC procedure

    def solve(self) -> bool:
        """Propagate to quiescence. True if consistent so far, False if not.

        A contradiction is final. Outside search no element, closure or
        removal is ever taken back, so the first Inconsistency that solve()
        catches, or that post_iset_constraint raises, is kept in
        self.inconsistency, without its traceback, whose frames hold the
        engine, and every later solve() returns False at once without
        propagating. The sets and pairs stay as the contradiction left
        them, and are no longer kept known-arc-consistent."""
        if self.inconsistency is None:
            try:
                self.kac_fixpoint()
            except Inconsistency as exc:
                self.inconsistency = exc.with_traceback(None)
        return self.inconsistency is None

    def kac_fixpoint(self) -> None:
        """Check candidates until quiescent, acquiring only when forced.

        Loop: while any variable has candidates, seed the support graph with
        the first candidate of the first such variable (creation order),
        check it to completion and flush the graph. With no candidates left,
        the first variable with an empty present list that is unbound and
        whose definition domain is open gets one element acquired. With no
        such variable, the first with an empty present list is a
        contradiction, a domain wipe-out: it is bound, or its definition
        domain is closed.

        Pairs still observed on entry belong to a check that an exception
        interrupted: they are checked again from the start, in the order
        graph.nodes lists them, and flushed before any candidate is taken
        up. A listed pair that is no longer observed is skipped.
        """
        self.propagate_isets()
        for vid, element in list(self.graph.nodes):
            self._check_candidate(self.variables[vid], element)
        self._flush_graph()
        while True:
            var = next((v for v in self.variables if v.candidates), None)
            if var is not None:
                element = var.candidates[0]
                if var.bound_to is not None:
                    # A search decision already fixed this variable; late
                    # arrivals contradict it and are discarded as removed.
                    self._move(var, element, REMOVED, SEARCH_STEPS)
                    continue
                self._move(var, element, OBSERVED)
                self._check_candidate(var, element)
                self._flush_graph()
                continue
            empty = [v for v in self.variables if not v.present]
            needy = next((v for v in empty if v.bound_to is None and v.domain.open), None)
            if needy is not None:
                self.acquire(needy.def_domain, requesting_var=needy.id)
                continue
            if not empty:
                return
            raise Inconsistency(f"domain wipe-out for {empty[0].name}")

    def _check_candidate(self, var: FdVariable, element: Element) -> None:
        """Seek support for an observed pair against every constraint on its
        variable, and check to completion every pair that this observes or
        that loses its support on the way.

        One explicit stack of frames (variable, element, iterator over the
        arcs still to check) drives the check, so its depth is not bounded
        by the interpreter's recursion limit. A candidate observed as a
        supporter gets a frame over all of its arcs; when a pair is removed,
        each pair that relied on it gets a frame over the one arc that
        relied on it. Frames are pushed in reverse so that the first is
        checked first, to completion, before the next: the depth-first
        order of a recursive check, which fixes the trace. A cascade may
        remove a pair whose frame is still waiting; the state guard detects
        that, and so pops the frame of a pair found unsupported too, once
        the frames pushed above it for its dependents are done. A seek that
        observes no candidate, an all-present support among them, pushes
        nothing, and neither does a removal that no pair relied on."""
        variables = self.variables
        stack = [(var, element, iter(var.arcs))]
        while stack:
            var, element, arcs = stack[-1]
            arc = next(arcs, None)
            if arc is None or var.states.get(element) is not OBSERVED:
                stack.pop()
                continue
            newly = self._seek_support(var, element, arc)
            if newly:
                stack.extend((w, x, iter(w.arcs)) for w, x in reversed(newly))
            elif newly is None:
                dependents = self.graph.dependents((var.id, element))
                self._move(var, element, REMOVED)
                if dependents:
                    stack.extend((variables[d], x, iter((arc,)))
                                 for (d, x), arc in reversed(dependents))

    def _seek_support(self, var: FdVariable, element: Element,
                      arc: tuple) -> "list | tuple | None":
        """Find a satisfying tuple for the pair under the arc's constraint.

        An all-present tuple needs no bookkeeping; any other supporter is
        recorded with a reliance arc, and candidate supporters are observed.
        Returns those newly observed (variable, element) pairs, for the
        caller to check, or None when there is no tuple even after
        acquiring: the pair is unsupported. An all-present support builds
        no list and records no RELY entry. It touches the support graph
        only to drop the reliance arcs that the pair had under the
        constraint, if any, and it returns the empty tuple, for which the
        caller pushes no frame.

        Unlike _revise, this search takes no shortcut through a residue: an
        all-present residue would be accepted where the enumeration order
        reaches a tuple mixing present and observed values first (possible
        from arity 3), and the reliance arcs and RELY entries would change.
        """
        constraint, _, others, _, _, _ = arc
        support = self._find_or_acquire(element, arc)
        if support is None:
            return None
        supporters = newly = ()
        for w, x in zip(others, support):
            wvar = self.variables[w]
            state = wvar.states[x]
            if state is PRESENT:
                continue
            if not supporters:
                supporters, newly, name = [], [], constraint.name
            if state is CANDIDATE:
                self._move(wvar, x, OBSERVED)
                newly.append((wvar, x))
            supporters.append((w, x))
            self.trace.append(
                ("RELY", (var.name, element), (wvar.name, x), name)
            )
        pair, graph = (var.id, element), self.graph
        if supporters or (pair, constraint) in graph._supporters:
            graph.set_supporters(pair, arc, supporters)
        return newly

    def _find_or_acquire(self, element: Element, arc: tuple) -> "tuple | None":
        """The first satisfying support on the arc over the known values of
        its others, each one's pool ordered present, then observed, then
        candidates (insertion order within a class). When none exists, one
        element is acquired for the first other variable with an open
        domain and the search resumes; with every other domain closed there
        is none.

        Resuming is exact: an acquisition only appends candidates to the
        pools, so every tuple of old elements already failed, and the next
        pass verifies only tuples holding, at some position, an element
        newly appended to that position's pool (after an exhausted reply,
        none). Its first success is the tuple a full re-enumeration would
        reach first.

        A binary arc over two distinct variables scans its other variable's
        present, observed and candidate lists in place, one after the
        other, and after an acquisition the candidates appended since it
        began. Any other arc enumerates copied pools through _find_tuple.
        """
        constraint, _, others, _, k, spread = arc
        if spread is None and len(others) == 1:
            wvar = self.variables[others[0]]
            bound = wvar.bound_to is not None  # supports only with its present value
            pools = ((wvar.present,) if bound else
                     (wvar.present, wvar.observed, wvar.candidates))
            for pool in pools:
                x = _first_support(constraint.verify, element, k, pool)
                if x is not None:
                    return (x,)
            while wvar.domain.open:
                start = len(wvar.candidates)
                self.acquire(wvar.def_domain, requesting_var=wvar.id,
                             requesting_constraint=constraint.name)
                if not bound:
                    x = _first_support(constraint.verify, element, k,
                                       islice(wvar.candidates, start, None))
                    if x is not None:
                        return (x,)
            return None
        pools = self._pools(others)
        fresh = None
        while True:
            support = self._find_tuple(element, arc, pools, fresh)
            if support is not None:
                return support
            for w in others:
                target = self.variables[w]
                if target.domain.open:
                    break
            else:
                return None
            self.acquire(target.def_domain, requesting_var=target.id,
                         requesting_constraint=constraint.name)
            grown = self._pools(others)
            fresh = [set(longer[len(pool):]) for pool, longer in zip(pools, grown)]
            pools = grown

    def _pools(self, others: tuple) -> list:
        """Each other variable's supporter pool: its present values, and
        unless it is bound its observed values and candidates after them."""
        pools = []
        for w in others:
            wvar = self.variables[w]
            if wvar.bound_to is not None:
                # A bound variable may only support with its committed value.
                pools.append(list(wvar.present))
            else:
                pools.append([*wvar.present, *wvar.observed, *wvar.candidates])
        return pools

    def _find_tuple(self, element: Element, arc: tuple, pools: list,
                    fresh: "list | None" = None) -> "tuple | None":
        """First satisfying assignment of the arc's others in lexicographic
        order over their pools, the element fixed at every occurrence of
        the arc's variable, for an arc with a repeated argument or with two
        or more other variables (binary arcs over two distinct variables go
        through _first_support). Returns the elements ordered as the
        others, or None. fresh, when given, holds one set per other, the
        elements newly appended to its pool; only tuples with such an
        element at its own position are verified.

        Each ground list is built once, in argument order, for the one
        verify call it goes to: the element is inserted at its position k
        among the others and, when an argument repeats, the distinct values
        are spread over the arguments. The constraint's verify is read at
        the start of every call and called directly, so a function put in
        its place after posting receives every test."""
        if fresh is not None and not any(fresh):
            return None
        constraint, _, _, _, k, spread = arc
        verify = constraint.verify
        for support in product(*pools):
            if fresh is not None and not any(map(set.__contains__, fresh, support)):
                continue
            values = [*support[:k], element, *support[k:]]
            if spread is not None:
                values = [values[i] for i in spread]
            if verify(values):
                return support
        return None

    def _flush_graph(self) -> None:
        """Promote every surviving observed pair to present, in the order
        graph.nodes lists them, and clear the graph; a listed pair that is
        no longer observed was removed, and is skipped. The batch was
        verified mutually supported, and presents never revert during
        propagation, so the supports stay valid."""
        variables = self.variables
        for vid, element in self.graph.nodes:
            var = variables[vid]
            if var.states[element] is OBSERVED:
                self._move(var, element, PRESENT)
        self.graph.clear()

    def _move(self, var: FdVariable, element: Element, new: PairState,
              steps: dict = PROP_STEPS) -> None:
        """Move one (variable, element) pair to state new: the one place
        where a pair changes state.

        The move is looked up in steps, the step table of icsp.fd that its
        caller names: PROP_STEPS by default, SEARCH_STEPS, which permits
        more, for the removals a search decision makes (_bind, _revise, and
        kac_fixpoint discarding a bound variable's late arrival). A move
        that the table lacks raises before anything changes. The element
        leaves the list of its old state (source; an unknown pair is in
        none) and joins the end of that of the new one (target), both named
        by the table, as is the trace tag. The support graph is touched
        only to append a newly observed pair to its nodes; a pair removed
        while observed keeps its arcs (see SupportGraph). The trace gets one
        entry, and while search keeps a trail the trail gets the record
        that _unmove undoes the move with."""
        old = var.states.get(element, UNKNOWN)
        try:
            source, target, tag = steps[old, new]
        except KeyError:
            phase = "search" if steps is SEARCH_STEPS else "prop"
            raise AssertionError(
                f"illegal {phase} transition {old.value}->{new.value} "
                f"for ({var.name},{element!r})"
            ) from None
        if source is None:
            index = None
        else:
            source = getattr(var, source)
            index = source.index(element)
            del source[index]
        target = getattr(var, target)
        target.append(element)
        if new is OBSERVED:
            self.graph.nodes.append((var.id, element))
        var.states[element] = new
        trail = self.isets.trail
        if trail is not None:
            trail.append((self._unmove, var, element, old, source, index, target))
        self.trace.append((tag, var.name, element))

    @staticmethod
    def _unmove(var: FdVariable, element: Element, old: PairState,
                source, index, target) -> None:
        """Undo one _move, the latest one not yet undone: the element
        leaves the end of its target list and returns to its index in its
        source list, or to no list when it was unknown. The support graph
        is cleared after undoing instead (see _restore)."""
        target.pop()
        if source is None:
            del var.states[element]
        else:
            source.insert(index, element)
            var.states[element] = old

    # ------------------------------------------------------------------
    # read access

    def present(self, vid: int) -> list:
        return list(self.variable(vid).present)

    def removed(self, vid: int) -> list:
        return list(self.variable(vid).removed)

    # ------------------------------------------------------------------
    # search

    def label(self, variables: "Sequence[int] | None" = None) -> "dict | None":
        """Depth-first search for a total assignment of the given variables.

        label() starts with solve(), outside the trail, and returns None if
        that is False. Values are then tried in present-list order;
        committing to a value moves the variable's other present values to
        removed and re-propagates. While the search runs, every change to
        the sets, the set constraints, the pairs, the bindings and the
        replay queues is recorded on one undo trail; a failed branch undoes
        the changes made since its node began. A search that finds no
        solution, and any other exception, from a verifier or a source,
        leave label() through one restore to the trail's start, the only
        one, made here and only when the trail holds a record, so the
        engine is back in the state the search started from; only the logs
        and the replay queues keep what happened. When a variable runs out
        of present values and its definition domain is still open, one more
        element is acquired before giving up on the node. An undone
        acquisition keeps its reply for the next acquire on its iset (see
        acquire), so each source is asked once per reply however often
        search backtracks.

        A variable already bound, by an earlier successful label(), keeps
        its value. Returns {var id: element} or None when the search space
        is exhausted. Raises ValueError for an unknown variable id.
        """
        order = ([self.variable(v) for v in variables]
                 if variables is not None else list(self.variables))
        if not self.solve():
            return None
        self.isets.trail = trail = []
        solution = None
        try:
            solution = self._label(order)
            return solution
        finally:
            if solution is None and trail:
                self._restore(0)
            self.isets.trail = None

    def _label(self, order: list) -> "dict | None":
        """The search loop, without recursion. It assigns the variables of
        order that are unbound at entry, each once, in order. The stack
        holds one (trail mark, values tried) frame per variable assigned so
        far: the mark undoes that variable's binding, and the count of
        values tried for it resumes it when the search backtracks into it.
        A variable left with no untried present value, and no element to
        acquire, fails, and the search resumes the variable before it; when
        the first one fails there is no solution, and label() undoes what
        the trail still holds. It takes the nodes, snapshots and restores of
        a recursive depth-first search, in the same order.

        The values tried at a node are its first present values, so the
        next is var.present[tried]. Between two tries the present list only
        grows: a restore puts each removed value back at its index, and
        propagation, which acquiring runs, appends present values and
        removes none (see icsp.fd.PROP_STEPS)."""
        free = [v for v in {v.id: v for v in order}.values() if v.bound_to is None]
        stack: list = []
        tried = 0  # how many values free[len(stack)] has tried
        while len(stack) < len(free):
            var = free[len(stack)]
            if tried < len(var.present):
                value = var.present[tried]
                tried += 1
                mark = self._snapshot()
                try:
                    self._bind(var, value)
                except Inconsistency:
                    self._restore(mark)
                    continue
                stack.append((mark, tried))
                tried = 0
                continue
            if var.domain.open:
                mark = self._snapshot()
                try:
                    self.acquire(var.def_domain, requesting_var=var.id)
                    self.kac_fixpoint()
                    continue
                except Inconsistency:
                    self._restore(mark)
            if not stack:
                return None
            mark, tried = stack.pop()
            self._restore(mark)
        return {v.id: v.bound_to for v in order}

    def _bind(self, var: FdVariable, value: Element) -> None:
        # A bind follows a kac_fixpoint run to quiescence, which leaves no
        # variable a candidate, so the present values are all there is.
        # Revising only removes present values, so it leaves no candidate,
        # set event or acquisition behind: kac_fixpoint has work only when
        # a removal left a variable with no present value.
        for e in [e for e in var.present if e != value]:
            self._move(var, e, REMOVED, SEARCH_STEPS)
        self.isets.trail.append((setattr, var, "bound_to", var.bound_to))
        var.bound_to = value
        if self._revise(var):
            self.kac_fixpoint()

    def _revise(self, seed: FdVariable) -> bool:
        """Cascade removal of present values whose every present-tuple
        support died when a search decision narrowed seed. Returns whether
        some removal left a variable with no present value.

        A work queue holds variables that lost values, one entry per loss.
        Popping v revises the arcs on v's revise list, built at posting:
        every arc (c, w) with c a constraint on v and w another of its
        variables, constraint by constraint in posting order. Each present
        value of w keeps a support of present values of c's other
        variables, or is removed and queues w. Each check first tries the
        value's residue on the arc, the support found last time: while all
        of its values are still present it proves the value supported
        without a search. Residues need no undo when search backtracks; a
        stale one fails the present test and the search runs as before.

        A binary arc over two distinct variables tests its residue, the one
        supporting element of the popped variable, against that variable's
        states, and on a miss scans its present list in place: w's removals
        leave it unchanged. Any other arc tests each value of its residue
        tuple, and searches the present lists of the others in place.

        A later pop of v in the same call is skipped whole when v has lost
        no value since its previous pop and every arc on its revise list is
        binary, its others just (v,) (repeated arguments such as [a, a, b]
        included; revise_nary unset). That is exact: the previous pop left
        every present value of w a residue in v's present set, which is
        unchanged, and w's values can only have been removed since, so the
        revision would remove nothing and change no residue. A variable
        with an arc over three or more distinct variables is always
        revised: one of the arc's other variables may have changed, and
        revising it later, at that variable's pop, would reorder the
        removals. Its binary arcs are revised too, and find every residue
        present."""
        variables = self.variables
        work = deque([seed.id])
        emptied = False
        seen: dict = {}  # var id -> len(removed) at its previous pop
        while work:
            vid = work.popleft()
            vvar = variables[vid]
            lost = len(vvar.removed)
            if seen.get(vid) == lost and not vvar.revise_nary:
                continue
            seen[vid] = lost
            vstates, vpresent = vvar.states, vvar.present
            for arc in vvar.revise:
                constraint, w, others, residues, k, spread = arc
                wvar = variables[w]
                binary = spread is None and len(others) == 1
                if binary:
                    verify = constraint.verify
                else:  # removing w's values leaves these unchanged
                    states = [variables[u].states for u in others]
                    pools = [variables[u].present for u in others]
                for e in list(wvar.present):
                    residue = residues.get(e)
                    if binary:
                        if residue is not None and vstates.get(residue) is PRESENT:
                            continue
                        support = _first_support(verify, e, k, vpresent)
                    else:
                        if residue is not None and all(
                                state.get(x) is PRESENT
                                for state, x in zip(states, residue)):
                            continue
                        support = self._find_tuple(e, arc, pools)
                    if support is None:
                        self._move(wvar, e, REMOVED, SEARCH_STEPS)
                        work.append(w)
                        emptied = emptied or not wvar.present
                    else:
                        residues[e] = support
        return emptied

    # ------------------------------------------------------------------
    # snapshots (search only; taken at quiescence)

    def _snapshot(self) -> int:
        """A mark on the undo trail."""
        if self.isets.queue or self.graph.nodes:
            raise AssertionError("snapshot requires a quiescent engine")
        return self.isets.get_state()

    def _restore(self, mark: int) -> None:
        """Undo every change recorded since the mark was taken, and drop
        the support graph of a check that an exception interrupted."""
        self.isets.set_state(mark)
        self.graph.clear()
