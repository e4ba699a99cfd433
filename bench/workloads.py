"""Seeded workload families and their independent verdict checks.

Each workload turns a seed into a fixed list of instances, builds a model
from an instance (the timed set-up), runs it to a verdict (the timed
user-facing call) and checks that verdict against a reference that never
looks at the engine's own earlier output: icsp.oracle.ac3 over the fully
drained world, direct verifier calls on a labelling, a forward-checking
search written here, and Python set algebra for the set networks.

Instances are stratified. Instance i falls in slot i % 20 and round
i // 20; the slot fixes the instance family and its size band, and each
size parameter is drawn from its own stratum of the band, a different one
per round, so every seed covers each band evenly. The seed picks the value
within each stratum and every other detail. Every seed therefore gives
nearly the same mix, which keeps medians, high percentiles and sums
comparable between seeds. Slot 0 holds the sizes that overflow the
recursion limit today (ROADMAP "Recent"), so they stay in the mix at one
instance in twenty.
"""

from __future__ import annotations

import io
import random
import re
from dataclasses import dataclass

from icsp import Engine, RangeSource, ScriptedSource, cli, resolve_verifier
from icsp.oracle import ClosedCsp, ac3, is_known_arc_consistent

SLOTS = 20


@dataclass(frozen=True)
class Instance:
    """One problem, described by plain data built only from the seed."""

    index: int
    seed: int
    kind: str
    size: str
    spec: object
    given: int    # elements known to the engine before any acquisition
    supply: int   # every element the sources hold, plus one exhausting call per sourced iset


def instance_rng(workload: str, seed: int, index: int) -> "tuple[int, random.Random]":
    instance_seed = random.Random(f"{workload}:{seed}:{index}").getrandbits(32)
    return instance_seed, random.Random(instance_seed)


def _pick(rng: random.Random, lo, hi, index: int, count: int, k: int = 0):
    """A value of lo..hi (ints give an int) for the k-th size parameter.

    The band is cut into one stratum per round of SLOTS instances; the
    instance's round picks the stratum, walked with stride k+1 so that two
    parameters of one instance are not tied together."""
    rounds = max(count // SLOTS, 1)
    stratum = ((index // SLOTS) * (k + 1) + k) % rounds
    u = (stratum + rng.random()) / rounds
    if isinstance(lo, int):
        return lo + min(int(u * (hi - lo + 1)), hi - lo)
    return lo + u * (hi - lo)


# ----------------------------------------------------------------------
# lazy_chain: open domains, support seeking and acquisition, no search

def _drained(domain) -> list:
    kind, payload = domain
    return list(range(payload[0], payload[1] + 1)) if kind == "range" else list(payload)


def _balanced(rng: random.Random, choices: tuple, n: int) -> list:
    """n items cycling through choices, shuffled: each choice appears
    n // len(choices) or one more times, so instances of one slot differ
    less in cost than independent picks would make them."""
    items = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(items)
    return items


def _open_domain(rng: random.Random, kind: str, width: int):
    lo = rng.randint(-10, 20)
    if kind == "range":
        return ("range", (lo, lo + width - 1))
    return ("script", tuple(rng.sample(range(lo, lo + 2 * width), width)))


def _lazy_chain_spec(rng: random.Random, index: int, count: int):
    slot = index % SLOTS
    if slot == 0:
        n = _pick(rng, 30, 40, index, count)
        domains = [("range", (0, 100))] * n
        constraints = [("lt", (i, i + 1)) for i in range(n - 1)]
        return "open-lt-chain", f"n={n} range=0..100", domains, constraints
    # Bands stop at 12 variables: monotone chains of 14 or more over
    # shuffled scripts of 40-60 values already overflow the recursion limit
    # today, which would put failures outside slot 0.
    n_band, width_band = ((3, 8), (4, 20)) if slot <= 11 else \
        ((6, 10), (8, 30)) if slot <= 17 else ((9, 12), (20, 45))
    n = _pick(rng, *n_band, index, count)
    width = _pick(rng, *width_band, index, count, 1)
    domains = [_open_domain(rng, kind, width)
               for kind in _balanced(rng, ("range", "script"), n)]
    style = ("monotone", "mixed", "ne", "mixed")[(slot + index // SLOTS) % 4]
    if style == "monotone":
        ops = [("lt", "le", "gt")[(slot + index // SLOTS) % 3]] * (n - 1)
    elif style == "mixed":
        ops = _balanced(rng, ("lt", "le", "gt", "ne"), n - 1)
    else:
        ops = _balanced(rng, ("ne", "ne", "ne", "lt"), n - 1)
    constraints = [(op, (i, i + 1)) for i, op in enumerate(ops)]
    windows = 0
    if width <= 15 and rng.random() < 0.5:
        # Short sum windows over neighbours, with a constant some drained
        # tuple reaches.
        for _ in range(rng.randint(1, 2)):
            arity = rng.randint(2, 3)
            start = rng.randrange(n - arity + 1)
            args = tuple(range(start, start + arity))
            k = sum(rng.choice(_drained(domains[a])) for a in args)
            constraints.append((f"sum_eq_const:{k}", args))
            windows += 1
    size = f"n={n} width={width} style={style} windows={windows}"
    return f"open-{style}-chain", size, domains, constraints


class LazyChain:
    """Open chains of lt/le/gt/ne over source-backed domains, solve() only."""

    name = "lazy_chain"
    count = 400
    time_limit = 10.0

    def instances(self, seed: int, count: int) -> list:
        out = []
        for i in range(count):
            instance_seed, rng = instance_rng(self.name, seed, i)
            kind, size, domains, constraints = _lazy_chain_spec(rng, i, count)
            supply = sum(len(_drained(d)) + 1 for d in domains)
            out.append(Instance(i, instance_seed, kind, size,
                                (tuple(domains), tuple(constraints)), 0, supply))
        return out

    def setup(self, spec, new_engine=Engine):
        domains, constraints = spec
        engine = new_engine()
        for i, (kind, payload) in enumerate(domains):
            iset = engine.new_iset(name=f"d{i}")
            source = RangeSource(*payload) if kind == "range" else ScriptedSource(payload)
            engine.register_source(iset, source)
            engine.new_fd_variable(iset, name=f"x{i}")
        for name, args in constraints:
            engine.post_fd_constraint(name, list(args))
        return engine

    def verdict(self, engine):
        return engine.solve()

    def acquisitions(self, engine, outcome) -> int:
        return len(engine.acquisitions)

    def check(self, instance, engine, consistent) -> "str | None":
        domains, constraints = instance.spec
        world = {i: _drained(d) for i, d in enumerate(domains)}
        checked = [(name, list(args), resolve_verifier(name)[2]) for name, args in constraints]
        reference = ac3(ClosedCsp(world, checked))
        if consistent != reference.consistent:
            return f"verdict {consistent}, ac3 over the drained world says {reference.consistent}"
        if len(engine.acquisitions) > instance.supply:
            return f"{len(engine.acquisitions)} acquisitions exceed the supply {instance.supply}"
        if not consistent:
            return None
        present = {i: engine.present(i) for i in world}
        for i, values in present.items():
            if not values:
                return f"x{i} has no present value on a consistent verdict"
            if not set(values) <= set(reference.domains[i]):
                return f"x{i} keeps values outside the arc-consistent drained domain"
        if not is_known_arc_consistent(present, checked):
            return "present values are not known-arc-consistent"
        return None


# ----------------------------------------------------------------------
# closed_search: fully known domains, solve() then label()

def _queens_spec(n: int):
    domains = [tuple(range(n))] * n
    constraints = [("diag", (i, j), j - i) for i in range(n) for j in range(i + 1, n)]
    return domains, constraints


def _random_binary_spec(rng: random.Random, index: int, count: int):
    n, d = _pick(rng, 10, 14, index, count), _pick(rng, 5, 7, index, count, 1)
    density = _pick(rng, 0.25, 0.4, index, count, 2)
    tightness = _pick(rng, 0.25, 0.45, index, count, 3)
    domains = [tuple(range(d))] * n
    pairs = [(a, b) for a in range(d) for b in range(d)]
    constraints = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                allowed = rng.sample(pairs, round(len(pairs) * (1 - tightness)))
                constraints.append(("table", (i, j), tuple(sorted(allowed))))
    size = f"n={n} d={d} density={density:.2f} tightness={tightness:.2f}"
    return size, domains, constraints


def _closed_verifier(kind: str, param):
    if kind == "diag":
        return lambda v, d=param: v[0] != v[1] and abs(v[0] - v[1]) != d
    if kind == "table":
        allowed = frozenset(param)
        return lambda v: (v[0], v[1]) in allowed
    return resolve_verifier(kind)[2]


def _reference_solution(domains, constraints) -> "dict | None":
    """Forward-checking search with smallest-domain-first ordering."""
    neighbours = {i: [] for i in range(len(domains))}
    for kind, (a, b), param in constraints:
        verifier = _closed_verifier(kind, param)
        neighbours[a].append((b, lambda x, y, f=verifier: f([x, y])))
        neighbours[b].append((a, lambda y, x, f=verifier: f([x, y])))

    def search(live: dict, assignment: dict):
        if not live:
            return dict(assignment)
        var = min(live, key=lambda k: len(live[k]))
        for value in live[var]:
            pruned = {k: v for k, v in live.items() if k != var}
            for other, ok in neighbours[var]:
                if other in pruned:
                    pruned[other] = [y for y in pruned[other] if ok(value, y)]
                    if not pruned[other]:
                        break
            else:
                assignment[var] = value
                found = search(pruned, assignment)
                if found is not None:
                    return found
                del assignment[var]
        return None

    return search({i: list(d) for i, d in enumerate(domains)}, {})


class ClosedSearch:
    """n-queens and random binary CSPs over closed domains: solve() + label()."""

    name = "closed_search"
    count = 100
    time_limit = 10.0

    def instances(self, seed: int, count: int) -> list:
        out = []
        for i in range(count):
            instance_seed, rng = instance_rng(self.name, seed, i)
            slot = i % SLOTS
            if slot == 0:
                if (i // SLOTS) % 2 == 0:
                    kind, size = "closed-lt-chain", "n=30 d=30"
                    domains = [tuple(range(30))] * 30
                    constraints = [("lt", (j, j + 1), None) for j in range(29)]
                else:
                    kind, size = "closed-ne-chain", "n=500 d=2"
                    domains = [(0, 1)] * 500
                    constraints = [("ne", (j, j + 1), None) for j in range(499)]
            elif slot <= 12:
                n = 8 + (slot - 1) % 6
                kind, size = "queens", f"n={n}"
                domains, constraints = _queens_spec(n)
            else:
                kind = "random-binary"
                size, domains, constraints = _random_binary_spec(rng, i, count)
            given = sum(len(d) for d in domains)
            out.append(Instance(i, instance_seed, kind, size,
                                (tuple(domains), tuple(constraints)), given, 0))
        return out

    def setup(self, spec, new_engine=Engine):
        domains, constraints = spec
        engine = new_engine()
        for i, domain in enumerate(domains):
            iset = engine.new_iset(domain, open=False, name=f"d{i}")
            engine.new_fd_variable(iset, name=f"x{i}")
        for n, (kind, args, param) in enumerate(constraints):
            verifier = None if param is None else _closed_verifier(kind, param)
            name = kind if param is None else f"{kind}{n}"
            engine.post_fd_constraint(name, list(args), verifier)
        return engine

    def verdict(self, engine):
        consistent = engine.solve()
        return consistent, (engine.label() if consistent else None)

    def acquisitions(self, engine, outcome) -> int:
        return len(engine.acquisitions)

    def check(self, instance, engine, outcome) -> "str | None":
        consistent, solution = outcome
        domains, constraints = instance.spec
        checked = [(kind, list(args), _closed_verifier(kind, param))
                   for kind, args, param in constraints]
        reference = ac3(ClosedCsp(dict(enumerate(domains)), checked))
        if consistent != reference.consistent:
            return f"solve() said {consistent}, ac3 says {reference.consistent}"
        if solution is not None:
            if sorted(solution) != list(range(len(domains))):
                return "label() did not assign every variable"
            for i, value in solution.items():
                if value not in domains[i]:
                    return f"label() gave x{i}={value!r} outside its domain"
            for kind, args, verifier in checked:
                if not verifier([solution[a] for a in args]):
                    return f"label() violates {kind} on {args}"
        elif consistent and _reference_solution(domains, constraints) is not None:
            return "label() found nothing, but a solution exists"
        return None


# ----------------------------------------------------------------------
# set_network: generated problem files through the CLI

_ATOMS = [f"e{i}" for i in range(24)]


def _set_network_spec(rng: random.Random, index: int, count: int):
    """A problem file plus the structure that defines its drained world.

    Sourced base sets only ever act as operands or as inclusion subsets, so
    propagation never pushes an element into them that their script still
    holds; every inclusion holds in the drained world by construction.
    """
    universe = list(range(60)) + _ATOMS
    lines, world = [], {}
    bases, sourced = [], []
    nbases = _pick(rng, 10, 16, index, count)
    fd_bases = set(rng.sample(range(nbases), rng.randint(2, 4)))
    given = supply = 0
    for b in range(nbases):
        name = f"b{b}"
        elements = rng.sample(universe, rng.randint(8, 40))
        if b in fd_bases:
            initial, script = [], elements[:rng.randint(1, 6)]
        elif rng.random() < 0.5:
            initial, script = elements, None
        else:
            cut = rng.randint(1, len(elements))
            initial, script = elements[:cut], elements[cut:]
        body = ",".join(map(str, initial))
        lines.append(f"iset {name} {'open' if script is not None else 'closed'} {{{body}}}")
        if script is not None:
            lines.append(f"source {name} script [{','.join(map(str, script))}]")
            sourced.append(name)
            supply += len(script) + 1
        given += len(initial)
        world[name] = set(initial) | set(script or ())
        bases.append(name)
    derived, unions = [], []
    for d in range(_pick(rng, 20, 40, index, count, 1)):
        name = f"s{d}"
        pool = bases + derived
        a, b = rng.sample(pool[-8:] if rng.random() < 0.5 else pool, 2)
        kind = rng.choice(("union", "union", "intersection", "difference"))
        lines.append(f"iset {name} open {{}}")
        lines.append(f"isetc {kind} {a} {b} {name}")
        if kind == "union":
            world[name] = world[a] | world[b]
            unions.append((name, a, b))
        elif kind == "intersection":
            world[name] = world[a] & world[b]
        else:
            world[name] = world[a] - world[b]
        derived.append(name)
    for name, a, b in unions:
        if rng.random() < 0.3:
            lines.append(f"isetc inclusion {rng.choice((a, b))} {name}")
    for h in range(rng.randint(3, 6)):
        hub = f"h{h}"
        lines.append(f"iset {hub} open {{}}")
        world[hub] = set()
        for name in rng.sample(bases + derived, rng.randint(4, 12)):
            lines.append(f"isetc inclusion {name} {hub}")
            world[hub] |= world[name]
    var_domains = {}
    for b in sorted(fd_bases):
        var = f"x{b}"
        lines.append(f"var {var} :: b{b}")
        var_domains[var] = f"b{b}"
    names = list(var_domains)
    ne_pairs = [(p, q) for i, p in enumerate(names) for q in names[i + 1:]
                if rng.random() < 0.7] or [tuple(names[:2])]
    for p, q in ne_pairs:
        lines.append(f"fdc ne {p} {q}")
    spec = {"text": "\n".join(lines) + "\n", "world": world,
            "var_domains": var_domains, "ne": ne_pairs}
    size = f"bases={nbases} derived={len(derived)} vars={len(names)} lines={len(lines)}"
    return size, spec, given, supply


_TRACE_RE = re.compile(r"(INSERT|CLOSE|ACQUIRE) (\S+)(?: (\S+))?")
_DOMAIN_RE = re.compile(r"DOMAIN (\S+) present=\[(.*)\] removed=\[(.*)\]")


def _element(text: str):
    return int(text) if re.fullmatch(r"-?\d+", text) else text


def _elements(body: str) -> list:
    return [_element(t) for t in body.split(",")] if body else []


class SetNetwork:
    """Set-algebra networks with a light ne layer, parsed and run by the CLI."""

    name = "set_network"
    count = 400
    time_limit = 10.0

    def instances(self, seed: int, count: int) -> list:
        out = []
        for i in range(count):
            instance_seed, rng = instance_rng(self.name, seed, i)
            size, spec, given, supply = _set_network_spec(rng, i, count)
            out.append(Instance(i, instance_seed, "set-network", size, spec, given, supply))
        return out

    def setup(self, spec, new_engine=None):
        return cli.parse(spec["text"])

    def verdict(self, problem):
        out = io.StringIO()
        code = cli.run(problem, trace=True, out=out)
        return code, out.getvalue()

    def acquisitions(self, problem, outcome) -> int:
        return outcome[1].count("\nACQUIRE ") + outcome[1].startswith("ACQUIRE ")

    def check(self, instance, problem, outcome) -> "str | None":
        code, text = outcome
        world = instance.spec["world"]
        known = {name: set() for name in world}
        closed, result, domains = set(), None, {}
        for line in text.splitlines():
            if line.startswith("RESULT "):
                result = line.split()[1]
                continue
            m = _DOMAIN_RE.fullmatch(line)
            if m:
                domains[m.group(1)] = (_elements(m.group(2)), _elements(m.group(3)))
                continue
            m = _TRACE_RE.fullmatch(line)
            if m and m.group(1) == "INSERT":
                element = _element(m.group(3))
                if element not in world[m.group(2)]:
                    return f"{element!r} entered {m.group(2)} but is not in its drained value"
                known[m.group(2)].add(element)
            elif m and m.group(1) == "CLOSE":
                closed.add(m.group(2))
        for name in closed:
            if known[name] != world[name]:
                return f"{name} closed with {len(known[name])} of {len(world[name])} elements"
        var_domains = instance.spec["var_domains"]
        verifier = resolve_verifier("ne")[2]
        constraints = [("ne", [p, q], verifier) for p, q in instance.spec["ne"]]
        reference = ac3(ClosedCsp({v: sorted(world[d], key=str) for v, d in var_domains.items()},
                                  constraints))
        expected = "consistent" if reference.consistent else "inconsistent"
        if result != expected or code != (0 if reference.consistent else 1):
            return f"RESULT {result} (exit {code}), reference says {expected}"
        if set(domains) != set(var_domains):
            return "DOMAIN lines do not match the variables"
        for var, (present, removed) in domains.items():
            if not set(present) <= known[var_domains[var]]:
                return f"{var} has present values its iset never received"
            if set(present) & set(removed):
                return f"{var} lists a value as both present and removed"
            if result == "consistent" and not present:
                return f"{var} has no present value on a consistent verdict"
        if result == "consistent" and not is_known_arc_consistent(
                {v: present for v, (present, _) in domains.items()}, constraints):
            return "printed DOMAIN lines are not known-arc-consistent"
        if self.acquisitions(problem, outcome) > instance.supply:
            return "more acquisitions than the sources hold"
        return None


WORKLOADS = {w.name: w for w in (LazyChain(), ClosedSearch(), SetNetwork())}
