"""Pluggable element suppliers for open sets.

A source hands the engine at most one new element per call for a given
iset, never the same element twice, and reports exhaustion once it has
nothing left. Exhaustion closes the iset. Sources are invoked synchronously
on the engine's thread and must not call back into the engine.
"""

import operator
import sys
from dataclasses import dataclass

from .isets import Element, parse_element


@dataclass
class AcquisitionContext:
    """Read-only advisory data passed to a source on every call.

    Sources may ignore all of it. var_name duplicates requesting_var in
    display form so prompting sources need no engine access.
    """

    requesting_var: "int | None" = None
    requesting_constraint: "str | None" = None
    var_name: "str | None" = None


class AcquisitionSource:
    """Behavioral contract: next() returns a fresh element or None.

    None means exhausted; after reporting exhaustion for an iset a source
    must keep reporting it. The engine keeps every reply that search undoes
    and replays it, per iset and in order, before it calls the source again.
    """

    def next(self, iset: int, ctx: AcquisitionContext) -> "Element | None":
        raise NotImplementedError


class ScriptedSource(AcquisitionSource):
    """Replays a fixed element list in order, then exhausts forever."""

    def __init__(self, elements):
        self.elements = list(elements)
        self._rest = iter(self.elements)

    def next(self, iset, ctx):
        return next(self._rest, None)

    def calls_served(self) -> int:
        return len(self.elements) - operator.length_hint(self._rest)

    def __repr__(self):
        return f"ScriptedSource({self.elements!r})"


class RangeSource(AcquisitionSource):
    """Counts through the closed integer range lo..hi, then exhausts."""

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi
        self._rest = iter(range(lo, hi + 1))

    def next(self, iset, ctx):
        return next(self._rest, None)

    def __repr__(self):
        return f"RangeSource({self.lo}..{self.hi})"


class InteractiveSource(AcquisitionSource):
    """Prompts a text stream for elements.

    Prompts go to output_stream, standard error by default, so standard
    output carries only what the caller writes there (the CLI's trace and
    result). Replies are read from input_stream, standard input by
    default. A line that parse_element reads, an ASCII integer or a bare
    lowercase atom, is an element; the literal line "none" (or end of
    input) means exhausted.
    Unparsable lines are reported and re-prompted. Each line is read once:
    a reply that search undoes is replayed by the engine, not asked for
    again.
    """

    def __init__(self, iset_name: str, input_stream=None, output_stream=None):
        self.iset_name = iset_name
        self.input_stream = input_stream
        self.output_stream = output_stream

    def next(self, iset, ctx):
        inp = self.input_stream if self.input_stream is not None else sys.stdin
        out = self.output_stream if self.output_stream is not None else sys.stderr
        while True:
            who = ctx.var_name if ctx.var_name is not None else "-"
            out.write(f"acquire {self.iset_name} for {who}? ")
            out.flush()
            line = inp.readline()
            if not line:
                return None
            line = line.strip()
            if line == "none":
                return None
            try:
                return parse_element(line)
            except ValueError:
                out.write(f"cannot parse element {line!r}\n")
