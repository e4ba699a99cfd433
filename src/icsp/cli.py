"""Line-oriented problem files and the command-line runner.

Grammar (one directive per line, `#` starts a comment):

    iset <name> open|closed {e1,e2,...}
    var <name> :: <iset>
    fdc <cname> <var>...
    isetc member <e> <iset>
    isetc union|intersection|difference <a> <b> <c>
    isetc inclusion <a> <b>
    source <iset> script [e1,e2,...]
    source <iset> range <lo>..<hi>
    source <iset> interactive
    option labeling on|off

Names are lowercase atoms, unique per kind, declared before use. Elements
are signed integers or bare lowercase atoms. Every integer, in an element,
a range bound or sum_eq_const:<k>, is written in ASCII as -?[0-9]+ (see
isets.INT). <cname> is one of the built-in verifiers (lt, le, gt, ge, eq,
ne, sum_eq_const:<k>); arbitrary verifiers are a library-only feature.

Exit codes: 0 consistent, 1 inconsistent, 2 an error: a usage or parse
error, a problem file that cannot be read as UTF-8 text, or a source that
breaks its contract (SourceContractError).
"""

import argparse
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .acquisition import InteractiveSource, RangeSource, ScriptedSource
from .engine import Engine
from .errors import Inconsistency, SourceContractError
from .fd import builtin_verifier
from .isets import (
    ATOM as _NAME,
    INT,
    Difference,
    Inclusion,
    Intersection,
    Member,
    Union,
    element_sort_key,
    parse_element,
)

_ISET_RE = re.compile(rf"iset\s+({_NAME})\s+(open|closed)\s+\{{\s*(.*?)\s*\}}\Z")
_VAR_RE = re.compile(rf"var\s+({_NAME})\s+::\s+({_NAME})\Z")
_MEMBER_RE = re.compile(r"isetc\s+member\s+(\S+)\s+(\S+)\Z")
_SCRIPT_RE = re.compile(rf"source\s+{_NAME}\s+script\s+\[\s*(.*?)\s*\]\Z")
_RANGE_RE = re.compile(rf"source\s+{_NAME}\s+range\s+({INT})\.\.({INT})\Z")
_INTERACTIVE_RE = re.compile(rf"source\s+{_NAME}\s+interactive\Z")
_OPTION_RE = re.compile(r"option\s+labeling\s+(on|off)\Z")


class ProblemError(Exception):
    pass


@dataclass
class ProblemFile:
    """Parsed directives in file order, ready to build an engine from."""

    directives: list = field(default_factory=list)
    labeling: bool = False


# The set-constraint kinds that take only iset names, and the source kinds;
# a source directive holds its class's constructor arguments.
_ISETC_CLASSES = {
    "union": Union,
    "intersection": Intersection,
    "difference": Difference,
    "inclusion": Inclusion,
}
_SOURCES = {
    "script": ScriptedSource,
    "range": RangeSource,
    "interactive": InteractiveSource,
}


def _err(lineno, message):
    raise ProblemError(f"line {lineno}: {message}")


def _declare(names, kind, name, lineno):
    if name in names:
        _err(lineno, f"duplicate {kind} {name!r}")
    names.add(name)


def _need(names, kind, wanted, lineno):
    for name in wanted:
        if name not in names:
            _err(lineno, f"undefined {kind} {name!r}")


def _match(regex, line, usage, lineno):
    m = regex.fullmatch(line)
    if m is None:
        _err(lineno, f"expected: {usage}")
    return m.groups()


def _element(text, lineno):
    try:
        return parse_element(text)
    except ValueError:
        _err(lineno, f"bad element {text.strip()!r}")


def _elements(body, lineno):
    return [_element(piece, lineno) for piece in body.split(",")] if body else []


def parse(text: str) -> ProblemFile:
    problem = ProblemFile()
    isets: set = set()
    variables: set = set()
    sourced: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "iset":
            name, mode, body = _match(_ISET_RE, line,
                                      "iset <name> open|closed {e1,e2,...}", lineno)
            _declare(isets, "iset", name, lineno)
            problem.directives.append(("iset", name, mode == "open", _elements(body, lineno)))
        elif head == "var":
            name, iset = _match(_VAR_RE, line, "var <name> :: <iset>", lineno)
            _declare(variables, "var", name, lineno)
            _need(isets, "iset", [iset], lineno)
            problem.directives.append(("var", name, iset))
        elif head == "fdc":
            if len(tokens) < 2:
                _err(lineno, "expected: fdc <cname> <var>...")
            cname, args = tokens[1], tokens[2:]
            try:
                builtin_verifier(cname, len(args))
            except ValueError as exc:
                _err(lineno, str(exc))
            _need(variables, "var", args, lineno)
            problem.directives.append(("fdc", cname, args))
        elif head == "isetc":
            if len(tokens) < 2:
                _err(lineno, f"expected: isetc member|{'|'.join(_ISETC_CLASSES)} ...")
            kind, args = tokens[1], tokens[2:]
            if kind == "member":
                token, iset = _match(_MEMBER_RE, line, "isetc member <e> <iset>", lineno)
                element = _element(token, lineno)
                _need(isets, "iset", [iset], lineno)
                problem.directives.append(("isetc", "member", element, iset))
            elif kind in _ISETC_CLASSES:
                want = _ISETC_CLASSES[kind].ARITY
                if len(args) != want:
                    _err(lineno, f"isetc {kind} takes {want} iset names")
                _need(isets, "iset", args, lineno)
                problem.directives.append(("isetc", kind, *args))
            else:
                _err(lineno, f"unknown iset constraint {kind!r}")
        elif head == "source":
            if len(tokens) < 3:
                _err(lineno, "expected: source <iset> script|range|interactive ...")
            iset, kind = tokens[1], tokens[2]
            _need(isets, "iset", [iset], lineno)
            if iset in sourced:
                _err(lineno, f"{iset!r} already has a source")
            if kind == "script":
                body, = _match(_SCRIPT_RE, line, "source <iset> script [e1,e2,...]", lineno)
                source_args = (_elements(body, lineno),)
            elif kind == "range":
                lo, hi = _match(_RANGE_RE, line, "source <iset> range <lo>..<hi>", lineno)
                source_args = (int(lo), int(hi))
            elif kind == "interactive":
                _match(_INTERACTIVE_RE, line, "source <iset> interactive", lineno)
                source_args = (iset,)
            else:
                _err(lineno, f"unknown source kind {kind!r}")
            sourced.add(iset)
            problem.directives.append(("source", iset, kind, source_args))
        elif head == "option":
            setting, = _match(_OPTION_RE, line, "option labeling on|off", lineno)
            problem.labeling = setting == "on"
        else:
            _err(lineno, f"unknown directive {head!r}")
    return problem


def build(problem: ProblemFile) -> Engine:
    """Construct an engine from parsed directives, in file order.

    A set constraint whose posting derives a contradiction does not stop
    the build: the engine keeps the Inconsistency as its verdict."""
    engine = Engine()
    iset_ids: dict = {}
    var_ids: dict = {}
    for directive in problem.directives:
        tag = directive[0]
        if tag == "iset":
            _, name, open_, elements = directive
            iset_ids[name] = engine.new_iset(elements, open=open_, name=name)
        elif tag == "var":
            _, name, iset = directive
            var_ids[name] = engine.new_fd_variable(iset_ids[iset], name=name)
        elif tag == "fdc":
            _, cname, args = directive
            engine.post_fd_constraint(cname, [var_ids[v] for v in args])
        elif tag == "isetc":
            kind = directive[1]
            if kind == "member":
                constraint = Member(directive[2], iset_ids[directive[3]])
            else:
                constraint = _ISETC_CLASSES[kind](*(iset_ids[n] for n in directive[2:]))
            try:
                engine.post_iset_constraint(constraint)
            except Inconsistency:
                pass  # the engine keeps it, and solve() reports it
        elif tag == "source":
            _, iset, kind, source_args = directive
            engine.register_source(iset_ids[iset], _SOURCES[kind](*source_args))
    return engine


def format_trace_entry(entry) -> str:
    tag = entry[0]
    if tag in ("INSERT", "CANDIDATE", "OBSERVE", "PRESENT", "REMOVE"):
        return f"{tag} {entry[1]} {entry[2]}"
    if tag == "CLOSE":
        return f"CLOSE {entry[1]}"
    if tag == "RELY":
        (v1, e1), (v2, e2) = entry[1], entry[2]
        return f"RELY ({v1},{e1}) ({v2},{e2}) {entry[3]}"
    if tag == "ACQUIRE":
        return f"ACQUIRE {entry[1]} -> {'none' if entry[2] is None else entry[2]}"
    raise ValueError(f"unknown trace entry {entry!r}")


def _domain_line(name, present, removed) -> str:
    fmt = lambda elems: ",".join(map(str, sorted(elems, key=element_sort_key)))
    return f"DOMAIN {name} present=[{fmt(present)}] removed=[{fmt(removed)}]"


def run(problem: ProblemFile, *, trace: bool = False, out=None) -> int:
    """Build, propagate, label if problem.labeling is set, and report: one
    DOMAIN line per declared variable, in declaration order. Returns the
    exit code."""
    out = out if out is not None else sys.stdout
    engine = build(problem)
    consistent = engine.solve()
    if consistent and problem.labeling:
        consistent = engine.label() is not None
    if trace:
        for entry in engine.trace:
            out.write(format_trace_entry(entry) + "\n")
    out.write(f"RESULT {'consistent' if consistent else 'inconsistent'}\n")
    for var in engine.variables:
        out.write(_domain_line(var.name, var.present, var.removed) + "\n")
    return 0 if consistent else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="icsp",
        description="Constraint solving over incrementally-acquired domains.",
    )
    parser.add_argument("problem", help="problem file to solve")
    parser.add_argument("--trace", action="store_true",
                        help="emit one line per propagation event")
    parser.add_argument("--label", action="store_true",
                        help="search for a total assignment after propagation")
    args = parser.parse_args(argv)
    try:
        problem = parse(Path(args.problem).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        print(f"error: {args.problem}: line {line}: not UTF-8 text",
              file=sys.stderr)
        return 2
    except (OSError, ProblemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problem.labeling = problem.labeling or args.label
    try:
        return run(problem, trace=args.trace)
    except SourceContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
