"""Spans around the public entry points of each icsp layer, from outside.

Nothing under src/ is edited. A traced engine is an ordinary Engine whose
public methods are replaced, on that one object, by timing wrappers; the
constraints it creates get a wrapped verify and the sources registered on
it a wrapped next. For the CLI the module globals parse, build,
format_trace_entry and Engine are swapped for the duration of a traced
pass.

A span is (span id, name, start, end, parent span id, instance index).
Self time is a span's duration minus the time its direct children cover;
the engine is single-threaded, so children never overlap. The three
per-element boundaries (fd.verify, acquisition.next, cli.format) run
millions of times on the larger workloads: their calls and times are
accumulated but no span record is kept for them, which keeps memory flat.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from icsp import Engine, cli

_UNRECORDED = frozenset({"fd.verify", "acquisition.next", "cli.format"})


class Tracer:
    def __init__(self):
        self.totals: Counter = Counter()
        self.spans: list = []
        self._current: Counter = Counter()
        self._spans: list = []
        self._stack: list = []
        self._engines: list = []
        self._next_id = 0
        self._instance = None

    # ------------------------------------------------------------------
    # spans

    def wrap(self, name: str, fn, tally=None):
        """Time every call of fn as a span called name.

        tally(result) may name an extra counter to bump for that call."""
        record = name not in _UNRECORDED
        calls, self_s = name + ".calls", name + ".self_s"

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            stack = self._stack
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                current = self._current
                current[calls] += 1
                current[self_s] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if record:
                    self._spans.append((span_id, name, start, end,
                                        parent[0] if parent else None, self._instance))
            if tally is not None:
                key = tally(result)
                if key is not None:
                    self._current[key] += 1
            return result

        return traced

    def begin(self, instance: int) -> None:
        self._instance = instance
        self._current = Counter()
        self._spans = []
        self._stack = []
        self._engines = []

    def end(self, keep: bool) -> None:
        """Close the instance; its counts and spans enter the totals only
        when keep is true (an instance that failed is left out)."""
        if keep:
            for engine in self._engines:
                self._fold_engine(engine)
            self.totals.update(self._current)
            self.spans.extend(self._spans)
        self.begin(None)

    def _fold_engine(self, engine) -> None:
        tags = Counter(entry[0] for entry in engine.trace)
        current = self._current
        current["isets.events"] += tags["INSERT"] + tags["CLOSE"]
        for tag, key in (("CANDIDATE", "candidates"), ("OBSERVE", "observed"),
                         ("RELY", "rely"), ("PRESENT", "present"), ("REMOVE", "removed")):
            current["engine." + key] += tags[tag]
        current["engine.log_entries"] += (len(engine.trace) + len(engine.transitions)
                                          + len(engine.acquisitions))
        over = {}
        for var in engine.variables:
            over.setdefault(var.def_domain, []).append(var.id)
        for iset, _var, element in engine.acquisitions:
            if element is None:
                continue
            current["acquisition.replies"] += 1
            if any(element in engine.present(v) for v in over.get(iset, ())):
                current["acquisition.useful"] += 1

    # ------------------------------------------------------------------
    # instrumented objects

    def new_engine(self) -> Engine:
        engine = Engine()
        wrap = self.wrap
        for method in ("solve", "label", "kac_fixpoint", "propagate_isets"):
            setattr(engine, method, wrap("engine." + method, getattr(engine, method)))
        engine.acquire = wrap("acquisition.acquire", engine.acquire)
        store = engine.isets
        for method in ("fixpoint", "post", "get_state", "set_state"):
            setattr(store, method, wrap("isets." + method, getattr(store, method)))

        post_fd_constraint = engine.post_fd_constraint
        register_source = engine.register_source

        def post_traced(*args, **kwargs):
            cid = post_fd_constraint(*args, **kwargs)
            constraint = engine.fd_constraint(cid)
            constraint.verify = wrap("fd.verify", constraint.verify,
                                     lambda ok: "fd.verify.true" if ok else None)
            return cid

        def register_traced(iset, source):
            source.next = wrap("acquisition.next", source.next,
                               lambda e: "acquisition.exhausted" if e is None else None)
            register_source(iset, source)

        engine.post_fd_constraint = post_traced
        engine.register_source = register_traced
        self._engines.append(engine)
        return engine

    @contextmanager
    def cli_patched(self):
        saved = {name: getattr(cli, name)
                 for name in ("Engine", "parse", "build", "format_trace_entry")}
        cli.Engine = self.new_engine
        cli.parse = self.wrap("cli.parse", saved["parse"])
        cli.build = self.wrap("cli.build", saved["build"])
        cli.format_trace_entry = self.wrap("cli.format", saved["format_trace_entry"])
        try:
            yield
        finally:
            for name, value in saved.items():
                setattr(cli, name, value)

    # ------------------------------------------------------------------
    # results

    def layer_metrics(self) -> dict:
        """Per-layer numbers over every kept instance, as (value, unit)."""
        t = self.totals

        def ratio(num, den):
            return t[num] / t[den] if t[den] else 0.0

        count, seconds = "count", "s"
        return {
            "isets.fixpoint.calls": (t["isets.fixpoint.calls"], count),
            "isets.fixpoint.self_s": (t["isets.fixpoint.self_s"], seconds),
            "isets.events": (t["isets.events"], count),
            "isets.post.self_s": (t["isets.post.self_s"], seconds),
            "isets.state.calls": (t["isets.get_state.calls"] + t["isets.set_state.calls"], count),
            "isets.state.self_s": (t["isets.get_state.self_s"] + t["isets.set_state.self_s"],
                                   seconds),
            "fd.verify.calls": (t["fd.verify.calls"], count),
            "fd.verify.self_s": (t["fd.verify.self_s"], seconds),
            "fd.verify.true_ratio": (ratio("fd.verify.true", "fd.verify.calls"), "ratio"),
            "engine.solve.self_s": (t["engine.solve.self_s"], seconds),
            "engine.kac_fixpoint.calls": (t["engine.kac_fixpoint.calls"], count),
            "engine.kac_fixpoint.self_s": (t["engine.kac_fixpoint.self_s"], seconds),
            "engine.propagate_isets.self_s": (t["engine.propagate_isets.self_s"], seconds),
            "engine.candidates": (t["engine.candidates"], count),
            "engine.observed": (t["engine.observed"], count),
            "engine.rely": (t["engine.rely"], count),
            "engine.present": (t["engine.present"], count),
            "engine.removed": (t["engine.removed"], count),
            "engine.present_ratio": (ratio("engine.present", "engine.observed"), "ratio"),
            "engine.label.self_s": (t["engine.label.self_s"], seconds),
            "engine.label.nodes": (t["isets.get_state.calls"], count),
            "engine.label.restores": (t["isets.set_state.calls"], count),
            "engine.log_entries": (t["engine.log_entries"], count),
            "acquisition.next.calls": (t["acquisition.next.calls"], count),
            "acquisition.exhausted": (t["acquisition.exhausted"], count),
            "acquisition.useful_ratio": (ratio("acquisition.useful", "acquisition.replies"),
                                         "ratio"),
            "acquisition.next.self_s": (t["acquisition.next.self_s"], seconds),
            "acquisition.acquire.self_s": (t["acquisition.acquire.self_s"], seconds),
            "cli.parse.self_s": (t["cli.parse.self_s"], seconds),
            "cli.build.self_s": (t["cli.build.self_s"], seconds),
            "cli.format.calls": (t["cli.format.calls"], count),
            "cli.format.self_s": (t["cli.format.self_s"], seconds),
        }

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "name", "start", "end", "parent", "instance")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(fields, span))) + "\n")
