"""Print one digest per benchmark workload of every instance's full record,
and one per slot.

    python3 tools/trace_digests.py --seed 1

icsp is imported from the src/ directory of the checkout that holds this
file, and the instance lists from its bench/workloads.py, which is only
read. Every instance of lazy_chain, closed_search and set_network is built
and run to its verdict once, untimed and unchecked. Its record is the
verdict outcome plus the engine's trace, transition log (which each engine
keeps here, from its first move) and acquisition log; an instance that
raises is recorded by its exception type alone. Two
checkouts that print the same digests made the same choices on every
instance: the same supports, removals and acquisitions in the same order.

Instance i falls in slot i % SLOTS (bench/workloads.py), and each slot
gets a short digest of its own instances' records, so a change confined to
some slots, or to some instance families, shows which ones it touched.

Each workload line also gives verify_calls and source_calls, the verifier
and source calls made over all its instances, label_nodes and restores,
the marks label() took on its undo trail and the restores to them, and
set_handler_calls, the calls to set constraints' on_inserted and
on_closed, the replay at posting included. They are counted as
bench/tracing.py counts them, by replacing each constraint's verify once
it is posted, each source's next as it is registered, each engine's
isets.get_state and set_state, and each set constraint's two handlers as
it is posted, and are left out of the digests.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def instance_record(workload, instance, calls: Counter) -> "tuple[str, str | None]":
    """(record, None) with the record of the instance's outcome and logs,
    or ("raised <type>", <type>) when it crashes. set_network builds its
    engine inside cli.run, so cli.Engine is swapped for a recording factory
    while the instance runs. Every verifier call adds one to
    calls["verify"], every source call one to calls["source"], every mark
    on the undo trail one to calls["label_nodes"], every restore one to
    calls["restores"] and every set handler call one to
    calls["set_handler_calls"]."""
    from icsp import Engine, cli

    engines = []

    def counting(key, fn):
        def counted(*args):
            calls[key] += 1
            return fn(*args)
        return counted

    def new_engine():
        engine = Engine()
        engine.transitions = []  # keep the log, from the engine's first move
        post_fd_constraint = engine.post_fd_constraint
        register_source = engine.register_source
        isets = engine.isets
        post = isets.post

        def post_counted(*args, **kwargs):
            cid = post_fd_constraint(*args, **kwargs)
            constraint = engine.fd_constraint(cid)
            constraint.verify = counting("verify", constraint.verify)
            return cid

        def register_counted(iset, source):
            source.next = counting("source", source.next)
            register_source(iset, source)

        def post_set_counted(constraint):
            for name in ("on_inserted", "on_closed"):
                setattr(constraint, name,
                        counting("set_handler_calls", getattr(constraint, name)))
            post(constraint)

        engine.post_fd_constraint = post_counted
        engine.register_source = register_counted
        isets.get_state = counting("label_nodes", isets.get_state)
        isets.set_state = counting("restores", isets.set_state)
        isets.post = post_set_counted
        engines.append(engine)
        return engine

    cli.Engine = new_engine
    try:
        model = workload.setup(instance.spec, new_engine)
        outcome = workload.verdict(model)
    except Exception as exc:  # a crash is part of the record, by its type
        return f"raised {type(exc).__name__}", type(exc).__name__
    finally:
        cli.Engine = Engine
    logs = [(e.trace, e.transitions, e.acquisitions) for e in engines]
    return repr((outcome, logs)), None


def workload_digest(workload, seed: int, slots: int) -> "tuple[str, list, Counter, Counter]":
    """The workload's digest, one digest per slot, the crash counts and the
    call counts."""
    total = hashlib.sha256()
    per_slot = [hashlib.sha256() for _ in range(slots)]
    crashes: Counter = Counter()
    calls: Counter = Counter()
    for instance in workload.instances(seed, workload.count):
        record, crash = instance_record(workload, instance, calls)
        if crash is not None:
            crashes[crash] += 1
        digest = hashlib.sha256(record.encode()).digest()
        total.update(digest)
        per_slot[instance.index % slots].update(digest)
    return total.hexdigest()[:16], [d.hexdigest()[:8] for d in per_slot], crashes, calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave no cache files under bench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from workloads import SLOTS, WORKLOADS

    for name, workload in WORKLOADS.items():
        digest, slots, crashes, calls = workload_digest(workload, args.seed, SLOTS)
        crashed = ", ".join(f"{kind} x{n}" for kind, n in sorted(crashes.items()))
        print(f"{name} seed={args.seed} instances={workload.count} "
              f"digest={digest} crashed=[{crashed}] verify_calls={calls['verify']} "
              f"source_calls={calls['source']} label_nodes={calls['label_nodes']} "
              f"restores={calls['restores']} "
              f"set_handler_calls={calls['set_handler_calls']}")
        print("  slots " + " ".join(f"{i}:{d}" for i, d in enumerate(slots)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
