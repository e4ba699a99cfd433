"""Contract test for the engine hooks the benchmark's traced run relies on.

bench/tracing.py wraps Engine methods, IsetStore.get_state/set_state,
constraint verifiers and sources from outside, and reads the engine's
trace, transition log and acquisition log. This runs one small instance of
each benchmark workload through it and checks that the per-layer counters
it derives from those hooks are still fed, and pins their exact counts.
Its engines keep no transition log, so engine.log_entries counts the trace
and the acquisition log.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402  (from bench/)
import workloads  # noqa: E402  (from bench/)

SEED = 20261017


def run_traced(tracer, name):
    """Run instance 1 of a workload (instance 0 of lazy_chain and
    closed_search is a long chain, slow to run here) through the tracer,
    as a traced benchmark pass does, and return the metric values it
    adds."""
    workload = workloads.WORKLOADS[name]
    instance = workload.instances(SEED, 2)[1]
    before = {k: v for k, (v, _unit) in tracer.layer_metrics().items()}
    tracer.begin(instance.index)
    with tracer.cli_patched():
        model = workload.setup(instance.spec, tracer.new_engine)
        outcome = workload.verdict(model)
    assert workload.check(instance, model, outcome) is None
    tracer.end(keep=True)
    return {k: v - before[k] for k, (v, _unit) in tracer.layer_metrics().items()}


def test_traced_run_feeds_the_per_layer_counters():
    tracer = tracing.Tracer()
    lazy = run_traced(tracer, "lazy_chain")
    assert lazy["fd.verify.calls"] > 0
    assert lazy["engine.log_entries"] > 0
    assert lazy["acquisition.next.calls"] > 0
    closed = run_traced(tracer, "closed_search")
    assert closed["fd.verify.calls"] > 0
    assert closed["engine.log_entries"] > 0
    assert closed["engine.label.nodes"] > 0
    network = run_traced(tracer, "set_network")
    assert network["engine.log_entries"] > 0
    assert network["cli.format.calls"] > 0
    # The exact counts, so that a change hiding work from the hooks fails
    # here rather than only in a digest run.
    pinned = ("fd.verify.calls", "acquisition.next.calls", "engine.log_entries")
    assert [lazy[k] for k in pinned] == [348, 84, 591]
    assert [closed[k] for k in pinned] == [2159, 0, 814]
    assert [closed["engine.label.nodes"], closed["engine.label.restores"]] == [20, 12]
    assert [network[k] for k in pinned] == [2, 2, 1280]
    assert network["cli.format.calls"] == 1278
