"""Run one icsp benchmark workload and print its metrics.

    python3 bench/run.py --workload lazy_chain --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; icsp is imported from its src/ directory.
The workload seed fixes a list of instances. Load model: one client in a
closed loop, in this one single-threaded process: the next instance starts
only when the previous one has a verdict. The first pass over the list
checks every verdict against an independent reference (untimed); further
passes rebuild every model from scratch and repeat until --seconds have
passed, and each instance is then timed as the median of its passes.

With --trace 0 the last line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced pass (see tracing.py), and the
spans are written under .bench_out/ in the checkout. NOTES.md beside this
file explains the workloads, metrics and measurement limits.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
# Reference machine speed: the one at which speed_probe() takes PROBE_S.
PROBE_S = 0.001
PROBE_WINDOW = 10
WORKLOAD_NAMES = ("lazy_chain", "closed_search", "set_network")
# Failures that are the program's fault as a wrong answer, not a crash.
WRONG = ("WrongVerdict", "NondeterministicOutcome", "TraceChangedOutcome")


def import_icsp() -> None:
    """Put the checkout's src/ first on sys.path and insist icsp loads from it."""
    src = ROOT / "src"
    if not (src / "icsp" / "__init__.py").is_file():
        raise SystemExit(f"error: no icsp package under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import icsp

    if Path(icsp.__file__).resolve().parent != (src / "icsp").resolve():
        raise SystemExit(f"error: icsp was imported from {icsp.__file__}, not {src}")


class InstanceTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise InstanceTimeout("instance exceeded the workload time limit")


@dataclass
class Record:
    instance: object
    setup: list = field(default_factory=list)
    verdict: list = field(default_factory=list)
    signature: "bytes | None" = None
    acquisitions: int = 0
    error: "str | None" = None
    detail: str = ""


class _Cell:
    __slots__ = ("name", "state", "items")

    def __init__(self, name):
        self.name, self.state, self.items = name, 0, []

    def push(self, x):
        self.items.append(x)
        self.state = (self.state + x) % 5
        return self.state


def speed_probe() -> float:
    """CPU seconds taken by a fixed piece of pure-Python work (objects,
    method calls, tuples, a set) that shares no code with icsp; it runs
    after every instance to track the machine's speed."""
    start = process_time()
    cells = [_Cell(f"c{i}") for i in range(40)]
    seen = set()
    for i in range(2500):
        cell = cells[(i * 31) % 40]
        seen.add((cell.name, cell.push(i)))
    sorted(seen)
    return process_time() - start


def run_instance(workload, record: Record, new_engine, check: bool):
    """Build the model (timed as set-up), run it to a verdict (timed) and,
    the first time, check the verdict. Returns the CPU seconds (set-up,
    verdict); verdict is None once the instance has failed, and then only
    its set-up is timed again. Returns None if set-up itself raised."""
    instance = record.instance
    try:
        t0 = process_time()
        model = workload.setup(instance.spec, new_engine)
        t1 = process_time()
    except Exception as exc:
        record.error, record.detail = type(exc).__name__, f"in set-up: {exc}"[:200]
        return None
    if record.error is not None:
        return t1 - t0, None
    signal.setitimer(signal.ITIMER_REAL, workload.time_limit)
    try:
        t1 = process_time()
        outcome = workload.verdict(model)
        t2 = process_time()
    except Exception as exc:
        record.error, record.detail = type(exc).__name__, str(exc)[:200]
        return t1 - t0, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    signature = hashlib.blake2b(repr(outcome).encode()).digest()
    acquisitions = workload.acquisitions(model, outcome)
    if record.signature is None:
        record.signature, record.acquisitions = signature, acquisitions
        problem = workload.check(instance, model, outcome) if check else None
        if problem is not None:
            record.error, record.detail = "WrongVerdict", problem
    elif (signature, acquisitions) != (record.signature, record.acquisitions):
        record.error, record.detail = "NondeterministicOutcome", "a later pass disagreed"
    return t1 - t0, (t2 - t1 if record.error is None else None)


def run_pass(workload, records, new_engine, check=False, tracer=None, keep=False) -> None:
    """One closed-loop pass over every instance.

    Each timing is rescaled to reference machine speed: multiplied by
    PROBE_S over the median speed-probe time of the nearest instances in
    the same pass (PROBE_WINDOW on each side)."""
    signal.signal(signal.SIGALRM, _on_alarm)
    timings, probes = [], []
    for record in records:
        gc.collect()  # cheap while the instance list is frozen (see frozen_heap)
        if tracer is not None:
            tracer.begin(record.instance.index)
        timings.append(run_instance(workload, record, new_engine, check))
        if tracer is not None:
            tracer.end(keep and record.error is None)
        probes.append(speed_probe())
    for i, (record, times) in enumerate(zip(records, timings)):
        if times is None:
            continue
        nearby = probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
        scale = PROBE_S / statistics.median(nearby)
        setup, verdict = times
        record.setup.append(setup * scale)
        if verdict is not None:
            record.verdict.append(verdict * scale)


def verdict_time(record: Record, limit: float) -> float:
    return statistics.median(record.verdict) if record.error is None else limit


def end_to_end(workload, records) -> dict:
    times = sorted(verdict_time(r, workload.time_limit) for r in records)
    attempted = len(records)
    failed = sum(r.error is not None for r in records)
    supplied = sum(r.instance.given + (r.acquisitions if r.error is None else r.instance.supply)
                   for r in records)
    return {
        "verdict_s_p50": (statistics.median(times), "s"),
        "verdict_s_p90": (times[math.ceil(0.9 * attempted) - 1], "s"),
        "solved_share": ((attempted - failed) / attempted, "ratio"),
        "elements_supplied": (supplied, "count"),
        "setup_s": (sum(statistics.median(r.setup) for r in records), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def report_failures(workload, seed, records) -> None:
    for r in records:
        if r.error is not None:
            i = r.instance
            print(f"FAILED {workload.name} seed={seed} #{i.index} instance_seed={i.seed} "
                  f"{i.kind} {i.size}: {r.error} {r.detail}".rstrip())


def result_line(records, metrics) -> str:
    failed = sum(r.error is not None for r in records)
    correct = not any(r.error in WRONG for r in records)
    return json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


@contextmanager
def frozen_heap():
    """Move every object alive now out of the collector's sight.

    Instance lists are large and live for the whole run; a full collection
    that scans them costs tens of milliseconds and would land inside some
    instance's timing. Frozen, they cost the collector nothing, so each
    instance starts from a collected heap and pays only for its own
    garbage."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def measure(workload, seed: int, seconds: float, count: "int | None" = None):
    """The untraced run: returns (records, passes)."""
    from icsp import Engine

    records = [Record(i) for i in workload.instances(seed, count or workload.count)]
    start = perf_counter()
    passes = 0
    with frozen_heap():
        while passes < MIN_PASSES or perf_counter() - start < seconds:
            run_pass(workload, records, Engine, check=passes == 0)
            passes += 1
    return records, passes


def measure_traced(workload, seed: int, seconds: float, count: "int | None" = None):
    """An untraced checked pass, then traced and untraced passes in turn.

    Per-layer numbers come from the first traced pass; every traced pass
    must reproduce the untraced outcome. Returns (records, tracer, overhead)
    where overhead is traced over untraced verdict time, summed over the
    instances that did not fail."""
    from icsp import Engine
    from tracing import Tracer

    count = count or workload.count
    records = [Record(i) for i in workload.instances(seed, count)]
    traced = [Record(i) for i in workload.instances(seed, count)]
    tracer = Tracer()
    with frozen_heap():
        run_pass(workload, records, Engine, check=True)
        start = perf_counter()
        passes = 0
        while passes < 1 or perf_counter() - start < seconds:
            with tracer.cli_patched():
                run_pass(workload, traced, tracer.new_engine, tracer=tracer, keep=passes == 0)
            run_pass(workload, records, Engine)
            passes += 1
    for plain, with_spans in zip(records, traced):
        if plain.error in WRONG:
            continue
        if (plain.error, plain.signature, plain.acquisitions) != (
                with_spans.error, with_spans.signature, with_spans.acquisitions):
            plain.error, plain.detail = "TraceChangedOutcome", (
                f"untraced {plain.error or 'ok'}, traced {with_spans.error or 'ok'}")
    ok = [(p, t) for p, t in zip(records, traced) if p.error is None and t.error is None]
    base = sum(statistics.median(p.verdict) for p, _ in ok)
    overhead = sum(statistics.median(t.verdict) for _, t in ok) / base if base else 0.0
    return records, tracer, overhead


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    baseline_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        records, tracer, overhead = measure_traced(workload, seed, seconds)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead"] = (overhead, "ratio")
        spans = ROOT / ".bench_out" / f"spans-{name}-{seed}.jsonl"
        tracer.write_spans(spans)
        print(f"workload {name} seed={seed} traced: {len(records)} instances, "
              f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    else:
        records, passes = measure(workload, seed, seconds)
        metrics = end_to_end(workload, records)
        failed = sum(r.error is not None for r in records)
        acquisitions = sum(r.acquisitions if r.error is None else r.instance.supply
                           for r in records)
        print(f"workload {name} seed={seed}: {len(records)} instances, {passes} timed passes, "
              f"{failed} failed (failed_share {failed / len(records):.4f}), "
              f"{acquisitions} acquisitions, baseline RSS {baseline_mb:.1f} MB")
    report_failures(workload, seed, records)
    width = max(map(len, metrics))
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<{width}}  {value:.6g} {unit}")
    print(result_line(records, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    import_icsp()
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = subprocess.run(command, check=False).returncode or status
    return status


if __name__ == "__main__":
    sys.exit(main())
