"""Run paired benchmark runs of two checkouts and say whether a gain holds.

    python3 tools/ab_pairs.py --parent ../old --change . --workload set_network \
        --seed 20261017 --seconds 30 --pairs 10

Each pair runs `bench/run.py --trace 0` once from each checkout, one after
the other, and the side that goes first alternates from pair to pair. The
metrics are read from the last JSON line each run prints, and whether a
metric is better lower or higher, and its bound, from the change's
BENCHMARK.json.

For every metric the script prints each side's median and quartiles over
its runs and the number of pairs the change won, ties counting for
neither. A gain holds when the change won at least nine tenths of the
pairs and the medians differ, in the better direction, by more than the
distance between the parent's quartiles, and it is judged only from
MIN_PAIRS pairs or more: with fewer the script says the pairs are too
few. For a metric that BENCHMARK.json gives a bound, the last column says
whether the change's median is worse than the parent's by more than that
bound, a share of the parent's median. It also prints each side's
`failed` count per run. The workload must be one that the change's
BENCHMARK.json lists, since each run reports a single workload. Child
runs are told not to write bytecode, so nothing is written under either
checkout's bench/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10


def quartiles(values: list) -> "tuple[float, float, float]":
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(parent: list, change: list, better: str,
              bound: "float | None" = None) -> dict:
    """Compare one metric over pairs: parent[i] and change[i] are the two
    runs of pair i, and better is "lower" or "higher". gain_holds is None
    when there are fewer than MIN_PAIRS pairs to judge from. over_bound
    says whether the change's median is worse than the parent's by more
    than bound times the parent's median; it is None without a bound."""
    sign = -1 if better == "lower" else 1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, p50, p3 = quartiles(parent)
    c1, c50, c3 = quartiles(change)
    gap = sign * (c50 - p50)
    return {
        "parent": (p1, p50, p3),
        "change": (c1, c50, c3),
        "wins": wins,
        "pairs": len(parent),
        "gain_holds": (wins >= 0.9 * len(parent) and gap > p3 - p1
                       if len(parent) >= MIN_PAIRS else None),
        "over_bound": -gap > bound * abs(p50) if bound is not None else None,
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced bench/run.py run from the checkout; its last JSON line."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: bench/run.py in {checkout} exited {done.returncode}:\n"
                         f"{done.stdout}{done.stderr}")
    return json.loads(lines[-1])


def declared(checkout: Path) -> "tuple[list, dict]":
    """The checkout's benchmark workload names, and each end-to-end
    metric's declaration by name: whether it is better lower or higher,
    and its bound."""
    benchmark = json.loads((checkout / "BENCHMARK.json").read_text())
    return ([w["name"] for w in benchmark["workloads"]],
            {m["name"]: m for m in benchmark.get("end_to_end", ())})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads, metrics = declared(sides["change"])
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    runs: dict = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, args.seed, args.seconds))
        p50 = [runs[side][-1]["metrics"]["verdict_s_p50"]["value"]
               for side in ("parent", "change")]
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): verdict_s_p50 "
              f"parent {p50[0]:.6g} change {p50[1]:.6g}", flush=True)
    print(f"\n{args.workload} seed={args.seed} seconds={args.seconds} pairs={args.pairs}")
    for side in ("parent", "change"):
        print(f"  {side} failed per run: {[run['failed'] for run in runs[side]]}")
    print(f"  {'metric':<18} {'parent q1 / p50 / q3':>36} {'change q1 / p50 / q3':>36}"
          f"  won  {'gain holds':<13}  over bound")
    for name in runs["parent"][0]["metrics"]:
        declaration = metrics.get(name, {})
        row = summarise([r["metrics"][name]["value"] for r in runs["parent"]],
                        [r["metrics"][name]["value"] for r in runs["change"]],
                        declaration.get("better", "lower"), declaration.get("bound"))
        cells = ["{:.6g} / {:.6g} / {:.6g}".format(*row[side]) for side in ("parent", "change")]
        holds = {True: "yes", False: "no", None: "too few pairs"}[row["gain_holds"]]
        over = {True: "yes", False: "no", None: "-"}[row["over_bound"]]
        print(f"  {name:<18} {cells[0]:>36} {cells[1]:>36}"
              f"  {row['wins']:>2}/{row['pairs']}  {holds:<13}  {over}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
