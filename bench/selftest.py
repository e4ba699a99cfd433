"""Self-tests of the benchmark itself (not of icsp).

    python3 bench/selftest.py

Run from the root of a checkout. Uses small instance counts so it ends in
well under a minute.
"""

from __future__ import annotations

import unittest

import run

run.import_icsp()

from workloads import WORKLOADS  # noqa: E402  (needs icsp on sys.path)

SEED = 7


class BenchmarkSelfTest(unittest.TestCase):
    def test_same_seed_gives_identical_instances(self):
        for workload in WORKLOADS.values():
            with self.subTest(workload=workload.name):
                first = workload.instances(SEED, 40)
                self.assertEqual(first, workload.instances(SEED, 40))
                self.assertNotEqual(first, workload.instances(SEED + 1, 40))

    def test_traced_run_agrees_with_untraced_run(self):
        for workload in WORKLOADS.values():
            with self.subTest(workload=workload.name):
                plain, _passes = run.measure(workload, SEED, 0, count=20)
                traced, tracer, overhead = run.measure_traced(workload, SEED, 0, count=20)
                self.assertEqual([r.error for r in plain], [r.error for r in traced])
                self.assertEqual([r.signature for r in plain], [r.signature for r in traced])
                self.assertEqual([r.acquisitions for r in plain],
                                 [r.acquisitions for r in traced])
                kept = sum(r.acquisitions for r in plain if r.error is None)
                self.assertEqual(tracer.totals["acquisition.next.calls"], kept)
                self.assertGreater(overhead, 0)

    def test_failed_instance_is_charged_time_limit_and_whole_supply(self):
        workload = WORKLOADS["lazy_chain"]
        # Instance 0 is the open lt chain of 30+ variables that overflows
        # the recursion limit.
        records, _passes = run.measure(workload, SEED, 0, count=1)
        (record,) = records
        self.assertEqual(record.error, "RecursionError")
        metrics = run.end_to_end(workload, records)
        self.assertEqual(metrics["verdict_s_p50"][0], workload.time_limit)
        self.assertEqual(metrics["verdict_s_p90"][0], workload.time_limit)
        self.assertEqual(metrics["elements_supplied"][0], record.instance.supply)
        self.assertEqual(metrics["solved_share"][0], 0)

    def test_wrong_verdict_counts_as_failed(self):
        class Flipped:
            """lazy_chain with every solve() verdict negated."""

            def __getattr__(self, name):
                return getattr(WORKLOADS["lazy_chain"], name)

            def verdict(self, engine):
                return not engine.solve()

        records, _passes = run.measure(Flipped(), SEED, 0, count=3)
        self.assertEqual([r.error for r in records[1:]], ["WrongVerdict"] * 2)


if __name__ == "__main__":
    unittest.main()
