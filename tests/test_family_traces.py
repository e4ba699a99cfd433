"""Exact traces on the benchmark families, pinned in the tier-1 suite.

tools/trace_digests.py digests every instance of every benchmark workload,
which takes about 8 s for the three workloads at one seed (Python 3.11 on
a shared 2-core machine). This test builds the same per-instance record,
with the tool's own instance_record, for every third instance of 1-39 of
each workload at one seed, and pins the sha256 of those records and the
calls counted while they ran. A change to the supports, removals,
acquisitions or their order on these families, or to the work the engine
asks of verifiers, sources, the undo trail or set handlers, fails here.
"""

import hashlib
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "tools"))

import trace_digests  # noqa: E402  (from tools/)
import workloads  # noqa: E402  (from bench/)

SEED = 20261017
CALLS = ("verify", "source", "label_nodes", "restores", "set_handler_calls")

PINNED = {
    "lazy_chain": ("7ac69343144b91de487dd896193ef253ed3899be09fa23fa895ced3d99bcefe8",
                   [3003, 514, 0, 0, 0]),
    "closed_search": ("25bd389084f48d0b7dabca08b9a39ab35b36fb574a7c730136eeeadfa3dd3a7e",
                      [33327, 0, 236, 104, 0]),
    "set_network": ("1a798ca6841f7a53182795e2cea950900b788fd220029c2ed7f63dbaec8df221",
                    [64, 39, 0, 0, 35311]),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_records_and_call_counts_are_pinned(name):
    workload = workloads.WORKLOADS[name]
    digest, calls = hashlib.sha256(), Counter()
    for instance in workload.instances(SEED, workload.count)[1:40:3]:
        record, _crash = trace_digests.instance_record(workload, instance, calls)
        digest.update(hashlib.sha256(record.encode()).digest())
    assert (digest.hexdigest(), [calls[k] for k in CALLS]) == PINNED[name]
