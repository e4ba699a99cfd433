"""Support search cost: wide constraints and resuming after acquisition."""

import pytest

from icsp import Engine, RangeSource


@pytest.mark.parametrize("domain, k", [([0], 0), ([0, 1], 1)])
def test_wide_sum_solves_at_default_recursion_limit(domain, k):
    # Twelve hundred arguments: a support search that recursed once per
    # argument overflowed the default recursion limit here. The first 1199
    # variables are proven present before the constraint arrives, so the
    # new variable's values are checked against present pools only and the
    # test stays small (observing all 1200 at once records 1.4M arcs).
    eng = Engine()
    d = eng.new_iset(domain, open=False, name="d")
    ids = [eng.new_fd_variable(d, name=f"x{i}") for i in range(1199)]
    assert eng.solve() is True
    ids.append(eng.new_fd_variable(eng.new_iset(domain, open=False), name="last"))
    eng.post_fd_constraint(f"sum_eq_const:{k}", ids)
    assert eng.solve() is True
    assert all(sorted(eng.present(v)) == domain for v in ids)
    assert eng.removed(ids[-1]) == []


class CountingVerifier:
    def __init__(self, check):
        self.check = check
        self.calls = 0

    def __call__(self, values):
        self.calls += 1
        return self.check(values)


def lt_against_range(x_value, k):
    """x in {x_value} closed, y open and fed 1..k by a RangeSource, lt(x, y)."""
    eng = Engine()
    dx = eng.new_iset([x_value], open=False, name="dx")
    dy = eng.new_iset(name="dy")
    source = RangeSource(1, k)
    eng.register_source(dy, source)
    x = eng.new_fd_variable(dx, name="x")
    y = eng.new_fd_variable(dy, name="y")
    lt = CountingVerifier(lambda t: t[0] < t[1])
    eng.post_fd_constraint("lt", [x, y], lt)
    return eng, source, lt


@pytest.mark.parametrize("k", [5, 20, 80])
def test_resume_verifies_each_acquired_element_once(k):
    # x = k-1 is supported only by y = k, the k-th element supplied. Each
    # pass after an acquisition verifies the one new element, so x's seek
    # costs k calls, not 1 + 2 + ... + k. Then each of y's k values is
    # checked once against x's single value: 2k in all.
    eng, _source, lt = lt_against_range(k - 1, k)
    assert eng.solve() is True
    assert len(eng.acquisitions) == k
    assert lt.calls == 2 * k


@pytest.mark.parametrize("k", [5, 20, 80])
def test_exhausted_reply_adds_no_verifier_calls(k):
    # Nothing in 1..k exceeds x = k: k passes of one call each, then the
    # exhausted reply brings nothing new to verify and x is unsupported.
    eng, source, lt = lt_against_range(k, k)
    calls_at_exhaustion = []
    supply = source.next

    def next_recording(iset, ctx):
        element = supply(iset, ctx)
        if element is None:
            calls_at_exhaustion.append(lt.calls)
        return element

    source.next = next_recording
    assert eng.solve() is False
    assert calls_at_exhaustion == [k]
    assert lt.calls == k
