"""Tests for the sort bridge (definition-domain links, candidate injection
ordering) and for the acquisition sources."""

import io

import pytest

from icsp import (
    AcquisitionContext,
    Engine,
    Inclusion,
    InteractiveSource,
    Intersection,
    RangeSource,
    ScriptedSource,
    SourceContractError,
)


# ----------------------------------------------------------------------
# definition-domain links

def test_link_with_empty_domain_has_no_candidates():
    eng = Engine()
    v = eng.new_fd_variable(eng.new_iset())
    assert list(eng.variable(v).candidates) == []


def test_link_replays_known_elements():
    eng = Engine()
    v = eng.new_fd_variable(eng.new_iset([1, 2]))
    assert list(eng.variable(v).candidates) == [1, 2]


def test_two_variables_one_domain_candidate_independently():
    eng = Engine()
    d = eng.new_iset()
    v1 = eng.new_fd_variable(d, name="v1")
    v2 = eng.new_fd_variable(d, name="v2")
    eng.isets.ensure_member(d, 3)
    eng.propagate_isets()
    assert list(eng.variable(v1).candidates) == [3]
    assert list(eng.variable(v2).candidates) == [3]


def test_insertion_into_unlinked_iset_is_quiet():
    eng = Engine()
    d = eng.new_iset()
    eng.isets.ensure_member(d, 3)
    eng.propagate_isets()
    assert [t for t in eng.trace if t[0] == "CANDIDATE"] == []


def test_inclusion_cascade_reaches_both_variables():
    eng = Engine()
    a = eng.new_iset(name="a")
    b = eng.new_iset(name="b")
    va = eng.new_fd_variable(a, name="va")
    vb = eng.new_fd_variable(b, name="vb")
    eng.post_iset_constraint(Inclusion(a, b))
    eng.isets.ensure_member(a, 9)
    eng.propagate_isets()
    assert list(eng.variable(va).candidates) == [9]
    assert list(eng.variable(vb).candidates) == [9]


def test_candidates_injected_only_after_set_quiescence():
    # between an acquisition and the first candidate it causes, the trace
    # may contain only set-level INSERT/CLOSE entries
    eng = Engine()
    dx = eng.new_iset(name="dx")
    dy = eng.new_iset(name="dy")
    dz = eng.new_iset(name="dz")
    for iset, nm in ((dx, "x"), (dy, "y"), (dz, "z")):
        eng.new_fd_variable(iset, name=nm)
    eng.post_iset_constraint(Intersection(dx, dy, dz))
    eng.register_source(dz, ScriptedSource([2]))
    eng.acquire(dz)
    tags = [t[0] for t in eng.trace]
    first_candidate = tags.index("CANDIDATE")
    acquire_at = tags.index("ACQUIRE")
    assert set(tags[acquire_at + 1:first_candidate]) <= {"INSERT", "CLOSE"}
    # and all three set insertions precede every candidate
    assert tags.count("INSERT") == 3
    assert max(i for i, t in enumerate(tags) if t == "INSERT") < first_candidate


def test_an_insertion_reaches_the_variables_after_its_set_consequences():
    eng = Engine()
    c = eng.new_iset(name="c")
    h = eng.new_iset(name="h")
    eng.post_iset_constraint(Inclusion(c, h))
    eng.new_fd_variable(c, name="v")
    eng.isets.ensure_member(c, 5)
    eng.propagate_isets()
    assert eng.trace == [("INSERT", "c", 5), ("INSERT", "h", 5), ("CANDIDATE", "v", 5)]


def test_every_present_and_removed_element_is_in_the_definition_domain():
    eng = Engine()
    dx = eng.new_iset(name="dx")
    dz = eng.new_iset(name="dz")
    x = eng.new_fd_variable(dx, name="x")
    z = eng.new_fd_variable(dz, name="z")
    eng.post_fd_constraint("gt", [z, x])
    eng.register_source(dx, ScriptedSource([1, 9]))
    eng.register_source(dz, ScriptedSource([2]))
    assert eng.solve() is True
    for var, dom in ((x, dx), (z, dz)):
        for e in eng.present(var) + eng.removed(var):
            assert e in eng.isets.known(dom)


# ----------------------------------------------------------------------
# sources

def test_scripted_source_then_exhaustion_closes():
    eng = Engine()
    d = eng.new_iset(name="d")
    eng.register_source(d, ScriptedSource([2, 5]))
    assert eng.acquire(d) == 2
    assert eng.acquire(d) == 5
    assert eng.acquire(d) is None
    assert eng.isets.is_closed(d)


@pytest.mark.parametrize("source, replies, served", [
    (ScriptedSource([2, 5]), [2, 5, None, None], [1, 2, 2, 2]),
    (ScriptedSource([]), [None, None], [0, 0]),
    (RangeSource(1, 2), [1, 2, None, None], None),
    (RangeSource(3, 2), [None, None], None),
], ids=repr)
def test_a_source_keeps_reporting_exhaustion(source, replies, served):
    # The engine closes an iset at its source's first None and never asks
    # again, so only a direct call sees the replies after it.
    counts = []
    for reply in replies:
        assert source.next(0, AcquisitionContext()) == reply
        if served is not None:
            counts.append(source.calls_served())
    assert served is None or counts == served


def test_acquire_without_source_closes():
    eng = Engine()
    d = eng.new_iset(name="d")
    assert eng.acquire(d) is None
    assert eng.isets.is_closed(d)


def test_acquire_on_closed_set_is_a_usage_error():
    eng = Engine()
    d = eng.new_iset([1], open=False)
    with pytest.raises(ValueError):
        eng.acquire(d)


@pytest.mark.parametrize("requesting_var", [-1, 1, "x", 0.0, True, False])
def test_acquire_for_an_unknown_variable_is_a_usage_error(requesting_var):
    # -1 would name the last variable, and 1 is past the end; a string or a
    # float is no id at all.
    eng = Engine()
    d = eng.new_iset(name="d")
    source = ScriptedSource([4])
    eng.register_source(d, source)
    eng.new_fd_variable(d, name="x")
    with pytest.raises(ValueError):
        eng.acquire(d, requesting_var=requesting_var)
    assert source.calls_served() == 0
    assert eng.acquisitions == []


def test_range_source_counts_then_closes():
    eng = Engine()
    d = eng.new_iset(name="d")
    eng.register_source(d, RangeSource(1, 3))
    got = [eng.acquire(d) for _ in range(4)]
    assert got == [1, 2, 3, None]
    assert eng.isets.is_closed(d)


def test_rebinding_source_rejected():
    eng = Engine()
    d = eng.new_iset()
    eng.register_source(d, ScriptedSource([1]))
    with pytest.raises(ValueError):
        eng.register_source(d, ScriptedSource([2]))


def test_source_repeating_element_is_diagnosed_not_looped():
    eng = Engine()
    d = eng.new_iset(name="d")
    eng.register_source(d, ScriptedSource([2, 2]))
    assert eng.acquire(d) == 2
    with pytest.raises(SourceContractError):
        eng.acquire(d)


def test_a_repeated_reply_raises_before_anything_is_logged():
    eng = Engine()
    s = eng.new_iset([1], name="s")
    eng.register_source(s, ScriptedSource([1]))
    logs = (list(eng.trace), list(eng.acquisitions), list(eng.isets.queue))
    with pytest.raises(SourceContractError, match="repeated element 1"):
        eng.acquire(s)
    assert (eng.trace, eng.acquisitions, list(eng.isets.queue)) == logs
    assert eng.isets.known_in_order(s) == [1]


def test_repeat_violation_is_not_swallowed_by_solve():
    eng = Engine()
    d = eng.new_iset([], name="d")
    eng.new_fd_variable(d)
    eng.register_source(d, ScriptedSource([7]))
    eng2 = Engine()
    d2 = eng2.new_iset([7], name="d")  # 7 already known
    v2 = eng2.new_fd_variable(d2)
    eng2.post_fd_constraint("lt", [v2, v2])  # unsatisfiable, forces acquisition
    eng2.register_source(d2, ScriptedSource([7]))
    with pytest.raises(SourceContractError):
        eng2.solve()


def test_a_scripted_none_atom_breaks_the_contract_and_is_no_exhaustion():
    # The trace writes exhaustion as "ACQUIRE d -> none"; a reply of the
    # atom would read the same, so it is no element.
    eng = Engine()
    d = eng.new_iset(name="d")
    eng.new_fd_variable(d, name="x")
    eng.register_source(d, ScriptedSource(["none"]))
    with pytest.raises(SourceContractError, match="replied 'none', which is not an element"):
        eng.solve()
    assert eng.acquisitions == [] and eng.trace == []
    assert eng.isets.known_in_order(d) == [] and not eng.isets.is_closed(d)


def test_acquisition_log_records_every_call():
    eng = Engine()
    d = eng.new_iset(name="d")
    v = eng.new_fd_variable(d, name="v")
    eng.register_source(d, ScriptedSource([4]))
    eng.post_fd_constraint("odd", [v], lambda t: t[0] % 2 == 1)
    assert eng.solve() is False  # 4 rejected, then exhaustion wipes out
    assert eng.acquisitions == [(d, v, 4), (d, v, None)]


def test_interactive_source_parses_elements_and_none():
    out = io.StringIO()
    src = InteractiveSource("d", input_stream=io.StringIO("\u0663\n5\nfoo bar\nblue\nnone\n"),
                            output_stream=out)
    ctx = AcquisitionContext(var_name="x")
    assert src.next(0, ctx) == 5  # an Arabic-Indic 3 is no integer: re-prompted
    assert src.next(0, ctx) == "blue"  # "foo bar" is rejected and re-prompted
    assert src.next(0, ctx) is None
    prompts = out.getvalue()
    assert "acquire d for x? " in prompts
    assert "cannot parse element '\u0663'" in prompts
    assert "cannot parse element 'foo bar'" in prompts


def test_interactive_source_flushes_its_prompt_before_it_reads():
    calls = []

    class Logged(io.StringIO):
        def write(self, text):
            calls.append("write")
            return super().write(text)

        def flush(self):
            calls.append("flush")

        def readline(self, *args):
            calls.append("readline")
            return super().readline(*args)

    src = InteractiveSource("d", input_stream=Logged("5\n"), output_stream=Logged())
    assert src.next(0, AcquisitionContext()) == 5
    assert calls == ["write", "flush", "readline"]


def test_interactive_source_eof_means_exhausted():
    src = InteractiveSource("d", input_stream=io.StringIO(""), output_stream=io.StringIO())
    assert src.next(0, AcquisitionContext()) is None
