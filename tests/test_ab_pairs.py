"""The summary that tools/ab_pairs.py prints for each metric, on fixed
numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

PARENT = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]  # quartiles 12.25 / 14.5 / 16.75


def test_quartiles_are_inclusive_and_a_single_run_is_its_own():
    assert ab_pairs.quartiles(PARENT) == (12.25, 14.5, 16.75)
    assert ab_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_a_gain_holds_when_every_pair_wins_by_more_than_the_parent_iqr():
    row = ab_pairs.summarise(PARENT, [p - 5 for p in PARENT], "lower")
    assert row["wins"] == 10 and row["pairs"] == 10
    assert row["parent"] == (12.25, 14.5, 16.75)
    assert row["change"] == (7.25, 9.5, 11.75)
    assert row["gain_holds"] is True  # gap 5 > IQR 4.5


def test_a_gain_does_not_hold_when_the_gap_is_within_the_parent_iqr():
    row = ab_pairs.summarise(PARENT, [p - 4 for p in PARENT], "lower")
    assert row["wins"] == 10
    assert row["gain_holds"] is False  # gap 4 <= IQR 4.5


@pytest.mark.parametrize("lost, tied, holds", [(1, 0, True), (2, 0, False), (0, 2, False)])
def test_nine_tenths_of_the_pairs_must_be_won_and_ties_count_for_neither(lost, tied, holds):
    change = [p - 10 for p in PARENT]
    for i in range(lost):
        change[i] = PARENT[i] + 1
    for i in range(lost, lost + tied):
        change[i] = PARENT[i]
    row = ab_pairs.summarise(PARENT, change, "lower")
    assert row["wins"] == 10 - lost - tied
    assert row["gain_holds"] is holds


def test_higher_is_better_turns_the_comparison_round():
    up = ab_pairs.summarise(PARENT, [p + 5 for p in PARENT], "higher")
    down = ab_pairs.summarise(PARENT, [p + 5 for p in PARENT], "lower")
    assert (up["wins"], up["gain_holds"]) == (10, True)
    assert (down["wins"], down["gain_holds"]) == (0, False)


def test_fewer_than_the_minimum_pairs_judge_no_gain():
    row = ab_pairs.summarise(PARENT[:9], [p - 5 for p in PARENT[:9]], "lower")
    assert row["wins"] == 9 and row["pairs"] == 9
    assert row["gain_holds"] is None


@pytest.mark.parametrize("better, factor, over", [
    ("lower", 1.3, True),    # 30% slower, beyond a 0.25 bound
    ("lower", 1.2, False),   # 20% slower, within it
    ("lower", 0.5, False),   # faster
    ("higher", 0.7, True),   # 30% less of a metric that should rise
    ("higher", 1.3, False),
])
def test_the_change_is_over_its_bound_when_its_median_is_worse_by_more(better, factor, over):
    row = ab_pairs.summarise(PARENT, [p * factor for p in PARENT], better, 0.25)
    assert row["over_bound"] is over


def test_a_metric_without_a_bound_is_never_over_it():
    row = ab_pairs.summarise(PARENT, [p * 10 for p in PARENT], "lower")
    assert row["over_bound"] is None


def _no_run(*args):
    raise AssertionError("a benchmark run was started")


REPO = _PATH.parent.parent


@pytest.mark.parametrize("workload", ["all", "no_such_workload"])
def test_only_a_declared_workload_is_accepted_and_nothing_runs(monkeypatch, capsys, workload):
    monkeypatch.setattr(ab_pairs, "run_once", _no_run)
    with pytest.raises(SystemExit) as exit_:
        ab_pairs.main(["--parent", str(REPO), "--change", str(REPO),
                       "--workload", workload, "--seed", "1"])
    assert exit_.value.code == 2
    assert "--workload must be one of lazy_chain, closed_search, set_network" in (
        capsys.readouterr().err)


def test_the_report_says_too_few_pairs_below_the_minimum(monkeypatch, capsys):
    times = iter([9.0, 5.0, 4.0, 8.0, 9.0, 5.0])  # the change wins every pair by far

    def fake_run(checkout, workload, seed, seconds):
        return {"failed": 0, "metrics": {"verdict_s_p50": {"value": next(times)}}}

    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    ab_pairs.main(["--parent", str(REPO), "--change", str(REPO),
                   "--workload", "closed_search", "--seed", "1", "--pairs", "3"])
    row = capsys.readouterr().out.splitlines()[-1]
    assert row.split()[0] == "verdict_s_p50"
    assert row.endswith(" 3/3  too few pairs  no")


def test_the_report_says_which_metrics_are_over_their_bound(monkeypatch, capsys, tmp_path):
    # verdict_s_p50 (bound 0.25) and elements_supplied (bound 0.05) both
    # rise 10% in every pair; extra is not in BENCHMARK.json.
    def fake_run(checkout, workload, seed, seconds):
        value = 11.0 if checkout == REPO else 10.0
        return {"failed": 0, "metrics": {name: {"value": value} for name in (
            "verdict_s_p50", "elements_supplied", "extra")}}

    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    ab_pairs.main(["--parent", str(tmp_path), "--change", str(REPO),
                   "--workload", "closed_search", "--seed", "1", "--pairs", "10"])
    rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[-3:]}
    assert rows["verdict_s_p50"].endswith(" 0/10  no             no")
    assert rows["elements_supplied"].endswith(" 0/10  no             yes")
    assert rows["extra"].endswith(" 0/10  no             -")
