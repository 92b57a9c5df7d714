"""The pure summary of tools/ab_pairs.py (loaded by file path, like the ledger)."""

import importlib.util
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("ab_pairs", REPO_ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}


def runs(values):
    return [{"wall_s": value} for value in values]


def only_row(parent, change, metric=WALL):
    (row,) = ab_pairs.summarise([metric], runs(parent), runs(change))
    return row


def test_a_clear_gain_is_better():
    row = only_row([2.0, 2.1, 2.2, 2.0, 2.1], [1.0, 1.1, 1.0, 0.9, 1.0])
    assert row["parent_median"] == 2.1
    assert row["change_median"] == 1.0
    assert row["ratio"] == pytest.approx(1.0 / 2.1)
    assert (row["wins"], row["pairs"]) == (5, 5)
    assert row["verdict"] == "better"


def test_spread_past_the_bound_is_unresolved():
    # Parent IQR/median is well over 0.25: no verdict either way.
    row = only_row([1.0, 3.0, 1.0, 3.0, 2.0], [1.0, 1.0, 1.0, 1.0, 1.0])
    assert row["parent_iqr_rel"] > 0.25
    assert row["verdict"] == "unresolved"
    # A wide change side is just as unresolved.
    assert only_row([1.0] * 5, [1.0, 3.0, 1.0, 3.0, 2.0])["verdict"] == "unresolved"


def test_every_change_run_beating_every_parent_run_resolves_a_wide_spread():
    wide = [2.0, 3.0, 2.0, 3.0, 2.5]
    row = only_row(wide, [1.0] * 5)
    assert row["parent_iqr_rel"] > 0.25
    assert row["verdict"] == "better"
    # One change run no better than the best parent run: still unresolved.
    assert only_row(wide, [1.0] * 4 + [2.0])["verdict"] == "unresolved"
    # The exception is for a gain only; a clear loss stays unresolved.
    assert only_row(wide, [4.0] * 5)["verdict"] == "unresolved"
    higher = {"name": "wall_s", "better": "higher", "bound": 0.25}
    assert only_row([1.0, 2.0, 1.0, 2.0, 1.5], [3.0] * 5, higher)["verdict"] == "better"


def test_a_slowdown_past_the_bound_is_worse():
    assert only_row([1.0] * 4, [1.3] * 4)["verdict"] == "worse"
    assert only_row([1.0] * 4, [1.2] * 4)["verdict"] == "same"


def test_a_gain_needs_nine_pairs_in_ten():
    # Two pairs in which the parent ran faster than the change.
    row = only_row([2.0] * 8 + [0.9, 0.9], [1.0] * 10)
    assert row["wins"] == 8
    assert row["verdict"] == "same"
    assert only_row([2.0] * 9 + [0.9], [1.0] * 10)["verdict"] == "better"


def test_higher_is_better_metrics_flip_the_sign():
    metric = {"name": "wall_s", "better": "higher", "bound": 0.25}
    assert only_row([1.0] * 4, [2.0] * 4, metric)["verdict"] == "better"
    assert only_row([2.0] * 4, [1.0] * 4, metric)["verdict"] == "worse"


def test_format_lists_each_metric_with_its_verdict():
    rows = ab_pairs.summarise([WALL], runs([2.0, 2.0]), runs([1.0, 1.0]))
    text = ab_pairs.format_rows(rows)
    assert "wall_s" in text.splitlines()[1]
    assert text.splitlines()[1].endswith("better")


def test_each_seed_runs_both_trees_first():
    pairs = ab_pairs.schedule(10, [1, 2])
    assert pairs[:4] == [(1, True), (1, False), (2, True), (2, False)]
    assert pairs[8:] == [(1, True), (1, False)]
    for seed in (1, 2):  # as often parent first as change first, at every seed
        firsts = [parent_first for s, parent_first in pairs if s == seed]
        assert firsts.count(True) == firsts.count(False) > 0
    assert ab_pairs.schedule(3, [7]) == [(7, True), (7, False), (7, True)]


def test_work_lists_totals_then_each_layer_of_both_trees():
    parent = {"opcodes": 1000, "calls": 100, "layers": {"guest": 60, "util": 40}}
    change = {"opcodes": 900, "calls": 90, "layers": {"guest": 50, "util": 40}}
    lines = ab_pairs.format_work(parent, change).splitlines()
    assert [line.split()[0] for line in lines] == ["count", "opcodes", "calls", "guest", "util"]
    assert lines[1].split()[1:] == ["1,000", "900", "0.9000"]
    assert lines[3].split()[1:] == ["60", "50", "0.8333"]
    # a count without opcodes lists the calls only
    del parent["opcodes"]
    assert "opcodes" not in ab_pairs.format_work(parent, change)
