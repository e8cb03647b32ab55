"""The paired-run summary of ``bench_pairs.py`` on canned result lines.

``bench_pairs.py`` is a tool, not a test, and its real runs take minutes, so
this feeds its parser and summary made-up runs of ``perfbench/run.py``."""

import json

import pytest

import bench_pairs

BOUNDS = {"ops_per_s": ("higher", 0.2), "op_p90_ms": ("lower", 0.25)}


def result(ops, p90, failed=0):
    """A parsed ``--workload all`` result with one workload, w."""
    return {"attempted": 100, "correct": not failed, "failed": failed,
            "metrics": {"w.ops_per_s": {"unit": "1/s", "value": ops},
                        "w.op_p90_ms": {"unit": "ms", "value": p90}},
            "workloads": {"w": {"attempted": 100, "failed": failed}}}


def test_parse_reads_the_last_line_and_each_workloads_failures():
    stdout = "\n".join([
        "workload w, seed 1, trace 0: calibrated",
        "  w ops_per_s                         170.5 1/s",
        "  w fail_ratio 0.02 (2 failed of 100 attempted; warm-up checks passed)",
        json.dumps({"attempted": 100, "correct": False, "failed": 2, "metrics": {}}),
    ])
    assert bench_pairs.parse(stdout) == {"attempted": 100, "correct": False, "failed": 2,
                                         "metrics": {}, "workloads": {"w": {"attempted": 100,
                                                                            "failed": 2}}}


def test_summary_counts_wins_ratios_bounds_failures_and_the_claim():
    parent = [result(100, 10), result(102, 11), result(98, 9), result(101, 10)]
    change = [result(110, 8), result(101, 12, failed=3), result(111, 8), result(112, 9)]
    out = bench_pairs.summarize(parent, change, [5, 6, 7, 8], BOUNDS, ("w", "ops_per_s"))
    block = out["w_pairs"]
    assert block["runs"]["ops_per_s"] == {"parent": [100, 102, 98, 101], "change": [110, 101, 111, 112]}
    assert block["change_wins"] == {"ops_per_s": 3, "op_p90_ms": 3}
    assert block["median_ratio_change_over_parent"]["ops_per_s"] == pytest.approx(110.5 / 100.5)
    assert block["median_ratio_change_over_parent"]["op_p90_ms"] == pytest.approx(8.5 / 10)
    assert block["quartiles"]["ops_per_s"]["parent"] == {"q1": 98.5, "median": 100.5, "q3": 101.75}
    assert block["within_bound"] == {"ops_per_s": True, "op_p90_ms": True}
    assert block["failed"] == {"parent": 0, "change": 3}
    assert block["seeds"] == [5, 6, 7, 8]
    claim = out["claim"]
    assert (claim["pairs"], claim["change_wins"], claim["parent_median"]) == (4, 3, 100.5)
    assert claim["parent_iqr"] == pytest.approx(3.25)
    assert claim["holds"] is False  # 3 wins of 4 is under nine tenths


def test_a_claim_needs_a_gap_wider_than_the_parents_spread_and_bounds_catch_a_loss():
    parent = [result(100, 10), result(90, 10), result(110, 10)]
    change = [result(111, 14), result(101, 14), result(112, 14)]
    out = bench_pairs.summarize(parent, change, [1, 2, 3], BOUNDS, ("w", "ops_per_s"))
    assert out["claim"]["change_wins"] == 3
    assert out["claim"]["holds"] is False  # the medians differ by 11, the parent's IQR is 20
    assert out["w_pairs"]["within_bound"]["op_p90_ms"] is False  # 1.4 > 1 + 0.25
    change = [result(131, 10), result(125, 10), result(140, 10)]
    assert bench_pairs.summarize(parent, change, [1, 2, 3], BOUNDS, ("w", "ops_per_s"))["claim"]["holds"]
    assert "claim" not in bench_pairs.summarize(parent, change, [1, 2, 3], BOUNDS, None)


def test_trees_that_differ_are_named(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side / "sub").mkdir(parents=True)
        (tmp_path / side / "run.py").write_text("x = 1\n")
        (tmp_path / side / "sub" / "w.py").write_text("y = 2\n")
        (tmp_path / side / "out").mkdir()
        (tmp_path / side / "out" / side).write_text(side)  # benchmark output: ignored
    assert bench_pairs.tree_differences(tmp_path / "a", tmp_path / "b") == []
    (tmp_path / "b" / "sub" / "w.py").write_text("y = 3\n")
    (tmp_path / "a" / "extra.py").write_text("")
    assert bench_pairs.tree_differences(tmp_path / "a", tmp_path / "b") == ["extra.py", "sub/w.py"]
