"""``tools/abpairs.py`` parses a benchmark result line and summarises alternating pairs; no bench runs here."""

import importlib.util
import json
import math
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "abpairs.py")
_spec = importlib.util.spec_from_file_location("abpairs", _PATH)
abpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abpairs)


def _output(points_per_s, p50, failed=0):
    metrics = {"points_per_s": {"value": points_per_s, "unit": "1/s"},
               "request_ms.p50": {"value": p50, "unit": "ms"}}
    return "\n".join([
        "== verify-suite  seed=0  seconds=15  trace=0",
        json.dumps({"undeclared": {"points_per_s.unscaled": {"value": 1.0, "unit": "1/s"}}}),
        json.dumps({"correct": True, "attempted": 100, "failed": failed, "metrics": metrics}),
        "",
    ])


def test_the_result_line_is_the_last_line():
    values = abpairs.parse_result(_output(8000.5, 4.75, failed=2))
    assert values == {"points_per_s": 8000.5, "request_ms.p50": 4.75, "attempted": 100.0, "failed": 2.0}


@pytest.mark.parametrize("stdout", ["", "error: no package\n", '{"undeclared": {}}\n', '{"metrics": {"x": 1}}\n'])
def test_an_output_without_a_result_line_is_a_failed_run(stdout):
    with pytest.raises(abpairs.RunFailed, match="^no result line in the output"):
        abpairs.parse_result(stdout)


def test_quartiles_are_inclusive_and_one_value_is_all_three():
    assert abpairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert abpairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert abpairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_ratio_of_zeros():
    assert abpairs.ratio(3.0, 2.0) == 1.5
    assert abpairs.ratio(0.0, 0.0) == 1.0
    assert abpairs.ratio(1e-16, 0.0) == math.inf


def _pairs(parent_change):
    return [{"parent": {"points_per_s": a, "request_ms.p50": 1000.0 / a},
             "change": {"points_per_s": b, "request_ms.p50": 1000.0 / b}} for a, b in parent_change]


def test_summary_counts_wins_in_the_declared_direction():
    pairs = _pairs([(100.0, 110.0), (120.0, 120.0), (90.0, 99.0), (110.0, 100.0), (100.0, 104.0)])
    better = {"points_per_s": "higher", "request_ms.p50": "lower"}
    rate, latency = abpairs.summarize(pairs, better)
    assert rate["metric"] == "points_per_s" and latency["metric"] == "request_ms.p50"
    # Ratios 1.1, 1.0, 1.1, 10/11, 1.04: the median is 1.04.
    assert rate["ratio"] == pytest.approx(1.04)
    assert (rate["wins"], rate["ties"]) == (3, 1) and (latency["wins"], latency["ties"]) == (3, 1)
    assert rate["parent"] == (100.0, 100.0, 110.0) and rate["change"] == (100.0, 104.0, 110.0)
    # The median rose by 4 over a parent IQR of 10.
    assert rate["gain_over_iqr"] == pytest.approx(0.4)
    # Lower is better: a fall in latency is a gain.
    assert latency["gain_over_iqr"] > 0 and latency["ratio"] == pytest.approx(1 / 1.04)


def test_summary_of_equal_runs_and_a_zero_spread():
    pairs = _pairs([(100.0, 100.0), (100.0, 100.0)])
    (row,) = abpairs.summarize(pairs, {"points_per_s": "higher"})
    assert (row["wins"], row["ties"], row["ratio"], row["gain_over_iqr"]) == (0, 2, 1.0, 0.0)
    pairs = _pairs([(100.0, 105.0), (100.0, 105.0)])
    (row,) = abpairs.summarize(pairs, {"points_per_s": "higher"})
    assert row["gain_over_iqr"] == math.inf and row["wins"] == 2


def test_summary_lines_name_every_metric():
    pairs = _pairs([(100.0, 110.0), (90.0, 99.0)])
    rows = abpairs.summarize(pairs, {"points_per_s": "higher", "request_ms.p50": "lower"})
    lines = abpairs.format_summary(rows, len(pairs))
    assert len(lines) == 3 and lines[1].startswith("points_per_s ") and lines[2].startswith("request_ms.p50 ")
    assert " 2/2 " in lines[1]


def test_runs_alternate_and_a_failed_run_stops_the_tool(monkeypatch, capsys):
    calls = []

    def fake_export(rev, target):
        os.makedirs(os.path.join(target, "bench"))

    def fake_run(tree, workload, seed):
        side = "change" if tree == abpairs.ROOT else "parent"
        calls.append((side, seed))
        if len(calls) == 5:
            raise abpairs.RunFailed("bench/run.py exited 1:\nTraceback: boom")
        return abpairs.parse_result(_output(100.0 + seed, 4.0))

    monkeypatch.setattr(abpairs, "export", fake_export)
    monkeypatch.setattr(abpairs, "declared_metrics", lambda: {"points_per_s": ("higher", 0.2)})
    monkeypatch.setattr(abpairs, "run_bench", fake_run)
    assert abpairs.main(["HEAD", "--pairs", "3", "--seed", "7"]) == 2
    assert calls == [("parent", 7), ("change", 7), ("change", 8), ("parent", 8), ("parent", 9)]
    out, err = capsys.readouterr()
    assert "pair 1 change" in out and "pair 2" not in out
    assert err.endswith("Traceback: boom\n")


_GAIN = [(100.0 + k % 3, 110.0 + k % 3) for k in range(10)]


# (parent, change) pairs of points_per_s, where higher is better, and their verdict at a bound of 0.2.
@pytest.mark.parametrize("expected, values", [
    ("gain", _GAIN),
    ("same", _GAIN[:9]),  # fewer than ten pairs claim no gain
    ("worse", [(100.0 + k % 3, 70.0 + k % 3) for k in range(10)]),
    ("unresolved", [(60.0 + 10 * k, 150.0 - 10 * k) for k in range(10)]),
    ("same", [(100.0 + k % 3, 101.0 - k % 3) for k in range(10)]),
], ids=["gain", "nine-pairs", "worse", "unresolved", "same"])
def test_each_metric_ends_with_a_verdict(monkeypatch, capsys, expected, values):
    def fake_run(tree, workload, seed):
        side = 1 if tree == abpairs.ROOT else 0
        return {"points_per_s": values[seed][side], "attempted": 100.0, "failed": 0.0}

    monkeypatch.setattr(abpairs, "export", lambda rev, target: os.makedirs(os.path.join(target, "bench")))
    monkeypatch.setattr(abpairs, "declared_metrics", lambda: {"points_per_s": ("higher", 0.2)})
    monkeypatch.setattr(abpairs, "run_bench", fake_run)
    assert abpairs.main(["HEAD", "--pairs", str(len(values))]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [f"verdict points_per_s {expected}", "verdict failed-share same"]


# Per pair, (parent, change) runs as (attempted, failed) request counts.
@pytest.mark.parametrize("expected, runs", [
    ("same", [((100, 0), (100, 0)), ((100, 0), (100, 0))]),
    ("same", [((100, 3), (100, 3)), ((100, 1), (100, 1))]),
    ("worse", [((100, 0), (100, 1)), ((100, 0), (100, 0))]),
    ("same", [((100, 2), (100, 1)), ((100, 0), (100, 0))]),
    ("same", [((100, 1), (200, 2)), ((100, 1), (200, 2))]),  # more failures, the same share
    # Summed, 1/100 against 2/100; a mean of per-pair shares would read 5 % against 2 %.
    ("worse", [((10, 1), (50, 1)), ((90, 0), (50, 1))]),
], ids=["none-failed", "equal", "one-more", "fewer", "same-share", "summed-not-averaged"])
def test_the_output_ends_with_the_failed_share_verdict(monkeypatch, capsys, expected, runs):
    def fake_run(tree, workload, seed):
        attempted, failed = runs[seed][1 if tree == abpairs.ROOT else 0]
        return {"points_per_s": 100.0, "attempted": float(attempted), "failed": float(failed)}

    monkeypatch.setattr(abpairs, "export", lambda rev, target: os.makedirs(os.path.join(target, "bench")))
    monkeypatch.setattr(abpairs, "declared_metrics", lambda: {"points_per_s": ("higher", 0.2)})
    monkeypatch.setattr(abpairs, "run_bench", fake_run)
    assert abpairs.main(["HEAD", "--pairs", str(len(runs))]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"verdict failed-share {expected}"
