import math

import pytest

from dilaton_gme import (
    BlackHoleParams,
    InvalidParams,
    ScenarioSpec,
    VerificationCheck,
    VerificationReport,
    default_oracle_grid,
    monotonicity_scan,
    oracle_compare,
    relationship_suite,
)
from dilaton_gme.verify import MAX_GRID_STEPS, dilaton_grid


def test_default_grid_shape():
    grid = default_oracle_grid()
    # 44 (N, n, p) combinations x 4 thetas x 5 dilatons
    assert len(grid) == 880
    specs = {(s.n_parties, s.n_horizon, s.n_out_kept) for s, _ in grid}
    assert len(specs) == 44
    assert (6, 4, 0) in specs and (2, 1, 1) in specs
    for spec, params in grid:
        assert spec.n_horizon <= 4
        assert 0.0 <= params.dilaton <= params.mass


def _small_grid():
    return default_oracle_grid(max_parties=3, max_horizon=2, dilatons=(0.0, 0.9, 1.0))


def test_oracle_compare_passes_on_small_grid():
    report = oracle_compare(_small_grid())
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["oracle-vs-analytic", "dual-construction"]
    for check in report.checks:
        assert check.status == "pass"
        assert check.grid_size == len(_small_grid())
        assert check.max_abs_error <= check.tolerance
        assert set(check.worst_case_inputs) == {
            "n-parties",
            "n-horizon",
            "n-out-kept",
            "n-in-kept",
            "theta",
            "mass",
            "dilaton",
            "omega",
        }


def test_relationship_suite_passes():
    report = relationship_suite(grid=_small_grid(), max_horizon=6)
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["sum-rule-quadratic", "sum-rule-linear", "pairwise-zero", "monogamy"]
    by_name = {c.name: c for c in report.checks}
    assert by_name["sum-rule-quadratic"].grid_size == 4 * 3 * 6
    assert by_name["sum-rule-linear"].grid_size == 4 * 3 * 3
    # two-party scenarios are excluded from the pair checks
    assert by_name["pairwise-zero"].grid_size == sum(
        1 for spec, _ in _small_grid() if spec.n_parties >= 3
    )


def test_monotonicity_scan_peaked():
    report = monotonicity_scan(8, 4, steps=401)
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["monotonicity-p8-q4", "peak-location-p8-q4"]
    peak = report.checks[1]
    assert peak.tolerance == pytest.approx(1.0 / 400)
    assert peak.worst_case_inputs["d-star"] == pytest.approx(0.9724205499809185)
    assert report.checks[0].worst_case_inputs["observed-shape"] == "single-peaked"


@pytest.mark.parametrize(
    "p,q,expected",
    [(5, 0, "decreasing"), (0, 5, "increasing"), (4, 8, "increasing"), (3, 3, "increasing")],
)
def test_monotonicity_scan_monotone(p, q, expected):
    report = monotonicity_scan(p, q, steps=201)
    assert report.passed
    assert len(report.checks) == 1
    assert report.checks[0].worst_case_inputs["observed-shape"] == expected


def test_monotonicity_scan_window_changes_expectation():
    # D* for (8, 4) is ~0.972; scanning left of it the curve only rises,
    # right of it the curve only falls
    left = monotonicity_scan(8, 4, d_min=0.0, d_max=0.5, steps=101)
    assert left.checks[0].worst_case_inputs["observed-shape"] == "increasing"
    assert left.passed
    right = monotonicity_scan(8, 4, d_min=0.98, d_max=1.0, steps=101)
    assert right.checks[0].worst_case_inputs["observed-shape"] == "decreasing"
    assert right.passed


@pytest.mark.parametrize(
    "p,q,d_min,steps,observed",
    [
        (26, 25, 0.0, 201, "increasing"),    # D* ~ 0.9984, under one step below d_max
        (8, 4, 0.972, 11, "decreasing"),     # D* ~ 0.9724, under one step above d_min
    ],
)
def test_monotonicity_scan_peak_within_a_step_of_an_end(p, q, d_min, steps, observed):
    report = monotonicity_scan(p, q, d_min=d_min, steps=steps)
    assert report.passed
    inputs = report.checks[0].worst_case_inputs
    assert inputs["expected-shape"] == "single-peaked"
    assert inputs["observed-shape"] == observed
    assert [c.name for c in report.checks] == [
        f"monotonicity-p{p}-q{q}",
        f"peak-location-p{p}-q{q}",
    ]


def test_monotonicity_scan_validation():
    with pytest.raises(InvalidParams):
        monotonicity_scan(8, 4, steps=2)
    with pytest.raises(InvalidParams):
        monotonicity_scan(8, 4, d_min=0.7, d_max=0.2)
    with pytest.raises(InvalidParams):
        monotonicity_scan(8, 4, d_max=2.0)


def test_grid_step_count_is_bounded():
    assert MAX_GRID_STEPS == 10**6
    message = r"^a dilaton grid takes at most 1000000 steps, got "
    for steps in (MAX_GRID_STEPS + 1, 2**1024, 10**400):
        with pytest.raises(InvalidParams, match=message):
            dilaton_grid(0.0, 1.0, steps)
        with pytest.raises(InvalidParams, match=message):
            monotonicity_scan(8, 4, steps=steps)
    with pytest.raises(InvalidParams, match=r"got <16610-bit integer>$"):
        dilaton_grid(0.0, 1.0, 10**5000)
    with pytest.raises(InvalidParams, match=r"^a dilaton grid needs at least 2 steps, "
                       r"got <negative 16610-bit integer>$"):
        dilaton_grid(0.0, 1.0, -(10**5000))


def test_report_json_shape():
    report = monotonicity_scan(2, 32, steps=51)
    payload = report.as_json()
    assert isinstance(payload, list)
    for item in payload:
        assert list(item) == [
            "name",
            "grid-size",
            "max-abs-error",
            "tolerance",
            "status",
            "worst-case-inputs",
        ]
        assert item["status"] in ("pass", "fail")


def test_report_merge_and_failure_flag():
    good = VerificationCheck("ok", 1, 0.0, 1.0, "pass", None)
    bad = VerificationCheck("broken", 1, 2.0, 1.0, "fail", {"theta": 0.1})
    report = VerificationReport((good,))
    assert report.passed
    merged = report.merged_with(VerificationReport((bad,)))
    assert not merged.passed
    assert [c.name for c in merged.checks] == ["ok", "broken"]


def test_custom_grid_content_is_respected():
    grid = [
        (ScenarioSpec(3, 2, 2, 0, math.pi / 4), BlackHoleParams(1.0, 0.5, 1.0)),
    ]
    report = oracle_compare(grid)
    assert report.passed
    assert report.checks[0].grid_size == 1
    worst = report.checks[0].worst_case_inputs
    assert worst["n-parties"] == 3 and worst["dilaton"] == 0.5


def test_oracle_compare_at_the_largest_register():
    # Large N: the oracle's cost grows with 2**n, never with 2**N, so every
    # corner of the n_parties * 2**n_horizon budget runs, (13312, 1) included.
    params = BlackHoleParams(1.0, 0.6, 1.0)
    grid = [
        (ScenarioSpec(n_parties, n, n // 2, n - n // 2, math.pi / 5), params)
        for n_parties, n in [(64, 8), (1000, 4), (13312, 1), (13, 11)]
    ]
    report = oracle_compare(grid)
    assert report.passed
    assert [c.name for c in report.checks] == ["oracle-vs-analytic", "dual-construction"]
