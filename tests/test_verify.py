import math
import re
import sys

import pytest

from dilaton_gme import (
    BlackHoleParams,
    InvalidParams,
    InvalidSpec,
    ScenarioSpec,
    VerificationCheck,
    VerificationReport,
    bogoliubov,
    default_oracle_grid,
    monotonicity_scan,
    oracle_compare,
    relationship_suite,
    sum_rule_linear,
    sum_rule_quadratic,
)
from dilaton_gme import verify
from dilaton_gme.verify import MAX_GRID_STEPS, MAX_SUM_RULE_HORIZON, dilaton_grid


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


def _scalar_rule_worst(dilatons, thetas, max_horizon):
    """The worst sum-rule errors of the scalar rules walked in dilaton -> theta -> n order."""
    worst = {"sum-rule-quadratic": (0.0, None), "sum-rule-linear": (0.0, None)}
    for dilaton in dilatons:
        pair = bogoliubov(BlackHoleParams(1.0, dilaton, 1.0))
        for theta in thetas:
            for n in range(1, max_horizon + 1):
                inputs = {"n-horizon": n, "theta": theta, "mass": 1.0, "dilaton": dilaton, "omega": 1.0}
                rules = [("sum-rule-quadratic", sum_rule_quadratic)]
                if n % 2 == 0:
                    rules.append(("sum-rule-linear", sum_rule_linear))
                for name, rule in rules:
                    lhs, rhs = rule(theta, pair, n)
                    if worst[name][1] is None or abs(lhs - rhs) > worst[name][0]:
                        worst[name] = (abs(lhs - rhs), inputs)
    return worst


def test_relationship_suite_sum_rules_are_the_scalar_rules():
    # The same worst error, bit for bit, at the same first worst inputs: on a
    # hand-picked grid and on the defaults (max_horizon = 16, four dilatons).
    dilatons, thetas = (0.0, 0.3, 1.0), (0.0, 0.2, math.pi / 4, 1.5)
    cases = [
        (relationship_suite(grid=[], max_horizon=7, dilatons=dilatons, thetas=thetas),
         _scalar_rule_worst(dilatons, thetas, 7)),
        (relationship_suite(grid=[]),
         _scalar_rule_worst((0.0, 0.5, 0.9, 1.0), (math.pi / 12, math.pi / 6, math.pi / 4), 16)),
    ]
    for report, worst in cases:
        for check in report.checks[:2]:
            assert (check.max_abs_error, check.worst_case_inputs) == worst[check.name]


def test_monogamy_counts_every_pair_of_the_first_mode(monkeypatch):
    # Each pair of a scenario state scores zero, so score every pair X-state 1
    # instead: the deficit then falls short of the residual by the number of
    # pairs that hold the first mode, N - 1, and not by the number of classes.
    score = verify.gme_xstate
    monkeypatch.setattr(verify, "gme_xstate", lambda x: 1.0 if x.half_dimension == 2 else score(x))
    grid = [(ScenarioSpec(5, 1, 1, 0, 0.6), BlackHoleParams(1.0, 0.4, 1.0))]
    checks = {check.name: check for check in relationship_suite(grid=grid, max_horizon=1).checks}
    assert checks["pairwise-zero"].max_abs_error == 1.0
    assert checks["monogamy"].max_abs_error == pytest.approx(4.0, abs=1e-12)


def test_sum_rule_horizon_cap_is_the_last_float_sum():
    # The quadratic rule sums C(n, k) * E**2; from n = 1030 on, C(n, n // 2)
    # leaves the float range and the sums switch to decimals.
    assert MAX_SUM_RULE_HORIZON == 1029
    assert math.comb(1029, 514) <= sys.float_info.max < math.comb(1030, 515)


@pytest.mark.parametrize(
    "max_horizon,message",
    [
        (0, "must be at least 1, got 0"),
        (-1, "must be at least 1, got -1"),
        (-(10**5000), "must be at least 1, got <negative 16610-bit integer>"),
        (2.5, "must be an integer, got 2.5"),
        (True, "must be an integer, got True"),
        ("3", "must be an integer, got '3'"),
        (None, "must be an integer, got None"),
        (1030, "must be at most 1029, got 1030"),
        (10**400, f"must be at most 1029, got {10**400}"),
        (10**5000, "must be at most 1029, got <16610-bit integer>"),
    ],
    ids=["zero", "negative", "huge-negative", "float", "bool", "str", "none", "above-cap",
         "huge", "past-str-limit"],
)
def test_relationship_suite_checks_max_horizon_up_front(max_horizon, message):
    def unreachable():
        raise AssertionError("the grid was read before max_horizon was checked")
        yield

    # Checked before anything else, a bad dilaton included.
    with pytest.raises(InvalidParams, match=rf"^max_horizon {message}$"):
        relationship_suite(grid=unreachable(), max_horizon=max_horizon, dilatons=(2.0,))


@pytest.mark.parametrize(
    "kwargs,error,message",
    [
        ({"thetas": (0.3, 2.0)}, InvalidSpec, r"^theta must lie in \[0, pi/2\], got 2.0$"),
        ({"thetas": (math.nan,)}, InvalidSpec, r"^theta must be a finite number, got nan$"),
        ({"dilatons": (0.5, 1.5)}, InvalidParams, r"^dilaton must lie in \[0, mass\]"),
        # The first dilaton is checked before any theta.
        ({"dilatons": (1.5,), "thetas": (2.0,)}, InvalidParams, r"^dilaton must lie in \[0, mass\]"),
        ({"mass": -1.0}, InvalidParams, r"^mass must be a positive finite number, got -1.0$"),
        ({"omega": math.inf}, InvalidParams, r"^omega must be a positive finite number, got inf$"),
    ],
)
def test_relationship_suite_input_errors(kwargs, error, message):
    with pytest.raises(error, match=message):
        relationship_suite(grid=[], max_horizon=3, **kwargs)


@pytest.mark.parametrize(
    "kwargs,error,message",
    [
        # No dilaton, so no sum to run: the thetas are checked all the same.
        ({"dilatons": (), "thetas": (math.nan, 7.0)}, InvalidSpec, r"^theta must be a finite number, got nan$"),
        ({"dilatons": (0.0, 0.5, 1.5)}, InvalidParams, r"^dilaton must lie in \[0, mass\]"),
        ({"dilatons": (0.0, 0.5), "thetas": (0.3, 2.0)}, InvalidSpec, r"^theta must lie in \[0, pi/2\]"),
    ],
    ids=["no-dilaton", "third-dilaton", "second-theta"],
)
def test_relationship_suite_checks_every_input_before_the_first_sum(monkeypatch, kwargs, error, message):
    sums = []
    binomial_sums = verify._binomial_sums

    def counted(*args):
        sums.append(args)
        return binomial_sums(*args)

    monkeypatch.setattr(verify, "_binomial_sums", counted)
    with pytest.raises(error, match=message):
        relationship_suite(grid=[], **kwargs)
    assert sums == []


@pytest.mark.parametrize(
    "item,got",
    [
        ((BlackHoleParams(1.0, 0.3, 1.0), ScenarioSpec(3, 1, 1, 0, 0.5)), "(BlackHoleParams, ScenarioSpec)"),
        (ScenarioSpec(3, 1, 1, 0, 0.5), "ScenarioSpec"),
        ((ScenarioSpec(3, 1, 1, 0, 0.5),), "(ScenarioSpec)"),
    ],
    ids=["swapped", "bare-spec", "one-tuple"],
)
@pytest.mark.parametrize("suite", [oracle_compare, relationship_suite])
def test_grid_items_are_checked_before_the_first_point(monkeypatch, suite, item, got):
    def unreachable(spec, pair):
        raise AssertionError("a point was simulated before every grid item was checked")

    monkeypatch.setattr(verify, "scenario_density", unreachable)
    good = (ScenarioSpec(3, 1, 1, 0, 0.5), BlackHoleParams(1.0, 0.3, 1.0))
    message = rf"^grid item 1 must be a \(ScenarioSpec, BlackHoleParams\) pair, got {re.escape(got)}$"
    with pytest.raises(InvalidParams, match=message):
        suite(iter([good, item]))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: dilaton_grid(0.0, 1.0, 2.5), "steps must be an integer, got 2.5"),
        (lambda: dilaton_grid(0.0, 1.0, True), "steps must be an integer, got True"),
        (lambda: monotonicity_scan(2, 1, steps=5.5), "steps must be an integer, got 5.5"),
        (lambda: monotonicity_scan(2, 1, steps="7"), "steps must be an integer, got '7'"),
        (lambda: default_oracle_grid(max_parties="3"), "max_parties must be an integer, got '3'"),
        (lambda: default_oracle_grid(max_parties=4.0), "max_parties must be an integer, got 4.0"),
        (lambda: default_oracle_grid(max_horizon=None), "max_horizon must be an integer, got None"),
        (lambda: default_oracle_grid(max_horizon=False), "max_horizon must be an integer, got False"),
    ],
    ids=["grid-float", "grid-bool", "scan-float", "scan-str", "parties-str", "parties-float",
         "horizon-none", "horizon-bool"],
)
def test_counts_are_ints_that_are_not_bools(call, message):
    with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
        call()


def test_oracle_compare_describes_each_point_once(monkeypatch):
    described = []
    describe = verify._describe

    def counted(spec, params):
        described.append(spec)
        return describe(spec, params)

    monkeypatch.setattr(verify, "_describe", counted)
    spec = ScenarioSpec(4, 2, 1, 1, 0.5)
    assert oracle_compare([(spec, BlackHoleParams(1.0, 0.3, 1.0))]).passed
    assert described == [spec]


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
