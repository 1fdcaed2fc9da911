import itertools
import math
import re
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dilaton_gme import (
    BlackHoleParams,
    BogoliubovGrid,
    InvalidParams,
    ScenarioSpec,
    SparseDensity,
    VerificationCheck,
    VerificationReport,
    bogoliubov,
    default_oracle_grid,
    e_general,
    e_grid,
    monotonicity_scan,
    oracle_compare,
    peak_dilaton,
    relationship_suite,
    sum_rule_linear,
    sum_rule_quadratic,
)
from dilaton_gme import modes_state, verify
from dilaton_gme.analytic import MAX_FLOAT_BINOMIAL
from dilaton_gme.cli import main
from dilaton_gme.hawking import MAX_GRID_STEPS, dilaton_grid


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


def _oracle_e(spec, pair):
    return verify.gme_xstate(verify.extract_xstate(verify.scenario_density(spec, pair)))


def test_the_oracle_matches_the_closed_form_in_relative_error():
    # No amplitude is rounded away, so a tiny E is simulated, not read as 0.
    for spec, params in default_oracle_grid():
        pair = bogoliubov(params)
        closed = e_general(spec.theta, pair, spec.n_out_kept, spec.n_in_kept)
        oracle = _oracle_e(spec, pair)
        assert oracle != 0.0, (spec, params)
        if abs(closed) >= sys.float_info.min:
            assert abs(oracle - closed) <= 1e-14 * abs(closed), (spec, params, oracle, closed)
    # (N, p, q) = (5, 0, 4) at D = 0.3, theta = pi/4: a grid point whose E is about 5e-16
    pair = bogoliubov(BlackHoleParams(1.0, 0.3, 1.0))
    closed = e_general(math.pi / 4, pair, 0, 4)
    assert 0.0 < closed < 1e-15
    assert _oracle_e(ScenarioSpec(5, 4, 0, 4, math.pi / 4), pair) == pytest.approx(closed, rel=1e-14)


def _small_grid():
    grid = default_oracle_grid(max_parties=3, max_horizon=2)
    return [(spec, params) for spec, params in grid if params.dilaton in (0.0, 0.9, 1.0)]


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
    report = relationship_suite(grid=_small_grid())
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["sum-rule-quadratic", "sum-rule-linear", "pairwise-zero", "monogamy"]
    by_name = {c.name: c for c in report.checks}
    assert by_name["sum-rule-quadratic"].grid_size == 4 * 3 * 16
    assert by_name["sum-rule-linear"].grid_size == 4 * 3 * 8
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
    # The same worst error, bit for bit, at the same first worst inputs
    # (n = 1 .. 16, four dilatons, three thetas).
    report = relationship_suite(grid=[])
    worst = _scalar_rule_worst((0.0, 0.5, 0.9, 1.0), (math.pi / 12, math.pi / 6, math.pi / 4), 16)
    for check in report.checks[:2]:
        assert (check.max_abs_error, check.worst_case_inputs) == worst[check.name]


@pytest.mark.parametrize("n_parties,n_horizon", [(13312, 1), (1000, 4)])
def test_relationship_checks_pass_at_the_largest_party_counts(n_parties, n_horizon):
    # The pair classes are counted, never listed: 88.6 M pairs at (13312, 1).
    grid = [(ScenarioSpec(n_parties, n_horizon, 1, n_horizon - 1, 0.7), BlackHoleParams(1.0, 0.4, 1.0))]
    report = relationship_suite(grid=grid)
    assert [(check.name, check.status) for check in report.checks] == [
        ("sum-rule-quadratic", "pass"),
        ("sum-rule-linear", "pass"),
        ("pairwise-zero", "pass"),
        ("monogamy", "pass"),
    ]
    assert report.checks[2].grid_size == 1


def test_a_nan_error_is_the_worst_and_stays_the_worst():
    points = "abcde"
    errors = [0.1, math.nan, 0.5, -math.nan, math.inf]
    check = verify._check("c", 5, 1.0, errors, lambda i: {"point": points[i]})
    assert math.isnan(check.max_abs_error) and check.worst_case_inputs == {"point": "b"}
    assert check.status == "fail" and check.as_json_dict()["max-abs-error"] is None
    first = verify._check("c", 2, 1.0, [math.nan, 0.2], lambda i: {"point": points[i]})
    assert math.isnan(first.max_abs_error) and first.worst_case_inputs == {"point": "a"}


def _worst_in_turn(errors):
    """Reference fold: ``(|error|, index)`` kept item by item. The first error is taken,
    then each strictly larger one, and the first NaN over any number."""
    worst, at = 0.0, None
    for index, error in enumerate(errors):
        error = abs(error)
        if at is None or error > worst or (error != error and worst == worst):
            worst, at = error, index
    return worst, at


_ERRORS = st.one_of(
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-13, -1e-13, 0.5, -0.5]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=200, deadline=None)
@given(
    held=st.lists(_ERRORS, max_size=2),
    errors=st.one_of(
        st.lists(_ERRORS, max_size=8),
        st.builds(lambda value, count: [value] * count, _ERRORS, st.integers(1, 5)),
    ),
)
@example(held=[], errors=[0.5, -0.5, 0.5])
@example(held=[], errors=[-0.0, 0.0, -0.0])
@example(held=[], errors=[0.1, -math.nan, math.nan, math.inf])
@example(held=[0.7], errors=[0.5, 0.7])
@example(held=[math.nan], errors=[math.inf, -math.nan])
@example(held=[0.0], errors=[])
def test_the_list_form_of_the_worst_case_is_update_in_turn(held, errors):
    # ``_check`` over the held errors and then the new ones ends where the item-by-item
    # fold does; only the winner has its inputs built.
    errors = [*held, *errors]
    worst, at = _worst_in_turn(errors)
    built = []
    check = verify._check("c", 7, 1e-12, iter(errors), lambda index: built.append(index) or {"index": index})
    assert built == ([] if at is None else [at])
    assert check.worst_case_inputs == (None if at is None else {"index": at})
    assert float.hex(check.max_abs_error) == float.hex(worst)
    assert check.status == ("pass" if worst <= 1e-12 else "fail")
    assert (check.name, check.grid_size, check.tolerance) == ("c", 7, 1e-12)


def test_pair_checks_without_a_point_of_three_parties():
    two_parties = [(ScenarioSpec(2, 1, 1, 0, 0.5), BlackHoleParams(1.0, 0.3, 1.0))]
    for grid in ([], two_parties):
        checks = relationship_suite(grid=grid).checks[2:]
        assert [(c.name, c.grid_size, c.max_abs_error, c.worst_case_inputs) for c in checks] == [
            ("pairwise-zero", 0, 0.0, None),
            ("monogamy", 0, 0.0, None),
        ]


_RULES = {
    "sum-rule-quadratic": (2, tuple(range(1, 17))),
    "sum-rule-linear": (1, tuple(range(2, 17, 2))),
}


@pytest.mark.parametrize("name", sorted(_RULES))
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_each_sum_rule_error_names_its_own_point(monkeypatch, name, where):
    # At the ``where`` theta, each (dilaton, n) sum in turn is NaN, so it is the
    # worst: the check must fail and name exactly that point, which pins the
    # kernel's flat (theta, dilaton, n) order at every boundary.
    power, horizons = _RULES[name]
    dilatons, thetas = (0.0, 0.5, 0.9, 1.0), (math.pi / 12, math.pi / 6, math.pi / 4)
    t = {"first": 0, "middle": 1, "last": len(thetas) - 1}[where]
    kernel = verify._binomial_sums
    for d, at in itertools.product(range(len(dilatons)), range(len(horizons))):
        calls = []

        def one_nan(sines, rows, rule_power):
            sums = kernel(sines, rows, rule_power)
            if rule_power == power:  # the rule's one kernel call lays the dilatons' rows in order
                sums[t][d * len(horizons) + at] = math.nan
                calls.append(rule_power)
            return sums

        monkeypatch.setattr(verify, "_binomial_sums", one_nan)
        checks = {check.name: check for check in relationship_suite(grid=[]).checks}
        check = checks[name]
        assert check.status == "fail" and math.isnan(check.max_abs_error)
        assert check.worst_case_inputs == {
            "n-horizon": horizons[at],
            "theta": thetas[t],
            "mass": 1.0,
            "dilaton": dilatons[d],
            "omega": 1.0,
        }
        assert check.grid_size == len(dilatons) * len(thetas) * len(horizons)
        assert calls == [power]
        (other,) = set(_RULES) - {name}
        assert checks[other].status == "pass"


def test_sum_rules_build_one_inputs_dict_and_two_kernel_calls(monkeypatch):
    # Tooling guard: each sum rule's errors come from one kernel call over the
    # rows of every dilaton, and only each rule's worst sum has its inputs built.
    counts = Counter()
    kernel, rule_inputs = verify._binomial_sums, verify._rule_inputs

    def counted(key, call):
        def wrapper(*args):
            counts[key] += 1
            return call(*args)

        return wrapper

    monkeypatch.setattr(verify, "_binomial_sums", counted("kernel", kernel))
    monkeypatch.setattr(verify, "_rule_inputs", counted("inputs", rule_inputs))
    report = relationship_suite(grid=[])
    assert report.passed
    assert counts["kernel"] == 2
    assert counts["inputs"] <= 2


def test_oracle_compare_fails_on_a_nan_entanglement(monkeypatch):
    grid = _small_grid()[:3]
    score = verify.gme_xstate
    calls = []

    def nan_at_the_second_point(x):
        calls.append(x)
        return math.nan if len(calls) == 2 else score(x)

    monkeypatch.setattr(verify, "gme_xstate", nan_at_the_second_point)
    check, dual = oracle_compare(grid).checks
    assert check.name == "oracle-vs-analytic" and check.status == "fail"
    assert math.isnan(check.max_abs_error)
    assert check.worst_case_inputs == verify._describe(grid, 1)
    assert dual.status == "pass"


def _plant_a_near_entry(monkeypatch):
    """Make ``verify.scenario_density`` add an entry of 1e-13 on the last mode of each density.

    The entry joins the first diagonal label to its neighbour on the last
    mode.  It lies below ``OFF_X_TOL``, so every X-state reads it as zero
    and each E stays as it was; but it differs on one mode, so the pair
    step cannot certify the point and scores every pair in public.
    """
    simulate = verify.scenario_density

    def planted(spec, pair):
        rho = simulate(spec, pair)
        row = next(row for row, col in rho.entries if row == col)
        key = (min(row, row ^ 1), max(row, row ^ 1))
        return SparseDensity(rho.layout, {**rho.entries, key: 1e-13})

    monkeypatch.setattr(verify, "scenario_density", planted)


def test_monogamy_counts_every_pair_of_the_first_mode(monkeypatch):
    # Each pair of a scenario state scores zero, so score every pair 1 instead, on a
    # density the step has to score pair by pair: the deficit then falls short of the
    # residual by the number of pairs that hold the first mode, N - 1 = 4, and not by
    # the number of pairs, 10.
    grid = [(ScenarioSpec(5, 1, 1, 0, 0.6), BlackHoleParams(1.0, 0.4, 1.0))]
    _plant_a_near_entry(monkeypatch)
    score, scored = verify.pair_entanglement, []

    def scored_one(rho):
        scored.append(score(rho))
        return 1.0

    monkeypatch.setattr(verify, "pair_entanglement", scored_one)
    checks = {check.name: check for check in relationship_suite(grid=grid).checks}
    assert scored == [0.0] * 10
    assert checks["pairwise-zero"].max_abs_error == 1.0
    assert checks["monogamy"].max_abs_error == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("where", ["first", "last"])
def test_pairwise_zero_names_the_point_its_worst_score_came_from(monkeypatch, where):
    # The third point's first or last pair scores NaN and the first point's first pair
    # scores 1.0: pairwise-zero must name the third point, wherever its NaN sits among the
    # flat scores. The last pair does not hold the first mode, so there monogamy's worst
    # point is the first one, short of its residual by its one pair's 1.0.
    grid = [
        (ScenarioSpec(4, 1, 0, 1, 0.7), BlackHoleParams(1.0, 0.3, 1.0)),
        (ScenarioSpec(3, 1, 1, 0, 0.5), BlackHoleParams(1.0, 0.6, 1.0)),
        (ScenarioSpec(4, 2, 1, 1, 0.5), BlackHoleParams(1.0, 0.9, 1.0)),
        (ScenarioSpec(5, 2, 2, 0, 0.6), BlackHoleParams(1.0, 0.3, 1.0)),
    ]
    _plant_a_near_entry(monkeypatch)
    third = math.comb(4, 2) + math.comb(3, 2)  # the third point's first pair score
    patched = {0: 1.0, (third if where == "first" else third + math.comb(4, 2) - 1): math.nan}
    score, scored = verify.pair_entanglement, []

    def patched_score(rho):
        scored.append(rho.layout.modes)
        return patched.get(len(scored) - 1, score(rho))

    monkeypatch.setattr(verify, "pair_entanglement", patched_score)
    checks = {check.name: check for check in relationship_suite(grid=grid).checks}
    assert len(scored) == 6 + 3 + 6 + 10
    modes = grid[2][0].kept_modes()
    assert scored[third] == modes[:2] and scored[third + 5] == modes[2:]
    pairwise, monogamy = checks["pairwise-zero"], checks["monogamy"]
    assert math.isnan(pairwise.max_abs_error)
    assert pairwise.worst_case_inputs == verify._describe(grid, 2)
    if where == "first":
        assert math.isnan(monogamy.max_abs_error)
        assert monogamy.worst_case_inputs == verify._describe(grid, 2)
    else:
        assert monogamy.max_abs_error == pytest.approx(1.0, abs=1e-12)
        assert monogamy.worst_case_inputs == verify._describe(grid, 0)


def test_sum_rule_horizon_cap_is_the_last_float_sum():
    # The quadratic rule sums C(n, k) * E**2; from n = 1030 on, C(n, n // 2)
    # leaves the float range and the sums switch to decimals.
    assert MAX_FLOAT_BINOMIAL == 1029
    assert math.comb(1029, 514) <= sys.float_info.max < math.comb(1030, 515)


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
        # A bound below the least scenario (N = 2, n = 1) used to give an empty grid that passed.
        (lambda: default_oracle_grid(max_parties=1), "max_parties must be at least 2, got 1"),
        (lambda: default_oracle_grid(max_parties=-3), "max_parties must be at least 2, got -3"),
        (lambda: default_oracle_grid(max_horizon=0), "max_horizon must be at least 1, got 0"),
        (lambda: default_oracle_grid(2, -1), "max_horizon must be at least 1, got -1"),
    ],
    ids=["grid-float", "grid-bool", "scan-float", "scan-str", "parties-str", "parties-float",
         "horizon-none", "horizon-bool", "parties-1", "parties-negative", "horizon-0", "horizon-negative"],
)
def test_counts_are_ints_that_are_not_bools(call, message):
    with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
        call()


def _count_simulations(monkeypatch):
    """Record each ``(spec, pair)`` that ``expand_kruskal`` expands and count ``_trace``'s calls."""
    expanded, traced = [], []
    expand, trace = modes_state.expand_kruskal, modes_state._trace

    def counted_expand(spec, pair):
        expanded.append((spec, pair))
        return expand(spec, pair)

    def counted_trace(state, plan):
        traced.append(plan)
        return trace(state, plan)

    monkeypatch.setattr(modes_state, "expand_kruskal", counted_expand)
    monkeypatch.setattr(modes_state, "_trace", counted_trace)
    return expanded, traced


def _twin(spec):
    """An equal spec built apart, which shares no memo with ``spec``."""
    return ScenarioSpec(spec.n_parties, spec.n_horizon, spec.n_out_kept, spec.n_in_kept, spec.theta)


def _built_apart(grid):
    """The grid with every spec an equal copy, so that it shares no work with ``grid``."""
    return [(_twin(spec), params) for spec, params in grid]


def _check_values(report):
    return [(c.name, c.max_abs_error, c.status, c.worst_case_inputs) for c in report.checks]


def test_both_suites_simulate_each_grid_point_once(monkeypatch):
    grid = default_oracle_grid(4, 2)
    expected_compare = oracle_compare(_built_apart(grid))
    expected_suite = relationship_suite(_built_apart(grid))
    expanded, traced = _count_simulations(monkeypatch)
    compare = oracle_compare(grid)
    suite = relationship_suite(grid)
    assert len(expanded) == len(traced) == len(grid)
    assert [spec for spec, _ in expanded] == [spec for spec, _ in grid]
    assert _check_values(compare) == _check_values(expected_compare)
    assert _check_values(suite) == _check_values(expected_suite)


def test_verify_simulates_each_point_of_its_grid_once(monkeypatch, capsys):
    expanded, traced = _count_simulations(monkeypatch)
    assert main(["verify", "--grid", "small"]) == 0
    capsys.readouterr()
    grid = default_oracle_grid(4, 2)
    assert len(expanded) == len(traced) == len(grid)
    simulated = [(spec, (pair.alpha, pair.beta)) for spec, pair in expanded]
    assert simulated == [(spec, (bogoliubov(p).alpha, bogoliubov(p).beta)) for spec, p in grid]


def test_an_equal_spec_built_apart_simulates_again(monkeypatch):
    params = BlackHoleParams(1.0, 0.3, 1.0)
    spec, twin = ScenarioSpec(4, 2, 1, 1, 0.5), ScenarioSpec(4, 2, 1, 1, 0.5)
    expanded, _ = _count_simulations(monkeypatch)
    oracle_compare([(spec, params)])
    relationship_suite([(twin, params)])
    assert len(expanded) == 2 and expanded[0][0] is spec and expanded[1][0] is twin
    # An equal params object built apart is served by the memo.
    relationship_suite([(spec, BlackHoleParams(1.0, 0.3, 1.0))])
    assert len(expanded) == 2


def test_a_spec_met_again_at_other_params_simulates_again(monkeypatch):
    spec = ScenarioSpec(5, 2, 2, 0, 0.4)
    first, second = BlackHoleParams(1.0, 0.3, 1.0), BlackHoleParams(1.0, 0.9, 1.0)
    alone = [relationship_suite(_built_apart([(spec, params)])) for params in (first, second)]
    compare_alone = oracle_compare(_built_apart([(spec, first)]))
    expanded, _ = _count_simulations(monkeypatch)
    oracle_compare([(spec, first)])
    shared = [relationship_suite([(spec, second)]), relationship_suite([(spec, first)])]
    assert len(expanded) == 3
    assert _check_values(shared[0]) == _check_values(alone[1])
    assert _check_values(shared[1]) == _check_values(alone[0])
    # Met at the params in its memo, oracle_compare rebuilds only the X-state it checks.
    assert _check_values(oracle_compare([(spec, first)])) == _check_values(compare_alone)
    assert len(expanded) == 3
    # A fresh spec in a grid that alternates the params re-simulates at every change: all
    # three points of the first suite, and all but the first point of the second, which
    # meets the params that the first suite ended on.
    spec = _twin(spec)
    grid = [(spec, first), (spec, second), (spec, first)]
    oracle_compare(grid)
    relationship_suite(grid)
    assert len(expanded) == 3 + 3 + 2


def test_a_point_whose_simulation_raises_leaves_no_memo(monkeypatch):
    spec = ScenarioSpec(4, 2, 1, 1, 0.5)
    grid = [(spec, BlackHoleParams(1.0, 0.3, 1.0))]

    def broken(x):
        raise InvalidParams("scoring failed")

    monkeypatch.setattr(verify, "gme_xstate", broken)
    with pytest.raises(InvalidParams, match="^scoring failed$"):
        oracle_compare(grid)
    assert "_oracle_memo" not in vars(spec)
    with pytest.raises(InvalidParams, match="^scoring failed$"):
        relationship_suite(grid)
    assert "_oracle_memo" not in vars(spec)


def test_oracle_compare_describes_each_point_once(monkeypatch):
    # Tooling guard: only a check's worst point has its inputs built, so a suite
    # describes at most one point per check and none on an empty grid.
    described = []
    describe = verify._describe

    def counted(points, index):
        described.append(describe(points, index))
        return described[-1]

    monkeypatch.setattr(verify, "_describe", counted)
    grid = _small_grid()
    for suite in (oracle_compare, relationship_suite):
        report = suite(grid)
        assert report.passed and len(described) <= 2
        named = [c.worst_case_inputs for c in report.checks if "n-parties" in (c.worst_case_inputs or {})]
        assert sorted(map(repr, named)) == sorted(map(repr, described))
        described.clear()
        suite([])
        assert described == []


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


def test_monotonicity_scan_without_a_peak_in_the_scan():
    # p > q, but D* = 1 - ln(10**12) / (8 pi) lies below D = 0: E only falls.
    report = monotonicity_scan(10**12, 1, steps=11)
    assert report.passed
    assert [c.name for c in report.checks] == [f"monotonicity-p{10**12}-q1"]
    inputs = report.checks[0].worst_case_inputs
    assert inputs["expected-shape"] == inputs["observed-shape"] == "decreasing"


@pytest.mark.parametrize(
    "p,q,steps,observed",
    [
        (26, 25, 201, "increasing"),               # D* ~ 0.9984, under one step below D = 1
        (23_000_000_000, 1, 11, "decreasing"),     # D* ~ 0.0507, under one step above D = 0
    ],
)
def test_monotonicity_scan_peak_within_a_step_of_an_end(p, q, steps, observed):
    report = monotonicity_scan(p, q, steps=steps)
    assert report.passed
    inputs = report.checks[0].worst_case_inputs
    assert inputs["expected-shape"] == "single-peaked"
    assert inputs["observed-shape"] == observed
    assert [c.name for c in report.checks] == [
        f"monotonicity-p{p}-q{q}",
        f"peak-location-p{p}-q{q}",
    ]


def test_shared_grid_scans_equal_one_scan_per_split():
    splits = [(8, 4), (5, 0), (0, 5), (26, 25)]
    shared = verify._shape_scans(splits, 201)
    assert shared.checks == sum((monotonicity_scan(p, q, steps=201).checks for p, q in splits), ())


def test_every_split_up_to_16_modes_has_the_predicted_shape():
    # The scans' classification over one 2001-point grid, for all 152 splits with 1 <= p + q <= 16.
    grid = BogoliubovGrid(1.0, 1.0, dilaton_grid(0.0, 1.0, 2001))
    shapes = {
        (p, n - p): verify._classify(e_grid((math.pi / 4,), grid, p, n - p)[0])
        for n in range(1, 17)
        for p in range(n + 1)
    }
    assert len(shapes) == 152
    wrong = {
        split: shape
        for split, shape in shapes.items()
        if shape != verify._expected_shape(*split, peak_dilaton(1.0, 1.0, *split))
    }
    assert wrong == {}
    # The paper's contrast: bipartite and tripartite entanglement (p + q <= 2) never turns;
    # the first split to peak keeps two outside modes and one inside mode, at N >= 4.
    peaked = [split for split, shape in shapes.items() if shape == "single-peaked"]
    assert [split for split in peaked if sum(split) <= 2] == []
    assert [split for split in peaked if sum(split) == 3] == [(2, 1)]


def _classify_in_turn(values):
    """``_classify`` written as one step per neighbouring pair."""
    signs = []
    for prev, cur in zip(values, values[1:]):
        if cur > prev:
            signs.append(1)
        elif cur < prev:
            signs.append(-1)
    collapsed = [signs[0]] if signs else []
    for sign in signs[1:]:
        if sign != collapsed[-1]:
            collapsed.append(sign)
    shapes = {(): "constant", (1,): "increasing", (-1,): "decreasing", (1, -1): "single-peaked"}
    return shapes.get(tuple(collapsed), "irregular")


@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf]), st.floats()), max_size=8))
def test_classify_is_one_step_per_neighbouring_pair(values):
    assert verify._classify(values) == _classify_in_turn(values)


def test_dual_construction_error_is_the_first_largest_entry_difference(monkeypatch):
    # Each block pair is read in the key order of the union, a missing block as
    # zero, and a NaN difference counts only where ``max`` meets it first.
    spec, params = ScenarioSpec(4, 2, 1, 1, 0.5), BlackHoleParams(1.0, 0.3, 1.0)
    oracle = verify.extract_xstate(verify.scenario_density(spec, bogoliubov(params)))
    keys = sorted(oracle.blocks)
    shifted = {i: (a + 1e-9 * i, b, c) for i, (a, b, c) in oracle.blocks.items()}
    nan_first = {**shifted, keys[0]: (math.nan, 0.0, 0.0)}
    nan_later = {**shifted, keys[-1]: (math.nan, 0.0, 0.0)}
    missing = {i: block for i, block in shifted.items() if i != keys[1]}
    zero = (0.0, 0.0, 0.0)
    for blocks in (shifted, nan_first, nan_later, missing):
        built = type("Built", (), {"blocks": blocks})()
        monkeypatch.setattr(verify, "build_block_matrix", lambda s, p, built=built: built)
        expected = max(
            abs(x - y)
            for i in oracle.blocks.keys() | blocks.keys()
            for x, y in zip(oracle.blocks.get(i, zero), blocks.get(i, zero))
        )
        dual = oracle_compare([(_twin(spec), params)]).checks[1]
        assert float.hex(dual.max_abs_error) == float.hex(expected)


def test_monotonicity_scan_validation():
    with pytest.raises(InvalidParams):
        monotonicity_scan(8, 4, steps=2)


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
