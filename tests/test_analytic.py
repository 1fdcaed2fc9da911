import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dilaton_gme import (
    BlackHoleParams,
    BogoliubovGrid,
    InvalidParams,
    InvalidSpec,
    OddN,
    bogoliubov,
    coeff_power,
    e_accessible,
    e_general,
    e_grid,
    e_inaccessible,
    extreme_limit,
    log_power,
    monogamy_residual,
    peak_dilaton,
    sum_rule_linear,
    sum_rule_quadratic,
    theta_derivative,
)
from dilaton_gme.verify import RELATION_TOL

# (theta, dilaton, p, q, E) frozen from a 60-digit evaluation at mass = omega = 1
FROZEN_E = [
    (math.pi / 6, 0.3, 1, 1, 0.0001310016696847506),
    (0.4 * math.pi, 0.9, 2, 1, 0.14884287177886862),
    (math.pi / 12, 1.0, 0, 1, 0.3535533905932738),
    (math.pi / 6, 0.6, 3, 0, 0.8659694803046302),
]


@pytest.mark.parametrize("theta,dilaton,p,q,expected", FROZEN_E)
def test_e_general_frozen_values(theta, dilaton, p, q, expected):
    pair = bogoliubov(BlackHoleParams(1.0, dilaton, 1.0))
    assert e_general(theta, pair, p, q) == pytest.approx(expected, rel=1e-13)


def test_accessible_and_inaccessible_are_the_split_extremes():
    pair = bogoliubov(BlackHoleParams(1.0, 0.7, 1.0))
    theta = 0.9
    assert e_accessible(theta, pair, 4) == e_general(theta, pair, 4, 0)
    assert e_inaccessible(theta, pair, 4) == e_general(theta, pair, 0, 4)


def test_theta_endpoints_kill_the_entanglement():
    pair = bogoliubov(BlackHoleParams(1.0, 0.5, 1.0))
    assert e_general(0.0, pair, 2, 1) == 0.0
    assert abs(e_general(math.pi / 2, pair, 2, 1)) < 1e-15


def test_extreme_limit():
    assert extreme_limit(math.pi / 4, 5) == pytest.approx(0.1767766952966369, rel=1e-15)
    assert extreme_limit(math.pi / 6, 2) == pytest.approx(0.4330127018922193, rel=1e-15)
    # matches the general formula evaluated on the extreme pair
    pair = bogoliubov(BlackHoleParams(1.0, 1.0, 1.0))
    for p, q in ((5, 0), (3, 2), (0, 5)):
        assert e_general(0.3, pair, p, q) == pytest.approx(
            extreme_limit(0.3, 5), abs=1e-15
        )


def test_theta_derivative_matches_finite_difference():
    pair = bogoliubov(BlackHoleParams(1.0, 0.6, 1.0))
    h = 1e-6
    for theta in (0.3, math.pi / 4, 1.2):
        fd = (e_general(theta + h, pair, 2, 1) - e_general(theta - h, pair, 2, 1)) / (2 * h)
        assert theta_derivative(theta, pair, 2, 1) == pytest.approx(fd, abs=1e-9)
    # the derivative vanishes at the GHZ sweet spot theta = pi/4
    assert abs(theta_derivative(math.pi / 4, pair, 3, 0)) < 1e-15


def test_peak_dilaton_frozen_values():
    assert peak_dilaton(1.0, 1.0, 8, 4) == pytest.approx(0.9724205499809185, rel=1e-15)
    assert peak_dilaton(1.0, 1.0, 32, 2) == pytest.approx(0.8896821999236743, rel=1e-15)


def test_peak_dilaton_none_cases():
    assert peak_dilaton(1.0, 1.0, 5, 0) is None
    assert peak_dilaton(1.0, 1.0, 0, 5) is None
    assert peak_dilaton(1.0, 1.0, 4, 8) is None  # stationary point above M
    assert peak_dilaton(1.0, 1.0, 2, 32) is None
    # equal counts peak exactly at the extreme boundary
    assert peak_dilaton(1.0, 1.0, 3, 3) == 1.0
    # a small mass pushes the stationary point below D = 0
    assert peak_dilaton(0.01, 1.0, 8, 4) is None


def test_peak_is_actually_a_maximum():
    d_star = peak_dilaton(1.0, 1.0, 8, 4)
    theta = math.pi / 4

    def e_at(d):
        return e_general(theta, bogoliubov(BlackHoleParams(1.0, d, 1.0)), 8, 4)

    assert e_at(d_star) > e_at(d_star - 1e-3)
    assert e_at(d_star) > e_at(d_star + 1e-3)
    # peak value: alpha**8 beta**4 = 16/729 at the stationary point
    assert e_at(d_star) == pytest.approx(0.02194787379972565, rel=1e-12)


@pytest.mark.parametrize("dilaton", [0.0, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("theta", [math.pi / 12, math.pi / 6, math.pi / 4])
def test_sum_rules(dilaton, theta):
    pair = bogoliubov(BlackHoleParams(1.0, dilaton, 1.0))
    for n in range(1, 17):
        lhs, rhs = sum_rule_quadratic(theta, pair, n)
        assert rhs == math.sin(2 * theta) ** 2
        assert abs(lhs - rhs) < 1e-12
        if n % 2 == 0:
            lhs, rhs = sum_rule_linear(theta, pair, n)
            assert rhs == math.sin(2 * theta)
            assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("n_horizon", [1029, 1030, 2059, 2060, 4000])
def test_sum_rules_hold_past_the_float_range_of_the_binomials(n_horizon):
    # From n = 1030 (quadratic) and n = 2060 (linear) C(n, p) is beyond the
    # largest float; the sums must still match, not overflow.
    for dilaton in (0.0, 0.5, 0.9, 1.0):
        pair = bogoliubov(BlackHoleParams(1.0, dilaton, 1.0))
        for theta in (math.pi / 12, math.pi / 4):
            lhs, rhs = sum_rule_quadratic(theta, pair, n_horizon)
            assert abs(lhs - rhs) <= RELATION_TOL
            if n_horizon % 2 == 0:
                lhs, rhs = sum_rule_linear(theta, pair, n_horizon)
                assert abs(lhs - rhs) <= RELATION_TOL
    assert sum_rule_quadratic(0.0, pair, 4000) == (0.0, 0.0)


def test_huge_mode_counts_are_parameter_errors():
    # Counts past the largest float cannot enter float arithmetic; they are
    # refused as InvalidParams instead of ending in an OverflowError.
    pair = bogoliubov(BlackHoleParams(1.0, 0.5, 1.0))
    grid = BogoliubovGrid(1.0, 1.0, [0.2, 0.7])
    huge = 2**1024
    calls = [
        lambda: coeff_power(pair, huge, 0),
        lambda: log_power(pair, 1, huge),
        lambda: grid.powers(huge, 1),
        lambda: e_general(0.3, pair, huge, 0),
        lambda: e_grid([0.3], grid, 0, 10**400),
        lambda: theta_derivative(0.3, pair, 1, huge),
        lambda: extreme_limit(0.3, huge),
        lambda: peak_dilaton(1.0, 1.0, huge, 1),
        lambda: peak_dilaton(1.0, 1.0, 1, huge),
        lambda: monogamy_residual(0.3, pair, huge, 1),
        lambda: sum_rule_quadratic(0.3, pair, huge),
        lambda: coeff_power(pair, 0, 10**5000),  # past the int-to-str limit
    ]
    message = r"^exponents must not exceed 1\.7976931348623157e\+308, got \("
    for call in calls:
        with pytest.raises(InvalidParams, match=message):
            call()
    # Up to the largest float the counts still evaluate.
    largest = int(sys.float_info.max)
    assert coeff_power(pair, largest, 0) == 0.0
    assert e_general(0.3, pair, 1, largest) == 0.0
    assert extreme_limit(0.3, largest) == 0.0
    assert peak_dilaton(1.0, 1.0, largest, 1) is None


def test_sum_rule_linear_rejects_odd_counts():
    pair = bogoliubov(BlackHoleParams(1.0, 0.5, 1.0))
    with pytest.raises(OddN):
        sum_rule_linear(0.4, pair, 3)


def test_monogamy_residual():
    pair = bogoliubov(BlackHoleParams(1.0, 0.3, 1.0))
    value = monogamy_residual(math.pi / 6, pair, 2, 1)
    assert value == pytest.approx(1.7161437067505916e-08, rel=1e-13)
    e = e_general(math.pi / 6, pair, 2, 1)
    assert value == pytest.approx(e * e, rel=1e-13)


def test_validation_errors():
    pair = bogoliubov(BlackHoleParams(1.0, 0.5, 1.0))
    with pytest.raises(InvalidSpec):
        e_general(-0.1, pair, 1, 0)
    with pytest.raises(InvalidSpec):
        e_general(2.0, pair, 1, 0)
    with pytest.raises(InvalidSpec):
        e_general(0.3, pair, 0, 0)
    with pytest.raises(InvalidSpec):
        e_general(0.3, pair, -1, 2)
    with pytest.raises(InvalidParams):
        peak_dilaton(-1.0, 1.0, 2, 1)
    with pytest.raises(InvalidParams):
        peak_dilaton(1.0, 0.0, 2, 1)


@given(
    theta=st.floats(0.0, math.pi / 2),
    fraction=st.floats(0.0, 1.0),
    n_out=st.integers(0, 10),
    n_in=st.integers(0, 10),
)
def test_e_general_properties(theta, fraction, n_out, n_in):
    if n_out + n_in == 0:
        n_out = 1
    pair = bogoliubov(BlackHoleParams(1.0, fraction, 1.0))
    e = e_general(theta, pair, n_out, n_in)
    # bounded by the GHZ value, symmetric about theta = pi/4
    assert 0.0 <= e <= math.sin(2 * theta) + 1e-15
    assert e == pytest.approx(e_general(math.pi / 2 - theta, pair, n_out, n_in), abs=1e-14)
    # trading an outside mode for an inside one can only hurt
    if n_out > 0:
        assert e_general(theta, pair, n_out - 1, n_in + 1) <= e + 1e-15
