"""The batched closed-form kernel against the scalar functions.

``BogoliubovGrid`` and ``e_grid`` must return the very floats that
``bogoliubov`` and ``e_general`` give point by point, and must still
reject every bad input, checking each domain once per batch.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dilaton_gme import (
    BlackHoleParams,
    BogoliubovGrid,
    InvalidParams,
    InvalidSpec,
    analytic,
    bogoliubov,
    coeff_power,
    e_general,
    e_grid,
    hawking,
    log_power,
    sum_rule_linear,
    sum_rule_quadratic,
)
from dilaton_gme.verify import MAX_SUM_RULE_HORIZON


def _bits(values):
    """Exact float identity, down to the sign of zero."""
    return [float.hex(v) for v in values]


def _assert_grid_matches_scalar(mass, omega, dilatons, thetas, p, q):
    grid = BogoliubovGrid(mass, omega, dilatons)
    pairs = [bogoliubov(BlackHoleParams(mass, d, omega)) for d in dilatons]
    assert _bits(grid.alphas) == _bits(pair.alpha for pair in pairs)
    assert _bits(grid.betas) == _bits(pair.beta for pair in pairs)
    assert _bits(grid.powers(p, q)) == _bits(coeff_power(pair, p, q) for pair in pairs)
    rows = e_grid(thetas, grid, p, q)
    assert len(rows) == len(thetas)
    for theta, row in zip(thetas, rows):
        assert _bits(row) == _bits(e_general(theta, pair, p, q) for pair in pairs)
    return grid


@settings(max_examples=200, deadline=None)
@given(
    mass=st.floats(0.05, 5.0),
    omega=st.floats(0.01, 100.0),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    thetas=st.lists(st.floats(0.0, math.pi / 2), min_size=1, max_size=3),
    p=st.integers(0, 2000),
    q=st.integers(0, 2000),
)
def test_grid_equals_scalar_bit_for_bit(mass, omega, fractions, thetas, p, q):
    assume(p + q >= 1)
    # f <= 1 keeps f * mass <= mass exactly.
    _assert_grid_matches_scalar(mass, omega, [f * mass for f in fractions], thetas, p, q)


def test_grid_direct_branch():
    dilatons = [0.0, 0.25, 0.5, 0.75, 1.0]
    grid = _assert_grid_matches_scalar(1.0, 1.0, dilatons, [math.pi / 6], 2, 3)
    assert all(b > 0.0 for b in grid.betas)
    assert all(
        log_power(bogoliubov(BlackHoleParams(1.0, d, 1.0)), 2, 3) > -700.0 for d in dilatons
    )


def test_grid_exp_branch():
    # At D = 0, beta**57 sits near exp(-716), a subnormal, and beta**64 near
    # exp(-804), which underflows: both are below the direct-product floor.
    pair = bogoliubov(BlackHoleParams(1.0, 0.0, 1.0))
    for q in (57, 64):
        assert log_power(pair, 0, q) < -700.0
        _assert_grid_matches_scalar(1.0, 1.0, [0.0, 0.3], [math.pi / 4], 0, q)
    assert 0.0 < BogoliubovGrid(1.0, 1.0, [0.0]).powers(0, 57)[0] < 1e-300


def test_grid_vanishing_beta_branch():
    # omega = 80 puts x = 8 pi (M - D) omega near 2000: beta underflows to 0.
    grid = _assert_grid_matches_scalar(1.0, 80.0, [0.0, 0.1, 1.0], [0.4], 2, 2)
    assert grid.betas[:2] == [0.0, 0.0] and grid.betas[2] > 0.0
    assert grid.powers(2, 2)[:2] == [0.0, 0.0]
    _assert_grid_matches_scalar(1.0, 80.0, [0.0, 0.1, 1.0], [0.4], 4, 0)


def test_grid_without_inside_modes():
    _assert_grid_matches_scalar(1.3, 0.7, [0.0, 0.65, 1.3], [0.1, math.pi / 4], 80, 0)


_RULE_THETAS = (0.0, math.pi / 12, math.pi / 4, 0.4 * math.pi)


@pytest.mark.parametrize("omega", [1.0, 80.0])
@pytest.mark.parametrize("dilaton", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n_horizon", [1, 2, 7, 16, 80, 1029, 1030, 2059, 2060])
def test_sum_rules_equal_their_scalar_sums(omega, dilaton, n_horizon):
    pair = bogoliubov(BlackHoleParams(1.0, dilaton, omega))
    # Batched over theta on one power row, each rule gives the floats of its
    # scalar form while its binomials fit a float (the quadratic rule to
    # n = 1029, the linear one to n = 2059); past that the scalar rules sum in
    # decimals, which only they do.
    sines = [math.sin(2.0 * theta) for theta in _RULE_THETAS]
    row = analytic._power_row(pair, n_horizon)
    quadratic = [sum_rule_quadratic(theta, pair, n_horizon)[0] for theta in _RULE_THETAS]
    if n_horizon <= MAX_SUM_RULE_HORIZON:
        assert analytic._binomial_sums(sines, row, 2) == quadratic
    if n_horizon % 2 == 0:
        linear = [sum_rule_linear(theta, pair, n_horizon)[0] for theta in _RULE_THETAS]
        if n_horizon // 2 <= MAX_SUM_RULE_HORIZON:
            assert analytic._binomial_sums(sines, row[::2], 1) == linear
    if n_horizon > 80:
        # This reference rounds C * E**2, the rule (C * E) * E, so past here
        # the last bits may part; the sums are held to RELATION_TOL instead by
        # test_sum_rules_hold_past_the_float_range_of_the_binomials.
        return
    theta = math.pi / 6
    quadratic = math.fsum(
        math.comb(n_horizon, p) * e_general(theta, pair, p, n_horizon - p) ** 2
        for p in range(n_horizon + 1)
    )
    assert sum_rule_quadratic(theta, pair, n_horizon)[0] == quadratic
    if n_horizon % 2 == 0:
        half = n_horizon // 2
        linear = math.fsum(
            math.comb(half, k) * e_general(theta, pair, n_horizon - 2 * k, 2 * k)
            for k in range(half + 1)
        )
        assert sum_rule_linear(theta, pair, n_horizon)[0] == linear


@pytest.mark.parametrize(
    "dilatons,bad",
    [
        ([0.0, 0.5, 1.5, 0.7, 1.0], "1.5"),
        ([0.0, 0.5, -0.1, 0.7, 1.0], "-0.1"),
        ([0.0, 0.5, math.nan, 0.7, 1.0], "nan"),
        ([0.0, 0.5, math.inf, 0.7, 1.0], "inf"),
    ],
)
def test_a_dilaton_out_of_range_anywhere_in_the_list_is_rejected(dilatons, bad):
    message = rf"^dilaton must lie in \[0, mass\] = \[0, 1.0\], got {bad}$"
    with pytest.raises(InvalidParams, match=message):
        BogoliubovGrid(1.0, 1.0, dilatons)


@pytest.mark.parametrize(
    "mass,omega,message",
    [
        (0.0, 1.0, "mass must be a positive finite number, got 0.0"),
        (math.inf, 1.0, "mass must be a positive finite number, got inf"),
        (1.0, -2.0, "omega must be a positive finite number, got -2.0"),
        (1.0, math.nan, "omega must be a positive finite number, got nan"),
    ],
)
def test_grid_mass_and_omega_checks_match_the_scalar_ones(mass, omega, message):
    with pytest.raises(InvalidParams) as scalar:
        BlackHoleParams(mass, 0.0, omega)
    with pytest.raises(InvalidParams) as batched:
        BogoliubovGrid(mass, omega, [0.0, 0.0])
    assert str(batched.value) == str(scalar.value) == message


def test_empty_grid():
    grid = BogoliubovGrid(1.0, 1.0, [])
    assert grid.powers(1, 1) == [] and e_grid((0.3,), grid, 1, 1) == [[]]


@pytest.mark.parametrize(
    "thetas,n_out,n_in",
    [
        ((0.3, 2.0), 1, 1),
        ((math.nan,), 1, 1),
        ((0.3,), -1, 2),
        ((0.3,), 0, 0),
        ((0.3,), 1.5, 1),
    ],
)
def test_bad_theta_or_split_is_rejected_before_any_point(thetas, n_out, n_in, monkeypatch):
    grid = BogoliubovGrid(1.0, 1.0, [0.0, 0.5, 1.0])
    computed = []
    monkeypatch.setattr(hawking, "_power", lambda *args: computed.append(args) or 0.0)
    with pytest.raises(InvalidSpec):
        e_grid(thetas, grid, n_out, n_in)
    assert computed == []
    e_grid((0.3,), grid, 1, 1)
    assert len(computed) == 3


def test_negative_exponents_are_rejected_by_the_grid():
    with pytest.raises(InvalidParams, match="exponents must be non-negative"):
        BogoliubovGrid(1.0, 1.0, [0.5]).powers(-1, 2)
