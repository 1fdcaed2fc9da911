"""The batched closed-form kernel against the scalar functions.

``BogoliubovGrid`` and ``e_grid`` must return the very floats that
``bogoliubov`` and ``e_general`` give point by point, and must still
reject every bad input, checking each domain once per batch.
"""

import math
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dilaton_gme import (
    BlackHoleParams,
    BogoliubovGrid,
    BogoliubovPair,
    InvalidParams,
    InvalidSpec,
    analytic,
    bogoliubov,
    coeff_power,
    e_general,
    e_grid,
    hawking,
    sum_rule_linear,
    sum_rule_quadratic,
)
from dilaton_gme.analytic import MAX_FLOAT_BINOMIAL
from dilaton_gme.hawking import dilaton_grid


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
# Grids whose smallest beta**56 sits just below exp(-699) (-699.49), just above it
# (-698.79), and just below it on a one-point grid (-699.32); with q = 0, a grid
# whose alpha**2080 reaches exp(-707.89), next to the smallest normal float.
@example(mass=1.0, omega=0.994, fractions=[0.0, 0.5, 1.0], thetas=[math.pi / 4], p=0, q=56)
@example(mass=1.0, omega=0.993, fractions=[0.0, 0.5, 1.0], thetas=[math.pi / 4], p=0, q=56)
@example(mass=1.0, omega=1.325, fractions=[0.25], thetas=[math.pi / 4], p=0, q=56)
@example(mass=1.0, omega=1.0, fractions=[0.0, 0.999], thetas=[math.pi / 4], p=2080, q=0)
def test_grid_equals_scalar_bit_for_bit(mass, omega, fractions, thetas, p, q):
    assume(p + q >= 1)
    # f <= 1 keeps f * mass <= mass exactly.
    _assert_grid_matches_scalar(mass, omega, [f * mass for f in fractions], thetas, p, q)


class _CountedMath:
    """``math`` as ``hawking`` sees it, counting the logs taken through it."""

    def __init__(self):
        self.logs = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log(self, x):
        self.logs += 1
        return math.log(x)


def _count_logs(monkeypatch):
    counted = _CountedMath()
    monkeypatch.setattr(hawking, "math", counted)
    return counted


def test_grid_direct_branch(monkeypatch):
    dilatons = [0.0, 0.25, 0.5, 0.75, 1.0]
    grid = _assert_grid_matches_scalar(1.0, 1.0, dilatons, [math.pi / 6], 2, 3)
    assert all(b > 0.0 for b in grid.betas)
    counted = _count_logs(monkeypatch)
    grid.powers(2, 3)
    assert counted.logs == 0


def test_powers_take_no_log_in_or_below_the_normal_range(monkeypatch):
    counted = _count_logs(monkeypatch)
    grid = BogoliubovGrid(1.0, 1.0, dilaton_grid(0.0, 1.0, 2001))
    # At D = 0, beta**57 is near exp(-716) and, at D = 1, alpha**2100 near exp(-728):
    # below the normal range too, each point is the plain product.
    for p, q in ((8, 4), (0, 57), (2100, 0)):
        grid.powers(p, q)
    assert counted.logs == 0


def test_grid_powers_reach_the_subnormals_and_zero():
    # At D = 0, beta**57 sits near exp(-716), a subnormal, and beta**64 near
    # exp(-804), which underflows to 0.0.
    for q in (57, 64):
        _assert_grid_matches_scalar(1.0, 1.0, [0.0, 0.3], [math.pi / 4], 0, q)
    assert 0.0 < BogoliubovGrid(1.0, 1.0, [0.0]).powers(0, 57)[0] < 1e-300
    assert BogoliubovGrid(1.0, 1.0, [0.0]).powers(0, 64) == [0.0]


def test_grid_vanishing_beta_branch():
    # omega = 80 puts x = 8 pi (M - D) omega near 2000: beta underflows to 0.
    grid = _assert_grid_matches_scalar(1.0, 80.0, [0.0, 0.1, 1.0], [0.4], 2, 2)
    assert grid.betas[:2] == [0.0, 0.0] and grid.betas[2] > 0.0
    assert grid.powers(2, 2)[:2] == [0.0, 0.0]
    _assert_grid_matches_scalar(1.0, 80.0, [0.0, 0.1, 1.0], [0.4], 4, 0)


def test_grid_without_inside_modes():
    _assert_grid_matches_scalar(1.3, 0.7, [0.0, 0.65, 1.3], [0.1, math.pi / 4], 80, 0)


def _assert_points_are_pairs(mass, omega, dilatons):
    """Each grid point passes ``BogoliubovPair``'s checks and is the scalar pair, bit for bit.

    ``BogoliubovGrid`` checks its inputs only: the coefficients it builds from them must
    meet the pair conditions by construction, out to the edges of the float range.
    """
    grid = BogoliubovGrid(mass, omega, dilatons)
    for dilaton, alpha, beta in zip(dilatons, grid.alphas, grid.betas):
        pair = BogoliubovPair(alpha, beta)
        scalar = bogoliubov(BlackHoleParams(mass, dilaton, omega))
        assert _bits([pair.alpha, pair.beta]) == _bits([scalar.alpha, scalar.beta]), dilaton


def _x(mass, dilaton, omega):
    return 8.0 * math.pi * (mass - dilaton) * omega  # as ``hawking._mixing`` forms it


_TINY, _HUGE = 5e-324, sys.float_info.max
_EDGE_GRIDS = [
    # (mass, omega, dilatons, the edge that some point reaches)
    (1.0, 1.0, [0.0, 0.5, 1.0], lambda x: x == 0.0),  # D = M
    (_TINY, 1.0, [0.0, _TINY], lambda x: 0.0 < x < sys.float_info.min),  # subnormal mass
    (1.0, _TINY, [0.0, 0.5, 1.0], lambda x: 0.0 < x < sys.float_info.min),  # subnormal omega
    (1.0, 28.5, dilaton_grid(0.0, 1.0, 11), lambda x: 0.0 < math.exp(-x) < sys.float_info.min),
    (1.0, 29.6, dilaton_grid(0.0, 1.0, 11), lambda x: 0.0 < math.exp(-x) < sys.float_info.min),
    # beta = exp(-x/2) * alpha is 0.0 at every D < 40.7
    (100.0, 1.0, dilaton_grid(0.0, 100.0, 101), lambda x: math.exp(-0.5 * x) == 0.0),
    (1e200, 1e200, [0.0, 5e199, 1e200], lambda x: x == math.inf),
    (_HUGE, _HUGE, [0.0, _HUGE / 2, _HUGE], lambda x: x == math.inf),
]


@pytest.mark.parametrize("mass,omega,dilatons,edge", _EDGE_GRIDS)
def test_grid_points_meet_the_pair_conditions_at_the_float_edges(mass, omega, dilatons, edge):
    assert any(edge(_x(mass, dilaton, omega)) for dilaton in dilatons)
    _assert_points_are_pairs(mass, omega, dilatons)


_POSITIVE = st.floats(0.0, sys.float_info.max, exclude_min=True, allow_subnormal=True)


@settings(max_examples=300, deadline=None)
@given(mass=_POSITIVE, omega=_POSITIVE, fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_grid_points_meet_the_pair_conditions_over_the_whole_float_range(mass, omega, fractions):
    # f <= 1 keeps f * mass <= mass exactly.
    _assert_points_are_pairs(mass, omega, [f * mass for f in fractions])


_RULE_THETAS = (0.0, math.pi / 12, math.pi / 4, 0.4 * math.pi)


def _assert_kernel_sums_each_row(sines, rows, power):
    """The kernel's sums are, bit for bit, each row's ``math.fsum`` of its terms on its own.

    A term is ``C(m, k) * E * E`` (or ``C(m, k) * E``), ``m = len(row) - 1``,
    formed from ``E = s * row[k]`` as the kernel forms it, whatever the other
    rows are: a repeated ``m`` and an empty row list included.
    """

    def term(c, e):
        return c * e * e if power == 2 else c * e

    def row_sum(s, row):
        m = len(row) - 1
        return math.fsum(term(float(math.comb(m, k)), s * r) for k, r in enumerate(row))

    expected = [[row_sum(s, row) for row in rows] for s in sines]
    sums = analytic._binomial_sums(sines, rows, power)
    assert len(sums) == len(sines)
    assert [_bits(row_sums) for row_sums in sums] == [_bits(row_sums) for row_sums in expected]


@pytest.mark.parametrize("omega", [1.0, 80.0])
@pytest.mark.parametrize("dilaton", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n_horizon", [1, 2, 7, 16, 80, 1029, 1030, 2059, 2060])
def test_sum_rules_equal_their_scalar_sums(omega, dilaton, n_horizon):
    pair = bogoliubov(BlackHoleParams(1.0, dilaton, omega))
    # Batched over theta, with this power row laid after the row of n = 1,
    # each rule gives the floats of its scalar form while its binomials fit a
    # float (the quadratic rule to n = 1029, the linear one to n = 2059); past
    # that the scalar rules sum in decimals, which only they do.
    sines = [math.sin(2.0 * theta) for theta in _RULE_THETAS]
    first, row = hawking._power_rows(pair, (1, n_horizon))
    assert [first, row] == [hawking._power_rows(pair, (n,))[0] for n in (1, n_horizon)]
    quadratic = [sum_rule_quadratic(theta, pair, n_horizon)[0] for theta in _RULE_THETAS]
    if n_horizon <= MAX_FLOAT_BINOMIAL:
        sums = analytic._binomial_sums(sines, [first, row], 2)
        assert [row_sums[1] for row_sums in sums] == quadratic
        _assert_kernel_sums_each_row(sines, [first, row, first], 2)
        _assert_kernel_sums_each_row(sines, [], 2)
    if n_horizon % 2 == 0:
        linear = [sum_rule_linear(theta, pair, n_horizon)[0] for theta in _RULE_THETAS]
        if n_horizon // 2 <= MAX_FLOAT_BINOMIAL:
            sums = analytic._binomial_sums(sines, [first, row[::2]], 1)
            assert [row_sums[1] for row_sums in sums] == linear
            _assert_kernel_sums_each_row(sines, [first, row[::2], first], 1)
            _assert_kernel_sums_each_row(sines, [], 1)
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


def _assert_rows_are_coeff_powers(pair, horizons):
    rows = hawking._power_rows(pair, horizons)
    assert len(rows) == len(horizons)
    for n, row in zip(horizons, rows):
        assert _bits(row) == _bits(coeff_power(pair, n - k, k) for k in range(n + 1)), n


@pytest.mark.parametrize(
    "omega,dilaton",
    [(80.0, 0.0), (2.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.05, 0.3)],
)
def test_power_rows_are_coeff_powers_on_both_sides_of_the_direct_floor(omega, dilaton):
    # omega = 80 at D = 0 leaves beta = 0.0; at omega = 2 and 1 the rows up to
    # n = 80 cross exp(-700) near n = 28 and n = 56.
    pair = bogoliubov(BlackHoleParams(1.0, dilaton, omega))
    _assert_rows_are_coeff_powers(pair, range(1, 81))
    _assert_rows_are_coeff_powers(pair, [80, 3, 17, 3])
    if pair.beta == 0.0:
        return
    # The longest row whose beta**top stays above exp(-699), and one row more,
    # each the longest row of its call.
    log_beta = math.log(pair.beta)
    top = next(t for t in range(1, 10**6) if (t + 1) * log_beta <= -699.0)
    assert top * log_beta > -699.0
    for last in (top, top + 1):
        _assert_rows_are_coeff_powers(pair, [1, last // 2, last - 1, last])


@pytest.mark.parametrize(
    "log_beta,top",
    [(-0.45, 1554), (-3.01, 232)],
    ids=["bound-misses-the-margin", "bound-clears-the-margin"],
)
def test_power_rows_are_coeff_powers_next_to_the_bound(monkeypatch, log_beta, top):
    # top * log(beta) is -699.3 for the first pair and -698.3 for the second,
    # either side of exp(-699): each way the rows are one table of powers,
    # never coeff_power per entry.
    beta = math.exp(log_beta)
    pair = BogoliubovPair(math.sqrt(1.0 - beta * beta), beta)
    calls = []

    def counted(*args):
        calls.append(args)
        return coeff_power(*args)

    monkeypatch.setattr(hawking, "coeff_power", counted)
    _assert_rows_are_coeff_powers(pair, (1,))
    _assert_rows_are_coeff_powers(pair, [1, top // 2, top - 1, top])
    assert calls == []


@pytest.mark.parametrize(
    "pair",
    [
        BogoliubovPair(1.0, 0.0),  # every positive power of beta is an exact 0.0
        BogoliubovPair(math.sqrt(0.5), math.sqrt(0.5)),  # the extreme limit
        bogoliubov(BlackHoleParams(1.0, 1.0, 1.0)),
    ],
    ids=["no-beta", "extreme", "extreme-from-params"],
)
def test_power_rows_are_coeff_powers_at_the_edge_pairs(pair):
    _assert_rows_are_coeff_powers(pair, [1, 2, 700, 1029, 1030, 2059, 2060])
    _assert_rows_are_coeff_powers(pair, range(1, 40))


@pytest.mark.parametrize("n_horizon", [1029, 1030])
def test_power_rows_feed_the_quadratic_rule_at_the_float_binomial_cap(n_horizon):
    pair = bogoliubov(BlackHoleParams(1.0, 0.5, 1.0))
    _assert_rows_are_coeff_powers(pair, [n_horizon])
    theta = math.pi / 6
    lhs, rhs = sum_rule_quadratic(theta, pair, n_horizon)
    if n_horizon <= MAX_FLOAT_BINOMIAL:
        s = math.sin(2.0 * theta)
        terms = [
            float(math.comb(n_horizon, k)) * (e := s * coeff_power(pair, n_horizon - k, k)) * e
            for k in range(n_horizon + 1)
        ]
        assert lhs == math.fsum(terms)
    assert abs(lhs - rhs) <= 1e-12


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
def test_bad_theta_or_split_is_rejected_before_any_point(thetas, n_out, n_in):
    grid = BogoliubovGrid(1.0, 1.0, [0.0, 0.5, 1.0])
    # ``powers`` reads ``grid.alphas`` once per point, in its one pass.
    computed = []
    grid.alphas = _ReadCounted(grid.alphas, computed)
    with pytest.raises(InvalidSpec):
        e_grid(thetas, grid, n_out, n_in)
    assert computed == []
    e_grid((0.3,), grid, 1, 1)
    assert len(computed) == 3


class _ReadCounted(list):
    """A list that records every item its iterator hands out."""

    def __init__(self, items, reads):
        super().__init__(items)
        self.reads = reads

    def __iter__(self):
        for item in super().__iter__():
            self.reads.append(item)
            yield item


def test_negative_exponents_are_rejected_by_the_grid():
    with pytest.raises(InvalidParams, match="exponents must be non-negative"):
        BogoliubovGrid(1.0, 1.0, [0.5]).powers(-1, 2)
