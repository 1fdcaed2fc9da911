"""Every site that takes a real number or a count gives the same verdict on the same value.

The package has one rule for each, in ``dilaton_gme.errors``: a real number
is a ``numbers.Real`` that is not a ``bool``, read as a ``float``; a count
is an ``int`` that is not a ``bool``.  Each site below is fed a value that
lies inside its own range, so only the rule can refuse it.  A real number
that no float can hold, and a sequence input that cannot be iterated or is
a bare ``str``, are refused by the rule as well.
"""

import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from dilaton_gme import (
    BlackHoleParams,
    BogoliubovGrid,
    BogoliubovPair,
    DilatonGmeError,
    InvalidDensity,
    InvalidParams,
    InvalidPartition,
    InvalidSpec,
    ModeLayout,
    ScenarioSpec,
    SparseDensity,
    SparseState,
    XState,
    coeff_power,
    default_oracle_grid,
    e_general,
    e_grid,
    flat_mode,
    gme_pure,
    monotonicity_scan,
    oracle_compare,
    partial_trace,
    relationship_suite,
)
from dilaton_gme.hawking import dilaton_grid

_ONE_MODE = ModeLayout(("F1",))
_TWO_MODES = ModeLayout(("F1", "F2"))
_PAIR = BogoliubovPair(0.8, 0.6)

# Each site takes the value 1 and returns what it stored.
_REAL_SITES = {
    "mass": lambda v: BlackHoleParams(v, 0.0, 1.0).mass,
    "omega": lambda v: BlackHoleParams(1.0, 0.0, v).omega,
    "dilaton": lambda v: BlackHoleParams(2.0, v, 1.0).dilaton,
    "theta": lambda v: ScenarioSpec(3, 1, 1, 0, v).theta,
    "pair-alpha": lambda v: BogoliubovPair(v, 0.0).alpha,
    "grid-mass": lambda v: BogoliubovGrid(v, 1.0, [0.5]).mass,
    "grid-interior": lambda v: BogoliubovGrid(2.0, 1.0, [0.0, v, 2.0]).dilatons[1],
    "grid-end": lambda v: BogoliubovGrid(1.0, 1.0, [0.0, v]).dilatons[1],
    "amplitude": lambda v: SparseState(_ONE_MODE, {0: v}).amplitudes[0],
    "density-entry": lambda v: SparseDensity(_ONE_MODE, {(0, 0): v}).entries[(0, 0)],
    "xstate-entry": lambda v: XState(1, {0: (v, 0.0, 0.0)}).blocks[0][0],
}

# Each site takes the count 3.
_COUNT_SITES = {
    "n_parties": lambda v: ScenarioSpec(v, 1, 1, 0, 0.5),
    "n_horizon": lambda v: ScenarioSpec(5, v, 2, 1, 0.5),
    "n_out_kept": lambda v: ScenarioSpec(5, 3, v, 0, 0.5),
    "n_in_kept": lambda v: ScenarioSpec(5, 3, 0, v, 0.5),
    "steps": lambda v: dilaton_grid(0.0, 1.0, v),
    "scan-steps": lambda v: monotonicity_scan(2, 1, steps=v),
    "max_parties": lambda v: default_oracle_grid(max_parties=v),
    "max_horizon": lambda v: default_oracle_grid(max_parties=4, max_horizon=v),
    "n_out": lambda v: e_general(0.5, _PAIR, v, 0),
    "n_in": lambda v: e_general(0.5, _PAIR, 0, v),
    "coeff-exponent": lambda v: coeff_power(_PAIR, v, 0),
    "grid-exponent": lambda v: BogoliubovGrid(1.0, 1.0, [0.5]).powers(v, 1),
    "mode-index": lambda v: flat_mode(v),
    "basis-label": lambda v: SparseState(_TWO_MODES, {v: 1.0}),
    "entry-index": lambda v: SparseDensity(_TWO_MODES, {(v, v): 1.0}),
    "block-index": lambda v: XState(4, {v: (1.0, 0.0, 0.0)}),
    "half-dimension": lambda v: XState(v, {0: (1.0, 0.0, 0.0)}),
}


@pytest.mark.parametrize("site", _REAL_SITES)
@pytest.mark.parametrize("value", [1.0, 1, Fraction(1), np.float32(1.0), np.int64(1)], ids=repr)
def test_every_real_site_stores_a_real_number_as_a_float(site, value):
    stored = _REAL_SITES[site](value)
    assert type(stored) is float and stored == 1.0


@pytest.mark.parametrize("site", _REAL_SITES)
@pytest.mark.parametrize("value", [True, "1", None, 1 + 0j, Decimal(1)], ids=repr)
def test_every_real_site_refuses_what_is_not_a_real_number(site, value):
    with pytest.raises(DilatonGmeError):
        _REAL_SITES[site](value)


@pytest.mark.parametrize("site", _REAL_SITES)
@pytest.mark.parametrize("value", [10**400, -(10**400), Fraction(10**400, 3)], ids=["1e400", "-1e400", "fraction"])
def test_every_real_site_refuses_a_real_number_past_the_float_range(site, value):
    with pytest.raises(DilatonGmeError, match="must lie within the float range, got (int|Fraction) beyond it$"):
        _REAL_SITES[site](value)


_GHZ3 = SparseState(ModeLayout(("F1", "F2", "F3")), {0: 0.5**0.5, 7: 0.5**0.5})
_POINTS = (
    (ScenarioSpec(3, 1, 1, 0, 0.5), BlackHoleParams(1.0, 0.5, 1.0)),
    (ScenarioSpec(3, 1, 0, 1, 0.5), BlackHoleParams(1.0, 0.5, 1.0)),
)

# Each site takes its two items as any iterable and returns how many it read.  Every
# bipartition of a three-party GHZ state at theta = pi/4 has entanglement 1, so the
# gme_pure sites read twice that.
_SEQUENCE_SITES = {
    "layout-modes": lambda v: len(ModeLayout(v).modes),
    "state-layout": lambda v: len(SparseState(v, {0: 1.0}).layout.modes),
    "density-layout": lambda v: len(SparseDensity(v, {(0, 0): 1.0}).layout.modes),
    "grid-dilatons": lambda v: len(BogoliubovGrid(1.0, 1.0, v).dilatons),
    "e-grid-thetas": lambda v: len(e_grid(v, BogoliubovGrid(1.0, 1.0, [0.5]), 1, 0)),
    "trace-keep": lambda v: len(partial_trace(_GHZ3, v).layout),
    "reduce-keep": lambda v: len(partial_trace(_GHZ3, ("F1", "F2", "F3")).reduce(v).layout),
    "gme-parties": lambda v: round(2 * gme_pure(_GHZ3, v)),
    "gme-party": lambda v: round(2 * gme_pure(_GHZ3, [v, ("F3",)])),
    "oracle-grid": lambda v: oracle_compare(v).checks[0].grid_size,
    "suite-grid": lambda v: relationship_suite(grid=v).checks[2].grid_size,
}
_SEQUENCE_ITEMS = {
    "layout-modes": ("F1", "F2"),
    "state-layout": ("F1", "F2"),
    "density-layout": ("F1", "F2"),
    "grid-dilatons": (0.5, 1.0),
    "e-grid-thetas": (0.0, 0.25),
    "trace-keep": ("F1", "F3"),
    "reduce-keep": ("F3", "F1"),
    "gme-parties": (("F1", "F2"), ("F3",)),
    "gme-party": ("F1", "F2"),
    "oracle-grid": _POINTS,
    "suite-grid": _POINTS,
}
# A bare ``str`` iterates over its letters, so it is refused too: ``"F1"`` is not the modes F and 1.
_NOT_ITERABLE = [(site, value) for site in _SEQUENCE_SITES for value in (None, 5, 0.5, "F1")]


@pytest.mark.parametrize("site", _SEQUENCE_SITES)
@pytest.mark.parametrize("kind", [tuple, list, iter], ids=["tuple", "list", "iterator"])
def test_every_sequence_site_takes_any_iterable(site, kind):
    assert _SEQUENCE_SITES[site](kind(_SEQUENCE_ITEMS[site])) == 2


@pytest.mark.parametrize("site,value", _NOT_ITERABLE, ids=[f"{value!r}-{site}" for site, value in _NOT_ITERABLE])
def test_every_sequence_site_refuses_what_cannot_be_iterated(site, value):
    with pytest.raises(DilatonGmeError, match=f"must be a sequence, got {type(value).__name__}$"):
        _SEQUENCE_SITES[site](value)


class _Count(int):
    """An ``int`` subclass that is not a ``bool``: a count, though ``type(v) is int`` is false."""


@pytest.mark.parametrize("site", _COUNT_SITES)
def test_every_count_site_takes_an_int(site):
    _COUNT_SITES[site](3)
    _COUNT_SITES[site](_Count(3))


@pytest.mark.parametrize("site", _COUNT_SITES)
@pytest.mark.parametrize("value", [np.int64(3), True, 3.0, "3"], ids=repr)
def test_every_count_site_refuses_what_is_not_an_int(site, value):
    with pytest.raises(DilatonGmeError):
        _COUNT_SITES[site](value)


# Its repr passes Python's int-to-str limit, so a message names its type instead.
_HUGE_FRACTION = Fraction(10**5000, 3)


@pytest.mark.parametrize("site", _COUNT_SITES)
def test_every_count_site_refuses_a_value_too_long_to_print(site):
    with pytest.raises(DilatonGmeError, match="<Fraction with too many digits to print>"):
        _COUNT_SITES[site](_HUGE_FRACTION)


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: BogoliubovPair("1", 0.0), InvalidParams, "alpha must be a real number, got '1'"),
        (lambda: BogoliubovPair(1.0, None), InvalidParams, "beta must be a real number, got None"),
        (lambda: BogoliubovPair(1.0, 1.0), InvalidParams, "beta must lie in [0, 1), got 1.0"),
        (lambda: BogoliubovGrid(1.0, 1.0, [0.0, Decimal("0.5"), 1.0]), InvalidParams,
         "every dilaton must be a real number, got Decimal, float"),
        (lambda: ScenarioSpec(3, 1, 1, 0, float("nan")), InvalidSpec, "theta must lie in [0, pi/2], got nan"),
        (lambda: ScenarioSpec(3, 1, 1, 0, float("-inf")), InvalidSpec, "theta must lie in [0, pi/2], got -inf"),
        (lambda: coeff_power(_PAIR, 1.5, 0), InvalidParams, "exponents must be non-negative integers, got (1.5, 0)"),
        (lambda: BogoliubovGrid(1.0, 1.0, [0.5]).powers(0, "1"), InvalidParams,
         "exponents must be non-negative integers, got (0, '1')"),
        (lambda: coeff_power(_PAIR, True, 0), InvalidParams, "exponents must be non-negative integers, got (True, 0)"),
        (lambda: XState(1, {0: (1.0, 0.0)}), InvalidDensity, "block 0 is not an (a, b, c) triple"),
        (lambda: XState(1, {0: 1.0}), InvalidDensity, "block 0 is not an (a, b, c) triple"),
        (lambda: XState(1, None), InvalidDensity, "blocks must be a mapping, got NoneType"),
        (lambda: SparseDensity(_ONE_MODE, {0: 1.0}), InvalidDensity, "entry key 0 is not a (row, col) pair"),
        (lambda: SparseDensity(_ONE_MODE, {(0, 0, 0): 1.0}), InvalidDensity,
         "entry key (0, 0, 0) is not a (row, col) pair"),
        (lambda: SparseDensity(_ONE_MODE, [1.0]), InvalidDensity, "entries must be a mapping, got list"),
        # No trace-one positive matrix has an entry above 1/2 off its diagonal; past 1, sums overflow.
        (lambda: SparseDensity(_TWO_MODES, {(0, 0): 0.5, (3, 3): 0.5, (0, 3): 1e308}), InvalidDensity,
         "off-diagonal entry (0, 3) = 1e+308 exceeds 1 in magnitude"),
        (lambda: SparseDensity(_TWO_MODES, {(0, 0): 0.5, (3, 3): 0.5, (1, 2): -1.5}), InvalidDensity,
         "off-diagonal entry (1, 2) = -1.5 exceeds 1 in magnitude"),
        (lambda: SparseState(_ONE_MODE, None), InvalidParams, "amplitudes must be a mapping, got NoneType"),
        (lambda: SparseState(("F1", "F1"), {0: 1.0}), InvalidSpec, "layout contains a duplicate mode"),
        (lambda: SparseState(("F1", "F1"), {7: 1.0}), InvalidSpec, "layout contains a duplicate mode"),
        (lambda: SparseDensity("F1F2", {(0, 0): 1.0}), InvalidSpec, "modes must be a sequence, got str"),
        (lambda: SparseDensity(None, {(0, 0): 1.0}), InvalidSpec, "modes must be a sequence, got NoneType"),
        (lambda: BlackHoleParams(10**400, 0.0, 1.0), InvalidParams,
         "mass must lie within the float range, got int beyond it"),
        (lambda: SparseState(_ONE_MODE, {0: 10**400}), InvalidParams,
         "amplitude at basis label 0 must lie within the float range, got int beyond it"),
        (lambda: BogoliubovGrid(1.0, 1.0, [0.5, 10**400]), InvalidParams,
         "dilaton must lie within the float range, got int beyond it"),
        (lambda: ScenarioSpec(3, 1, 1, 0, Fraction(10**400, 3)), InvalidSpec,
         "theta must lie within the float range, got Fraction beyond it"),
        (lambda: e_grid([10**400], BogoliubovGrid(1.0, 1.0, [0.5]), 1, 0), InvalidSpec,
         "theta must lie within the float range, got int beyond it"),
        (lambda: ModeLayout(None), InvalidSpec, "modes must be a sequence, got NoneType"),
        (lambda: BogoliubovGrid(1.0, 1.0, None), InvalidParams, "dilatons must be a sequence, got NoneType"),
        (lambda: BogoliubovGrid(1.0, 1.0, 5), InvalidParams, "dilatons must be a sequence, got int"),
        (lambda: e_grid(None, BogoliubovGrid(1.0, 1.0, [0.5]), 1, 0), InvalidSpec,
         "thetas must be a sequence, got NoneType"),
        (lambda: dilaton_grid(0.0, 1.0, _HUGE_FRACTION), InvalidParams,
         "steps must be an integer, got <Fraction with too many digits to print>"),
        (lambda: ScenarioSpec(_HUGE_FRACTION, 1, 1, 0, 0.5), InvalidSpec,
         "n_parties must be an integer, got <Fraction with too many digits to print>"),
        (lambda: coeff_power(_PAIR, _HUGE_FRACTION, 0), InvalidParams,
         "exponents must be non-negative integers, got (<Fraction with too many digits to print>, 0)"),
        (lambda: partial_trace(_GHZ3, [["F1"]]), InvalidPartition, "mode ['F1'] is not part of layout F1,F2,F3"),
        (lambda: partial_trace(_GHZ3, ["F1"]).reduce([["F1"]]), InvalidPartition,
         "mode ['F1'] is not part of layout F1"),
        (lambda: gme_pure(_GHZ3, [["F1"], [["F2"]], ["F3"]]), InvalidPartition,
         "a mode is its label string, got ['F2']"),
        (lambda: gme_pure(_GHZ3, [["F1"], [2], ["F3"]]), InvalidPartition, "a mode is its label string, got 2"),
        (lambda: gme_pure(_GHZ3, [["F1"], ["F1", "F2"], ["F3"]]), InvalidPartition,
         "layout contains a duplicate mode"),
        # Finite values whose sum overflows in math.fsum: the norm or trace reads as infinite.
        (lambda: SparseDensity(["F1"], {(0, 0): 1e308, (1, 1): 1e308}), InvalidDensity, "trace deviates from 1 by inf"),
        (lambda: SparseState(["F1"], {0: 1e154, 1: 1e154}), InvalidParams, "state norm**2 deviates from 1 by inf"),
        (lambda: XState(1, {0: (1e308, 1e308, 0.0)}), InvalidDensity, "trace deviates from 1 by inf"),
    ],
    ids=["pair-str", "pair-none", "pair-beta-one", "grid-decimal", "theta-nan", "theta-inf", "exponent-float",
         "grid-exponent-str", "exponent-bool", "xstate-short-block", "xstate-scalar-block", "xstate-none",
         "density-int-key", "density-long-key", "density-list", "density-entry-past-one",
         "density-entry-below-minus-one", "state-none", "state-duplicate-mode",
         "state-label-past-duplicate-layout", "density-str-layout", "density-none-layout", "mass-past-floats",
         "amplitude-past-floats", "grid-past-floats", "theta-past-floats", "e-grid-past-floats", "layout-none",
         "grid-none", "grid-int", "e-grid-none", "steps-too-long", "n-parties-too-long",
         "exponent-too-long", "trace-unhashable-mode", "reduce-unhashable-mode",
         "gme-unhashable-mode", "gme-int-mode", "gme-duplicate-mode", "density-trace-overflow",
         "state-norm-overflow", "xstate-trace-overflow"],
)
def test_a_refused_input_names_what_it_refuses(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
