"""Mode-mixing coefficients and their stable powers.

Reference numbers below were frozen from a 60-digit mpmath evaluation of
the defining expressions, independent of the implementation.
"""

import copy
import math
import pickle
import random
import re
import sys

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dilaton_gme import (
    BlackHoleParams,
    BogoliubovGrid,
    BogoliubovPair,
    InvalidParams,
    InvalidSpec,
    ModeLayout,
    ScenarioSpec,
    SparseDensity,
    SparseState,
    VerificationCheck,
    VerificationReport,
    XState,
    bogoliubov,
    coeff_power,
    hawking,
)
from dilaton_gme.hawking import dilaton_grid

# (dilaton, alpha, beta) at mass = omega = 1
FROZEN_COEFFS = [
    (0.0, 0.9999999999939192, 3.4873423561877897e-06),
    (0.3, 0.9999999885590414, 0.0001512677002442099),
    (0.6, 0.9999784745792453, 0.006561278698981193),
    (0.9, 0.9618041182907098, 0.2737386308854312),
]


@pytest.mark.parametrize("dilaton,alpha,beta", FROZEN_COEFFS)
def test_frozen_coefficients(dilaton, alpha, beta):
    pair = bogoliubov(BlackHoleParams(1.0, dilaton, 1.0))
    assert pair.alpha == pytest.approx(alpha, rel=1e-14)
    assert pair.beta == pytest.approx(beta, rel=1e-13)


def test_extreme_limit_coefficients_are_identical():
    # D = M kills the exponent, so both coefficients are the same float.
    pair = bogoliubov(BlackHoleParams(2.5, 2.5, 0.7))
    assert pair.alpha == pair.beta
    assert pair.alpha == pytest.approx(2.0**-0.5, abs=1e-15)


def test_only_the_product_mass_minus_dilaton_times_omega_matters():
    a = bogoliubov(BlackHoleParams(2.0, 1.0, 0.5))
    b = bogoliubov(BlackHoleParams(1.0, 0.5, 1.0))
    assert (a.alpha, a.beta) == (b.alpha, b.beta)


@pytest.mark.parametrize(
    "mass,dilaton,omega",
    [
        (0.0, 0.0, 1.0),
        (-1.0, 0.0, 1.0),
        (1.0, -0.1, 1.0),
        (1.0, 1.1, 1.0),
        (1.0, 0.5, 0.0),
        (1.0, 0.5, -2.0),
        (math.inf, 0.0, 1.0),
        (1.0, math.nan, 1.0),
    ],
)
def test_invalid_black_hole_params(mass, dilaton, omega):
    with pytest.raises(InvalidParams):
        BlackHoleParams(mass, dilaton, omega)


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: BlackHoleParams("1", 0.5, 1.0), InvalidParams, "mass must be a real number, got '1'"),
        (lambda: BlackHoleParams(1.0, 0.5, None), InvalidParams, "omega must be a real number, got None"),
        (lambda: BlackHoleParams(1.0, 0.5j, 1.0), InvalidParams, "dilaton must be a real number, got 0.5j"),
        (lambda: BlackHoleParams(True, 0.5, 1.0), InvalidParams, "mass must be a real number, got True"),
        (lambda: BlackHoleParams(1.0, False, 1.0), InvalidParams, "dilaton must be a real number, got False"),
        (lambda: BlackHoleParams(1.0, 0.5, True), InvalidParams, "omega must be a real number, got True"),
        (lambda: BogoliubovGrid(1.0, 1.0, [0.1, "0.2"]), InvalidParams,
         "every dilaton must be a real number, got float, str"),
        (lambda: BogoliubovGrid(1.0, 1.0, ["0.2"]), InvalidParams,
         "every dilaton must be a real number, got str"),
        (lambda: BogoliubovGrid(1.0, 1.0, [0.0, 1.0, True, 0.5]), InvalidParams,
         "every dilaton must be a real number, got bool, float"),
        (lambda: BogoliubovGrid(None, 1.0, [0.5]), InvalidParams, "mass must be a real number, got None"),
        (lambda: ScenarioSpec(3, 1, 1, 0, True), InvalidSpec, "theta must be a real number, got True"),
    ],
    ids=["mass-str", "omega-none", "dilaton-complex", "mass-bool", "dilaton-bool", "omega-bool",
         "grid-str", "grid-only-str", "grid-bool", "grid-mass-none", "theta-bool"],
)
def test_a_value_that_is_not_a_real_number_is_refused(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_pair_validation():
    BogoliubovPair(1.0, 0.0)  # boundary pair is legal
    with pytest.raises(InvalidParams):
        BogoliubovPair(0.5, 0.5)  # not normalised
    with pytest.raises(InvalidParams):
        BogoliubovPair(0.6, 0.8)  # normalised but alpha < beta
    with pytest.raises(InvalidParams):
        BogoliubovPair(0.0, 1.0)


# Each value type: built by keyword, its fields, an unequal value, and the ``repr`` the frozen
# dataclass it replaced printed.  A field given in another form is stored as the check makes it.
_CHECK = dict(name="monogamy", grid_size=3, max_abs_error=0.0, tolerance=1e-12, status="pass", worst_case_inputs=None)
_VALUES = [
    (lambda: BlackHoleParams(mass=2, dilaton=1, omega=0.5), (2.0, 1.0, 0.5), BlackHoleParams(2.0, 1.5, 0.5),
     "BlackHoleParams(mass=2.0, dilaton=1.0, omega=0.5)"),
    (lambda: BogoliubovPair(alpha=0.9618041182907098, beta=0.27373863088543127),
     (0.9618041182907098, 0.27373863088543127), BogoliubovPair(1.0, 0.0),
     "BogoliubovPair(alpha=0.9618041182907098, beta=0.27373863088543127)"),
    (lambda: ModeLayout(modes=["F1", "O1"]), (("F1", "O1"),), ModeLayout(("F1", "I1")),
     "ModeLayout(modes=('F1', 'O1'))"),
    (lambda: ScenarioSpec(n_parties=3, n_horizon=1, n_out_kept=1, n_in_kept=0, theta=0.5),
     (3, 1, 1, 0, 0.5), ScenarioSpec(3, 1, 0, 1, 0.5),
     "ScenarioSpec(n_parties=3, n_horizon=1, n_out_kept=1, n_in_kept=0, theta=0.5)"),
    (lambda: SparseState(layout=("F1", "F2"), amplitudes={0: 0.6, 1: 0.0, 3: 0.8}),
     (ModeLayout(("F1", "F2")), {0: 0.6, 3: 0.8}), SparseState(ModeLayout(("F1", "F2")), {0: 0.8, 3: 0.6}),
     "SparseState(layout=ModeLayout(modes=('F1', 'F2')), amplitudes={0: 0.6, 3: 0.8})"),
    (lambda: SparseDensity(layout=("F1", "F2"), entries={(0, 0): 0.5, (0, 3): 0.5, (3, 3): 0.5}),
     (ModeLayout(("F1", "F2")), {(0, 0): 0.5, (0, 3): 0.5, (3, 3): 0.5}),
     SparseDensity(ModeLayout(("F1", "F2")), {(0, 0): 0.5, (3, 3): 0.5}),
     "SparseDensity(layout=ModeLayout(modes=('F1', 'F2')), entries={(0, 0): 0.5, (0, 3): 0.5, (3, 3): 0.5})"),
    (lambda: XState(half_dimension=2, blocks={0: (0.5, 0.5, 0.5), 1: (0.0, 0.0, 0.0)}),
     (2, {0: (0.5, 0.5, 0.5)}), XState(2, {0: (0.5, 0.5, 0.0)}),
     "XState(half_dimension=2, blocks={0: (0.5, 0.5, 0.5)})"),
    (lambda: VerificationCheck(**_CHECK), tuple(_CHECK.values()), VerificationCheck(**dict(_CHECK, status="fail")),
     "VerificationCheck(name='monogamy', grid_size=3, max_abs_error=0.0, tolerance=1e-12, status='pass', "
     "worst_case_inputs=None)"),
    (lambda: VerificationReport(checks=(VerificationCheck(**_CHECK),)), ((VerificationCheck(**_CHECK),),),
     VerificationReport(()),
     "VerificationReport(checks=(VerificationCheck(name='monogamy', grid_size=3, max_abs_error=0.0, "
     "tolerance=1e-12, status='pass', worst_case_inputs=None),))"),
]
_VALUE_IDS = ["params", "pair", "layout", "spec", "state", "density", "xstate", "check", "report"]


@pytest.mark.parametrize("index", range(len(_VALUES)), ids=_VALUE_IDS)
def test_value_types_keep_the_frozen_dataclass_contract(index):
    build, fields, unequal, text = _VALUES[index]
    value, same, other = build(), build(), _VALUES[(index + 1) % len(_VALUES)][0]()
    assert value is not same and value == same and not value != same
    assert value != unequal and not value == unequal
    for foreign in (other, fields):  # another class, and a plain tuple of the same fields
        assert value != foreign and value.__eq__(foreign) is NotImplemented
    try:
        expected = hash(fields)
    except TypeError:  # a dict among the fields: unhashable, as the dataclass was
        for unhashable in (value, same):
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(unhashable)
    else:
        assert hash(value) == hash(same) == expected
    assert repr(value) == text
    name = text.partition("(")[2].partition("=")[0]
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
        setattr(value, name, 0.5)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
        delattr(value, name)
    assert repr(value) == text
    for restored in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(restored) is type(value) and restored == value and repr(restored) == text


@pytest.mark.parametrize("index", range(len(_VALUES)), ids=_VALUE_IDS)
def test_a_value_is_checked_once_per_build_copy_and_pickle(index, monkeypatch):
    # A copy or a pickle holds the fields only and goes back through the constructor, which
    # runs the check hook; a verify report has no check, so its constructor is counted.
    build = _VALUES[index][0]
    kind, checks = type(build()), []
    hook = "__post_init__" if hasattr(kind, "__post_init__") else "__init__"
    check = getattr(kind, hook)
    monkeypatch.setattr(kind, hook, lambda self, *args, **kwargs: checks.append(check(self, *args, **kwargs)))
    value = build()
    for rebuild in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
        assert rebuild(value) == value
    assert len(checks) == 4


@given(
    mass=st.floats(0.05, 20.0),
    fraction=st.floats(0.0, 1.0),
    omega=st.floats(0.05, 5.0),
)
def test_normalisation_and_ordering(mass, fraction, omega):
    pair = bogoliubov(BlackHoleParams(mass, fraction * mass, omega))
    assert abs(pair.alpha**2 + pair.beta**2 - 1.0) <= 1e-14
    assert pair.alpha >= pair.beta
    assert 0.0 < pair.alpha <= 1.0
    assert 0.0 <= pair.beta < 1.0


def test_beta_grows_with_dilaton():
    betas = [
        bogoliubov(BlackHoleParams(1.0, d, 1.0)).beta
        for d in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    ]
    assert all(b1 < b2 for b1, b2 in zip(betas, betas[1:]))


def test_coeff_power_frozen_values():
    pair = bogoliubov(BlackHoleParams(1.0, 0.0, 1.0))
    assert coeff_power(pair, 5, 0) == pytest.approx(0.9999999999695961, rel=1e-14)
    assert coeff_power(pair, 0, 8) == pytest.approx(2.187543395106811e-44, rel=1e-13)
    # underflows the subnormal range entirely -> clean zero, no error
    assert coeff_power(pair, 0, 64) == 0.0


def test_coeff_power_boundary_and_validation():
    boundary = BogoliubovPair(1.0, 0.0)
    assert coeff_power(boundary, 7, 0) == 1.0
    assert coeff_power(boundary, 2, 3) == 0.0
    with pytest.raises(InvalidParams):
        coeff_power(boundary, -1, 0)


def _assert_within_rounding(value, alpha, beta, alpha_exp, beta_exp):
    """``value`` is ``alpha**alpha_exp * beta**beta_exp`` of the two floats, to rounding.

    Against a 60-digit product: within a relative 1e-15 where that is a
    normal float, and within the smallest subnormal below.
    """
    with mpmath.workdps(60):
        exact = mpmath.mpf(alpha) ** alpha_exp * mpmath.mpf(beta) ** beta_exp
        error = abs(value - exact)
        if exact >= sys.float_info.min:
            assert error <= 1e-15 * exact, (alpha_exp, beta_exp, value, exact)
        else:
            assert error <= math.ulp(0.0), (alpha_exp, beta_exp, value, exact)


def test_monomials_match_mpmath_in_and_below_the_normal_range():
    # log(alpha) runs from -0.039 to -0.35 over these dilatons, so every
    # monomial whose log-value spans [-745, -600] needs exponents below 20,000.
    grid = BogoliubovGrid(1.0, 1.0, dilaton_grid(0.9, 1.0, 11))
    pairs = [BogoliubovPair(alpha, beta) for alpha, beta in zip(grid.alphas, grid.betas)]
    rng = random.Random(30)
    for _ in range(200):
        point = rng.randrange(len(pairs))
        pair = pairs[point]
        log_alpha, log_beta = math.log(pair.alpha), math.log(pair.beta)
        log_value = rng.uniform(-745.0, -600.0)
        beta_exp = int(rng.random() * log_value / log_beta)
        alpha_exp = round((log_value - beta_exp * log_beta) / log_alpha)
        (row,) = hawking._power_rows(pair, (alpha_exp + beta_exp,))
        for value in (
            coeff_power(pair, alpha_exp, beta_exp), grid.powers(alpha_exp, beta_exp)[point], row[beta_exp]
        ):
            _assert_within_rounding(value, pair.alpha, pair.beta, alpha_exp, beta_exp)
