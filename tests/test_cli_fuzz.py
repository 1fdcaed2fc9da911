"""Fuzz the command line in-process.

Whatever the argv, ``main`` must return 0, 1 or 2 without letting an
exception escape, and a rerun must print the very same bytes.  Values mix
valid numbers with nan/inf, negatives, huge integers and non-numbers;
``state`` and ``sweep --oracle`` also run right at the edge of the
``n_parties * 2**n_horizon`` budget.  Runs are kept small (at most 50
steps, ``verify`` only on the small grid) and derandomized.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dilaton_gme.cli import main
from dilaton_gme.modes_state import SCALE_BUDGET

_SETTINGS = dict(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_JUNK = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "-0.5", "1e308", "abc", "", "9" * 5000])
_HUGE = st.sampled_from([str(2**53 + 1), str(2**1024), str(10**400)])


def _mostly(strategy, junk=_JUNK):
    """Three parts ``strategy`` to one part junk, so that many argv get past parsing."""
    return st.one_of(strategy, strategy, strategy, junk)


_FLOAT = _mostly(st.floats(-0.5, 2.0).map(repr))
_COUNT = _mostly(st.one_of(st.integers(-2, 14).map(str), _HUGE))
# A grid is built point by point, so a valid huge step count is never drawn.
_STEPS = _mostly(st.integers(-2, 50).map(str))
_SPLIT = st.one_of(
    st.sampled_from([[], ["--accessible"], ["--inaccessible"], ["--accessible", "--inaccessible"]]),
    st.tuples(st.sampled_from(["--p", "--q"]), _COUNT).map(list),
    st.tuples(_COUNT, _COUNT).map(lambda pq: ["--p", pq[0], "--q", pq[1]]),
)


def _options(**options):
    """Any subset of ``--name value`` pairs."""
    named = {"--" + name.replace("_", "-"): value for name, value in options.items()}
    return st.fixed_dictionaries({}, optional=named).map(
        lambda drawn: [token for pair in drawn.items() for token in pair]
    )


def _argv(*pieces):
    """Concatenated argv pieces; a plain list is a fixed piece, a strategy a drawn one."""
    drawn = st.tuples(*(st.just(p) if isinstance(p, list) else p for p in pieces))
    return drawn.map(lambda parts: [token for part in parts for token in part])


def _value(strategy):
    return strategy.map(lambda value: [value])


_SWEEP = _argv(
    ["sweep", "--n-horizon"], _value(_COUNT), _SPLIT,
    _options(mass=_FLOAT, omega=_FLOAT, theta=_FLOAT, d_min=_FLOAT, d_max=_FLOAT, steps=_STEPS),
)
_ORACLE = _argv(
    ["sweep", "--oracle", "--n-parties"], _value(_COUNT), ["--n-horizon"], _value(_COUNT), _SPLIT,
    _options(theta=_FLOAT, mass=_FLOAT), ["--steps"], _value(st.sampled_from(["2", "3"])),
)
_STATE = _argv(
    ["state", "--n-parties"], _value(_COUNT), ["--n-horizon"], _value(_COUNT), _SPLIT,
    _options(theta=_FLOAT, mass=_FLOAT, dilaton=_FLOAT, omega=_FLOAT),
)


@st.composite
def _budget_edge(draw):
    """``state`` or ``sweep --oracle`` one party below, at or above the budget."""
    n_horizon = draw(st.integers(4, 11))
    n_parties = (SCALE_BUDGET >> n_horizon) + draw(st.integers(-1, 1))
    p = draw(st.integers(0, n_horizon))
    scenario = ["--n-parties", str(n_parties), "--n-horizon", str(n_horizon), "--p", str(p)]
    if draw(st.booleans()):
        return ["state"] + scenario + ["--dilaton", draw(st.sampled_from(["0", "0.5", "1"]))]
    return ["sweep", "--oracle"] + scenario + ["--steps", str(draw(st.integers(2, 3)))]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_clean_and_repeatable(argv):
    first = _run(argv)
    assert first[0] in (0, 1, 2), argv
    assert _run(argv) == first, argv


@settings(max_examples=100, **_SETTINGS)
@given(argv=_SWEEP)
def test_sweep_argv(argv):
    _assert_clean_and_repeatable(argv)


@settings(max_examples=60, **_SETTINGS)
@given(argv=st.one_of(_ORACLE, _STATE))
def test_oracle_and_state_argv(argv):
    _assert_clean_and_repeatable(argv)


@settings(max_examples=12, **_SETTINGS)
@given(argv=_argv(["figures"], _options(steps=_STEPS, mass=_FLOAT, omega=_FLOAT),
                  st.sampled_from([[], ["--svg"]])))
def test_figures_argv(argv, tmp_path):
    _assert_clean_and_repeatable(argv + ["--output-dir", str(tmp_path)])


@settings(max_examples=4, **_SETTINGS)
@given(steps=_STEPS)
def test_verify_argv(steps):
    _assert_clean_and_repeatable(["verify", "--grid", "small", "--steps", steps])


@settings(max_examples=15, **_SETTINGS)
@given(argv=_budget_edge())
def test_budget_edge_argv(argv):
    _assert_clean_and_repeatable(argv)
