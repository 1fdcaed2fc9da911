import collections
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dilaton_gme import (
    BlackHoleParams,
    InvalidDensity,
    ModeLayout,
    NotXState,
    ScaleCap,
    ScenarioSpec,
    SparseDensity,
    XState,
    bogoliubov,
    build_block_matrix,
    extract_xstate,
    flat_mode,
    scenario_density,
)
from dilaton_gme import hawking, xstate
from dilaton_gme.xstate import _pair_xstates
from conftest import dense_xstate, triplets, xstate_from_triplets


def test_xstate_to_array_layout():
    x = xstate_from_triplets(a=(0.3, 0.2), b=(0.25, 0.25), c=(0.1, -0.05))
    mat = dense_xstate(x)
    assert x.half_dimension == 2
    assert x.dimension == 4
    expected = np.array(
        [
            [0.3, 0.0, 0.0, 0.1],
            [0.0, 0.2, -0.05, 0.0],
            [0.0, -0.05, 0.25, 0.0],
            [0.1, 0.0, 0.0, 0.25],
        ]
    )
    np.testing.assert_allclose(mat, expected)


def test_xstate_validation():
    with pytest.raises(InvalidDensity):
        XState(1, {1: (0.5, 0.5, 0.0)})  # block index past the half dimension
    with pytest.raises(InvalidDensity):
        XState(2, {-1: (0.5, 0.5, 0.0)})  # negative block index
    with pytest.raises(InvalidDensity):
        xstate_from_triplets(a=(0.7,), b=(0.7,), c=(0.0,))  # trace 1.4
    with pytest.raises(InvalidDensity):
        xstate_from_triplets(a=(1.2,), b=(-0.2,), c=(0.0,))  # negative population
    with pytest.raises(InvalidDensity):
        xstate_from_triplets(a=(0.5,), b=(0.5,), c=(0.6,))  # coherence too large
    with pytest.raises(InvalidDensity):
        xstate_from_triplets(a=(), b=(), c=())
    # A density that passes its own checks but not the X-state's: the pair
    # scan validates each pair as extract_xstate does.
    rho = SparseDensity(
        ModeLayout((flat_mode(1), flat_mode(2))), {(0, 0): 0.5, (3, 3): 0.5, (0, 3): 0.6}
    )
    for read in (extract_xstate, _pair_xstates):
        with pytest.raises(InvalidDensity, match=r"^coherence \|c\[0\]\| = 0.6 exceeds"):
            read(rho)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "blocks,message",
    [
        *(
            (blocks, f"{slot}-entry {value!r} is not a valid population")
            for value in (_NAN, _INF, -_INF, -2e-14)
            for slot, blocks in (
                ("a", {0: (value, 1.0, 0.0)}),
                ("b", {0: (1.0, value, 0.0)}),
            )
        ),
        # a is checked before b, both after the index and before the coherence
        ({0: (_NAN, -_INF, 5.0)}, "a-entry nan is not a valid population"),
        ({0: (0.5, _INF, 5.0)}, "b-entry inf is not a valid population"),
        ({0: (0.5, 0.5, 0.0), 2: (_NAN, 0.0, 0.0)}, "block index 2 outside [0, 2)"),
        ({-1: (0.5, 0.5, 0.0)}, "block index -1 outside [0, 2)"),
        ({1.0: (0.5, 0.5, 0.0)}, "block index 1.0 outside [0, 2)"),
        ({0: (0.5, 0.5, 0.6)}, "coherence |c[0]| = 0.6 exceeds sqrt(a*b) = 0.5"),
        (
            {1: (0.5, 0.5, -0.5 - 2e-12)},
            "coherence |c[1]| = 0.500000000002 exceeds sqrt(a*b) = 0.5",
        ),
        # A population just below zero counts as zero in the bound, and -0.0 as itself.
        ({0: (1.0, -1e-15, 2e-12)}, "coherence |c[0]| = 2e-12 exceeds sqrt(a*b) = 0.0"),
        ({0: (1.0, -0.0, 2e-12)}, "coherence |c[0]| = 2e-12 exceeds sqrt(a*b) = -0.0"),
        ({0: (0.5 + 2e-12, 0.5, 0.0)}, "trace deviates from 1 by 2.000e-12"),
        (
            {0: (0.25, 0.25, 0.0), 1: (0.25, 0.25 - 2e-12, 0.0)},
            "trace deviates from 1 by -2.000e-12",
        ),
    ],
)
def test_xstate_validation_messages(blocks, message):
    with pytest.raises(InvalidDensity, match=f"^{re.escape(message)}$"):
        XState(2, blocks)


def test_xstate_keeps_the_nonzero_blocks_as_floats():
    x = XState(4, {3: (0, 0.0, -0.0), 1: (1, 0, 0), 0: (0.0, 0.0, 0.0)})
    assert x.blocks == {1: (1.0, 0.0, 0.0)}
    assert all(type(v) is float for v in x.blocks[1])
    # Populations of 0.5 - 1e-15 and -1e-15 pass and enter the trace as they are.
    x = XState(2, {0: (0.5 - 1e-15, -1e-15, 0.0), 1: (0.5 + 2e-15, 0.0, 0.0)})
    assert x.blocks[0][1] == -1e-15


@given(
    weights=st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
    fractions=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
)
def test_random_xstates_are_positive(weights, fractions):
    total = sum(weights)
    a = tuple(w / total for w in weights[:4])
    b = tuple(w / total for w in weights[4:])
    c = tuple(f * math.sqrt(ai * bi) for f, ai, bi in zip(fractions, a, b))
    x = xstate_from_triplets(a, b, c)
    eigenvalues = np.linalg.eigvalsh(dense_xstate(x))
    assert eigenvalues.min() >= -1e-12
    assert np.trace(dense_xstate(x)) == pytest.approx(1.0, abs=1e-12)


def test_extract_from_sparse_density():
    layout = ModeLayout((flat_mode(1), flat_mode(2)))
    rho = SparseDensity(
        layout,
        {(0, 0): 0.4, (1, 1): 0.1, (2, 2): 0.15, (3, 3): 0.35, (0, 3): 0.2, (1, 2): -0.05},
    )
    a, b, c = triplets(extract_xstate(rho))
    assert a == (0.4, 0.1)
    assert b == (0.35, 0.15)
    assert c == (0.2, -0.05)


def test_extract_rejects_entries_off_the_x():
    layout = ModeLayout((flat_mode(1), flat_mode(2)))
    rho = SparseDensity(
        layout, {(0, 0): 0.5, (3, 3): 0.5, (0, 1): 0.01}
    )
    with pytest.raises(NotXState) as excinfo:
        extract_xstate(rho)
    assert (excinfo.value.row, excinfo.value.col) == (0, 1)
    # The pair scan raises where extract_xstate does: on the pair itself, and
    # on a pair of three modes whose reduction picks up a coherence off the X.
    three = SparseDensity(
        ModeLayout((flat_mode(1), flat_mode(2), flat_mode(3))),
        {(0, 0): 0.5, (1, 1): 0.5, (0, 1): 0.25},
    )
    with pytest.raises(NotXState) as excinfo:
        extract_xstate(three.reduce((flat_mode(1), flat_mode(3))))
    assert (excinfo.value.row, excinfo.value.col) == (0, 1)
    for dense in (rho, three):
        with pytest.raises(NotXState) as excinfo:
            _pair_xstates(dense)
        assert (excinfo.value.row, excinfo.value.col) == (0, 1)


def test_extract_tolerates_junk_below_tol():
    # Entries off the X are read as zero up to 1e-12 in magnitude.
    layout = ModeLayout((flat_mode(1), flat_mode(2)))
    rho = SparseDensity(
        layout, {(0, 0): 0.5, (3, 3): 0.5, (0, 1): 1e-13}
    )
    a, _, _ = triplets(extract_xstate(rho))
    assert a == (0.5, 0.0)
    assert _pair_xstates(rho) == [(extract_xstate(rho), [(flat_mode(1), flat_mode(2))])]
    above = SparseDensity(layout, {(0, 0): 0.5, (3, 3): 0.5, (0, 1): 2e-12})
    with pytest.raises(NotXState):
        extract_xstate(above)
    with pytest.raises(NotXState):
        _pair_xstates(above)


@pytest.mark.parametrize("n_parties,n_horizon", [(3, 1), (4, 2), (6, 4), (1000, 4)])
def test_pair_scan_builds_one_xstate_per_pair_and_no_density(monkeypatch, n_parties, n_horizon):
    # One X-state per class of alike pairs: every flat mode has the same bit
    # column, so the classes are the C(n + 1, 2) pairs of distinct columns plus,
    # with two flat modes or more, the flat pairs.
    spec = ScenarioSpec(n_parties, n_horizon, 1, n_horizon - 1, 0.7)
    rho = scenario_density(spec, bogoliubov(BlackHoleParams(1.0, 0.4, 1.0)))
    built = collections.Counter()
    for cls in (XState, SparseDensity, ModeLayout):

        def counted(self, check=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    classes = _pair_xstates(rho)
    n_classes = math.comb(n_horizon + 1, 2) + (n_parties - n_horizon >= 2)
    assert len(classes) == n_classes
    assert sum(len(pairs) for _, pairs in classes) == math.comb(n_parties, 2)
    assert built == {"XState": n_classes}
    # The counters do count: one reduction builds a layout, a density and an X-state.
    extract_xstate(rho.reduce(spec.kept_modes()[:2]))
    assert built == {"XState": n_classes + 1, "SparseDensity": 1, "ModeLayout": 1}


# Frozen from a 60-digit evaluation of the block structure at
# N=3, n=2, p=q=1, theta=pi/6, mass=omega=1, D=0.6.
FROZEN_A = (
    0.7499354258227527,
    3.228639362298309e-05,
    3.228639362298309e-05,
    1.390001295157614e-09,
)
FROZEN_B1 = 0.25
FROZEN_C1 = 0.0028410558610745006


def test_build_block_matrix_frozen_triplets():
    spec = ScenarioSpec(3, 2, 1, 1, math.pi / 6)
    pair = bogoliubov(BlackHoleParams(1.0, 0.6, 1.0))
    x = build_block_matrix(spec, pair)
    assert x.half_dimension == 4
    a, b, c = triplets(x)
    for value, frozen in zip(a, FROZEN_A):
        assert value == pytest.approx(frozen, rel=1e-13)
    assert b == (0.0, pytest.approx(FROZEN_B1, rel=1e-15), 0.0, 0.0)
    assert c == (0.0, pytest.approx(FROZEN_C1, rel=1e-13), 0.0, 0.0)


def test_block_matrix_takes_one_power_per_weight(monkeypatch):
    calls = []

    def counted(pair, alpha_exp, beta_exp):
        calls.append((alpha_exp, beta_exp))
        return hawking.coeff_power(pair, alpha_exp, beta_exp)

    monkeypatch.setattr(xstate, "coeff_power", counted)
    build_block_matrix(ScenarioSpec(9, 4, 3, 1, 0.5), bogoliubov(BlackHoleParams(1.0, 0.4, 1.0)))
    # n + 1 = 5 diagonal weights, one per Hamming weight, then the coherence.
    assert calls == [(8, 0), (6, 2), (4, 4), (2, 6), (0, 8), (3, 1)]


def test_block_matrix_agrees_with_simulated_reduction():
    spec = ScenarioSpec(4, 3, 2, 1, 1.1)
    pair = bogoliubov(BlackHoleParams(1.0, 0.8, 1.0))
    from_blocks = triplets(build_block_matrix(spec, pair))
    from_oracle = triplets(extract_xstate(scenario_density(spec, pair)))
    for oracle, blocks in zip(from_oracle, from_blocks):
        np.testing.assert_allclose(oracle, blocks, atol=1e-15)


@pytest.mark.parametrize("theta", [0.0, math.pi / 2])
def test_block_matrix_theta_endpoints(theta):
    spec = ScenarioSpec(3, 1, 0, 1, theta)
    pair = bogoliubov(BlackHoleParams(1.0, 0.4, 1.0))
    a, b, c = triplets(build_block_matrix(spec, pair))
    trace = math.fsum(a) + math.fsum(b)
    assert trace == pytest.approx(1.0, abs=1e-13)
    if theta == 0.0:
        assert max(b) == 0.0 and max(abs(v) for v in c) == 0.0
    else:
        assert b[1] == pytest.approx(1.0, abs=1e-15)


def test_block_matrix_scale_cap():
    # The only cap is the scenario's own budget; (20, 5) was refused by the old
    # N + n <= 24 cap and now builds its 2**5 blocks without any 2**20 cost.
    pair = bogoliubov(BlackHoleParams(1.0, 0.5, 1.0))
    x = build_block_matrix(ScenarioSpec(20, 5, 3, 2, 0.3), pair)
    assert x.half_dimension == 2**19 and len(x.blocks) == 2**5
    with pytest.raises(ScaleCap):
        build_block_matrix(ScenarioSpec(14, 11, 6, 5, 0.3), pair)
