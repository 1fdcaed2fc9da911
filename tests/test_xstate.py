import bisect
import collections
import contextlib
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dilaton_gme import (
    BlackHoleParams,
    BogoliubovPair,
    InvalidDensity,
    InvalidParams,
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
    pair_entanglement,
    scenario_density,
)
from dilaton_gme import hawking, verify, xstate
from dilaton_gme.modes_state import SCALE_BUDGET
from dilaton_gme.verify import default_oracle_grid
from conftest import dense_xstate, near_entries, public_pair_scores, triplets, xstate_from_triplets


def test_xstate_to_array_layout():
    x = xstate_from_triplets(a=(0.3, 0.2), b=(0.25, 0.25), c=(0.1, -0.05))
    mat = dense_xstate(x)
    assert x.half_dimension == 2
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
    # step of verify scores each pair through extract_xstate's check.
    rho = SparseDensity(
        ModeLayout((flat_mode(1), flat_mode(2))), {(0, 0): 0.5, (3, 3): 0.5, (0, 3): 0.6}
    )
    for read in (extract_xstate, verify._pair_scores):
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


def test_xstate_refuses_a_nan_coherence():
    # abs(nan) compares false with any bound, so only a failed "within" test catches it.
    for index, blocks in [(0, {0: (0.5, 0.5, _NAN)}), (1, {0: (0.25, 0.25, 0.0), 1: (0.25, 0.25, -_NAN)})]:
        with pytest.raises(InvalidDensity, match=rf"^coherence c\[{index}\] is nan$"):
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
    # The pair step raises where extract_xstate does: on the pair itself, and
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
            verify._pair_scores(dense)
        assert (excinfo.value.row, excinfo.value.col) == (0, 1)


def test_extract_tolerates_junk_below_tol():
    # Entries off the X are read as zero up to 1e-12 in magnitude.
    layout = ModeLayout((flat_mode(1), flat_mode(2)))
    rho = SparseDensity(
        layout, {(0, 0): 0.5, (3, 3): 0.5, (0, 1): 1e-13}
    )
    a, _, _ = triplets(extract_xstate(rho))
    assert a == (0.5, 0.0)
    # The junk differs on one mode, so the pair step scores the pair itself.
    assert verify._pair_scores(rho) == [pair_entanglement(rho)] == [0.0]
    above = SparseDensity(layout, {(0, 0): 0.5, (3, 3): 0.5, (0, 1): 2e-12})
    with pytest.raises(NotXState):
        extract_xstate(above)
    with pytest.raises(NotXState):
        verify._pair_scores(above)


def _counted_checks(monkeypatch):
    """A counter of the public checks that ``XState``, ``SparseDensity`` and ``ModeLayout`` run from now on."""
    built = collections.Counter()
    for cls in (XState, SparseDensity, ModeLayout):

        def counted(self, *args, check=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            check(self, *args)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return built


def _counted_pair_step(monkeypatch):
    """``_counted_checks``, plus a count of ``SparseDensity.reduce`` and of verify's ``pair_entanglement``."""
    built = _counted_checks(monkeypatch)
    reduce, score = SparseDensity.reduce, verify.pair_entanglement

    def counted_reduce(self, keep):
        built["reduce"] += 1
        return reduce(self, keep)

    def counted_score(rho):
        built["pair_entanglement"] += 1
        return score(rho)

    monkeypatch.setattr(SparseDensity, "reduce", counted_reduce)
    monkeypatch.setattr(verify, "pair_entanglement", counted_score)
    return built


@pytest.mark.parametrize("n_parties,n_horizon", [(3, 1), (4, 2), (6, 4), (1000, 4), (13312, 1), (64, 8), (13, 11)])
def test_pair_scan_builds_one_xstate_per_pair_and_no_density(monkeypatch, n_parties, n_horizon):
    # The pair step certifies a scenario state from its support: one score for the
    # point, and no X-state, density or layout for any of its C(N, 2) pairs.
    spec = ScenarioSpec(n_parties, n_horizon, 1, n_horizon - 1, 0.7)
    rho = scenario_density(spec, bogoliubov(BlackHoleParams(1.0, 0.4, 1.0)))
    built = _counted_pair_step(monkeypatch)
    assert verify._pair_scores(rho) == [0.0]
    assert built == {}
    # The counters do count: one pair scored in public reduces, builds a layout, a
    # density and an X-state, and scores the pair zero.
    assert verify.pair_entanglement(rho.reduce(spec.kept_modes()[:2])) == 0.0
    assert built == {"reduce": 1, "pair_entanglement": 1, "XState": 1, "SparseDensity": 1, "ModeLayout": 1}


def _scenario_densities():
    """The oracle grid's points with three parties or more, and three splits and dilatons at six scales."""
    for spec, params in default_oracle_grid():
        if spec.n_parties >= 3:
            yield scenario_density(spec, bogoliubov(params))
    for n_parties, n_horizon in [(1000, 4), (13312, 1), (64, 8), (13, 11), (3, 2), (3, 1)]:
        for p in sorted({0, (n_horizon + 1) // 2, n_horizon}):
            spec = ScenarioSpec(n_parties, n_horizon, p, n_horizon - p, 0.7)
            for dilaton in (0.0, 0.6, 1.0):
                yield scenario_density(spec, bogoliubov(BlackHoleParams(1.0, dilaton, 1.0)))


def test_pair_scan_reads_the_diagonal_alone_on_scenario_densities(monkeypatch):
    # No scenario state holds an entry that differs on one or two modes: for N >= 3 its
    # one coherence differs on all N modes.  So the pair step certifies every one of them
    # and reduces nothing, scores no pair and builds no density, layout or X-state.
    densities = list(_scenario_densities())
    assert len(densities) == 840 + 48
    for rho in densities:
        assert near_entries(rho) == []
    built = _counted_pair_step(monkeypatch)
    for rho in densities:
        assert verify._pair_scores(rho) == [0.0]
    assert built == {}


@pytest.mark.parametrize(
    "entries,fails",
    [
        # Differs on F3 alone: (F1, F2) scores, and (F1, F3) holds the entry off its X.
        ({(0, 0): 0.5, (7, 7): 0.5, (0, 1): 2e-12}, True),
        # Differs on F2 and F3: all three pairs score, (F2, F3) on the coherence.
        ({(0, 0): 0.5, (7, 7): 0.5, (0, 3): 0.1}, False),
    ],
    ids=["off-x", "coherence"],
)
def test_pair_scan_reduces_each_class_of_a_density_with_a_near_entry(monkeypatch, entries, fails):
    # An entry that differs on one or two modes sends every pair to the public score, up to
    # the first one that fails: one reduced density per pair scored or failed.
    rho = SparseDensity(ModeLayout((flat_mode(1), flat_mode(2), flat_mode(3))), entries)
    expected, failure = public_pair_scores(rho)
    assert (failure is not None) == fails
    built = _counted_pair_step(monkeypatch)
    with pytest.raises(NotXState) if fails else contextlib.nullcontext():
        assert verify._pair_scores(rho) == expected
    assert built["reduce"] == built["SparseDensity"] == built["pair_entanglement"] == (2 if fails else 3)


def _classes_from_columns(rho):
    """``[(first pair, last pair, pairs on mode 0)]`` per class of alike pairs, from the mode columns.

    A mode's column is its bits over the rows and columns of the diagonal
    entries and of the entries that differ on one or two modes; the pairs
    ``(i, j)``, ``i < j``, whose modes have one ordered pair of columns form
    a class, and every pair of a class has the same reduction.  The classes
    come in the order of their first pairs.
    """
    n = len(rho.layout)
    labels = sorted({label for row, col in rho.entries if (row ^ col).bit_count() <= 2 for label in (row, col)})
    modes_of: dict[tuple, list[int]] = {}
    for k in range(n):
        modes_of.setdefault(tuple((label >> (n - 1 - k)) & 1 for label in labels), []).append(k)
    classes = []
    for first in modes_of.values():
        for second in modes_of.values():
            i = first[0]
            later = bisect.bisect_right(second, i)
            if later == len(second):
                continue  # no mode of the second column comes after the first column's first mode
            j_last = second[-1]
            i_last = first[bisect.bisect_left(first, j_last) - 1]
            on_first = len(second) - later if i == 0 else 0
            classes.append(((i, second[later]), (i_last, j_last), on_first))
    return sorted(classes)


@pytest.mark.parametrize("n_parties,n_horizon", [(1000, 4), (13312, 1), (64, 8), (13, 11)])
def test_pair_scan_classes_match_reduce_at_the_large_scales(n_parties, n_horizon):
    # Too many pairs to reduce them all, but alike pairs share one reduction: the first
    # and the last pair of each class score exactly the certified zero in public, and
    # the classes hold N - 1 pairs on mode 0, the pairs monogamy reads.
    p = (n_horizon + 1) // 2
    spec = ScenarioSpec(n_parties, n_horizon, p, n_horizon - p, 0.7)
    rho = scenario_density(spec, bogoliubov(BlackHoleParams(1.0, 0.9, 1.0)))
    modes = rho.layout.modes
    classes = _classes_from_columns(rho)
    assert len(classes) == math.comb(n_horizon + 1, 2) + (n_parties - n_horizon >= 2)
    assert sum(on_first for _, _, on_first in classes) == n_parties - 1
    assert verify._pair_scores(rho) == [0.0]
    for first, last, _ in classes:
        for i, j in {first, last}:
            assert pair_entanglement(rho.reduce((modes[i], modes[j]))) == 0.0


def test_pair_scan_hands_a_failing_pair_to_the_public_check():
    # Each diagonal entry passes the floor, but two of them land in one slot of (F1, F2)
    # and sum below it, which the reduced density refuses.  With no entry on one or two
    # modes the pair step certifies the density and never reduces it; with one, it
    # scores each pair in public and raises what the reduction onto (F1, F2) raises.
    layout = ModeLayout((flat_mode(1), flat_mode(2), flat_mode(3)))
    entries = {(0, 0): 0.5, (7, 7): 0.5 + 1.8e-14, (4, 4): -0.9e-14, (5, 5): -0.9e-14}
    message = f"negative diagonal entry {-1.8e-14!r} at (2, 2)"
    for extra in ({}, {(0, 4): 1e-9}):
        rho = SparseDensity(layout, {**entries, **extra})
        with pytest.raises(InvalidDensity, match=f"^{re.escape(message)}$"):
            extract_xstate(rho.reduce(("F1", "F2")))
        if not extra:
            assert verify._pair_scores(rho) == [0.0]
            continue
        with pytest.raises(InvalidDensity, match=f"^{re.escape(message)}$"):
            verify._pair_scores(rho)


@st.composite
def _pairs(draw):
    """Bogoliubov pairs over the admitted range: from black holes up to ``D = M``, with a
    zero or subnormal ``beta``, or hand-built with ``alpha**2 + beta**2`` off 1 by up to 1e-14."""
    kind = draw(st.sampled_from(("black-hole", "extreme", "small-beta", "off-norm")))
    if kind == "black-hole":
        mass = draw(st.floats(1e-3, 1e3))
        dilaton = draw(st.floats(0.0, mass))
        return bogoliubov(BlackHoleParams(mass, dilaton, draw(st.floats(1e-3, 1e3))))
    if kind == "extreme":
        mass = draw(st.floats(1e-3, 1e3))
        return bogoliubov(BlackHoleParams(mass, mass, 1.0))
    if kind == "small-beta":
        return BogoliubovPair(1.0, draw(st.sampled_from((0.0, 5e-324, 2.2e-308, 1e-200))))
    beta = draw(st.floats(0.0, math.sqrt(0.5)))
    offset = draw(st.floats(-1e-14, 1e-14))
    try:
        return BogoliubovPair(min(1.0, math.sqrt(1.0 - beta * beta + offset)), beta)
    except InvalidParams:
        assume(False)


@settings(deadline=None)
@given(data=st.data(), n_horizon=st.integers(1, 11), pair=_pairs(), theta=st.floats(0.0, math.pi / 2))
def test_block_matrix_passes_the_public_check(data, n_horizon, pair, theta):
    # build_block_matrix skips the public check: its blocks are valid by construction.
    n_parties = data.draw(st.integers(n_horizon + 1, SCALE_BUDGET >> n_horizon))
    p = data.draw(st.integers(0, n_horizon))
    x = build_block_matrix(ScenarioSpec(n_parties, n_horizon, p, n_horizon - p, theta), pair)
    assert XState(x.half_dimension, x.blocks) == x


def test_pair_scan_passes_the_public_check_on_the_oracle_grid():
    # Every pair of every oracle-grid state scores in public what the pair step gives:
    # the certified zero from three parties on, and at N = 2 the one pair's own score.
    for spec, params in default_oracle_grid():
        rho = scenario_density(spec, bogoliubov(params))
        expected, failure = public_pair_scores(rho)
        assert failure is None and len(expected) == math.comb(spec.n_parties, 2)
        if spec.n_parties >= 3:
            assert verify._pair_scores(rho) == [0.0] and set(expected) == {0.0}
        else:
            assert verify._pair_scores(rho) == expected


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
