import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest

from dilaton_gme import (
    BlackHoleParams,
    InvalidDensity,
    InvalidParams,
    InvalidPartition,
    InvalidSpec,
    Mode,
    ModeLayout,
    ScaleCap,
    ScenarioSpec,
    SparseDensity,
    SparseState,
    UnknownMode,
    bogoliubov,
    build_initial_state,
    expand_kruskal,
    flat_mode,
    in_mode,
    kruskal_mode,
    out_mode,
    partial_trace,
    scenario_density,
)
from dilaton_gme.modes_state import SCALE_BUDGET
from dilaton_gme.verify import default_oracle_grid
from conftest import dense_density, dense_state


def test_mode_labels():
    assert flat_mode(1).label == "F1"
    assert kruskal_mode(3).label == "K3"
    assert out_mode(2).label == "O2"
    assert in_mode(7).label == "I7"
    assert str(out_mode(2)) == "O2"


def test_mode_validation():
    with pytest.raises(InvalidSpec):
        Mode("bogus", 1)
    with pytest.raises(InvalidSpec):
        Mode("flat", 0)
    with pytest.raises(InvalidSpec):
        Mode("out", -2)


def test_layout_position_and_bit():
    layout = ModeLayout((flat_mode(1), out_mode(1), in_mode(1)))
    assert len(layout) == 3
    assert layout.position(flat_mode(1)) == 0
    assert layout.position(in_mode(1)) == 2
    assert layout.labels() == "F1,O1,I1"
    # label 0b110 = F1 and O1 occupied, I1 empty
    assert layout.bit(6, flat_mode(1)) == 1
    assert layout.bit(6, out_mode(1)) == 1
    assert layout.bit(6, in_mode(1)) == 0
    with pytest.raises(UnknownMode, match=r"^mode K1 is not part of layout F1,O1,I1$"):
        layout.position(kruskal_mode(1))
    assert kruskal_mode(1) not in layout and in_mode(1) in layout
    # The position lookup is not part of the layout's value.
    same = ModeLayout([flat_mode(1), out_mode(1), in_mode(1)])
    assert same == layout and hash(same) == hash(layout)
    assert repr(layout) == f"ModeLayout(modes={layout.modes!r})"


def test_layout_validation():
    with pytest.raises(InvalidSpec):
        ModeLayout(())
    with pytest.raises(InvalidSpec):
        ModeLayout((flat_mode(1), flat_mode(1)))


def test_scenario_spec_layouts():
    spec = ScenarioSpec(5, 3, 2, 1, 0.3)
    assert spec.n_flat == 2
    assert spec.kruskal_layout().labels() == "F1,F2,K1,K2,K3"
    assert spec.expanded_layout().labels() == "F1,F2,O1,O2,O3,I1,I2,I3"
    assert tuple(m.label for m in spec.kept_modes()) == ("F1", "F2", "O1", "O2", "I3")
    assert tuple(m.label for m in spec.traced_modes()) == ("I1", "I2", "O3")


@pytest.mark.parametrize(
    "args",
    [
        (1, 1, 1, 0, 0.3),       # too few parties
        (3, 0, 0, 0, 0.3),       # no horizon party
        (3, 3, 3, 0, 0.3),       # everyone at the horizon
        (4, 2, 2, 1, 0.3),       # p + q != n
        (4, 2, -1, 3, 0.3),      # negative count
        (4, 2, 1, 1, -0.1),      # theta below range
        (4, 2, 1, 1, 2.0),       # theta above pi/2
        (4, 2, 1, 1, math.nan),
        (10**6, -1, 0, 0, 0.3),  # a negative n_horizon is reported, not shifted by
        (10**6, 10**6, 10**6, 0, 0.3),  # out of range before it is over the budget
        (3, 10**5000, 1, 0, 0.3),  # past the int-to-str limit, still reported
        (4, 2, 10**5000, 0, 0.3),
    ],
)
def test_scenario_spec_validation(args):
    with pytest.raises(InvalidSpec):
        ScenarioSpec(*args)


def test_scenario_spec_message_shows_a_huge_count_by_its_bit_length():
    with pytest.raises(InvalidSpec, match=r"^n_horizon must lie in \[1, n_parties\), got "
                       r"<16610-bit integer> for 3 parties$"):
        ScenarioSpec(3, 10**5000, 1, 0, 0.3)
    with pytest.raises(InvalidSpec, match=r": <16610-bit integer> \+ 0 != 2$"):
        ScenarioSpec(4, 2, 10**5000, 0, 0.3)


def test_scenario_spec_builds_its_registers_once():
    spec = ScenarioSpec(5, 3, 2, 1, 0.3)
    before = (pickle.dumps(spec), hash(spec), repr(spec))
    assert spec.kruskal_layout() is spec.kruskal_layout()
    assert spec.expanded_layout() is spec.expanded_layout()
    assert spec.kept_modes() is spec.kept_modes()
    # The cache is not part of the spec's value.
    assert (pickle.dumps(spec), hash(spec), repr(spec)) == before
    twin = ScenarioSpec(5, 3, 2, 1, 0.3)
    assert spec == twin and twin == spec and hash(twin) == hash(spec)
    restored = pickle.loads(pickle.dumps(spec))
    assert restored == spec and restored.expanded_layout() == spec.expanded_layout()
    moved = dataclasses.replace(spec, n_out_kept=1, n_in_kept=2)
    assert moved.kruskal_layout() == spec.kruskal_layout()
    assert tuple(m.label for m in moved.kept_modes()) == ("F1", "F2", "O1", "I2", "I3")
    assert tuple(m.label for m in spec.kept_modes()) == ("F1", "F2", "O1", "O2", "I3")


def test_sparse_state_basics():
    layout = ModeLayout((flat_mode(1), flat_mode(2)))
    state = SparseState(layout, {0: 0.6, 3: 0.8, 1: 1e-16})
    assert state.amplitudes == {0: 0.6, 3: 0.8}  # tiny term pruned
    assert state.amplitude(1) == 0.0
    assert state.norm() == pytest.approx(1.0)
    np.testing.assert_allclose(dense_state(state), [0.6, 0.0, 0.0, 0.8])


def test_sparse_state_validation():
    layout = ModeLayout((flat_mode(1),))
    with pytest.raises(InvalidParams):
        SparseState(layout, {0: 0.5})  # norm far from one
    with pytest.raises(InvalidParams):
        SparseState(layout, {2: 1.0})  # label out of range


def test_build_initial_state():
    theta = math.pi / 6
    state = build_initial_state(ScenarioSpec(3, 1, 1, 0, theta))
    assert state.layout.labels() == "F1,F2,K1"
    assert state.amplitudes == {0: math.cos(theta), 7: math.sin(theta)}
    # theta = 0 leaves only the empty branch
    assert build_initial_state(ScenarioSpec(3, 1, 1, 0, 0.0)).amplitudes == {0: 1.0}


def test_expand_kruskal_two_party_hand_case():
    theta = math.pi / 4
    spec = ScenarioSpec(2, 1, 1, 0, theta)
    pair = bogoliubov(BlackHoleParams(1.0, 1.0, 1.0))  # alpha = beta = 1/sqrt(2)
    expanded = expand_kruskal(build_initial_state(spec), pair, spec)
    assert expanded.layout.labels() == "F1,O1,I1"
    # cos * alpha |000>, cos * beta |011>, sin |110>
    assert expanded.amplitude(0b000) == pytest.approx(0.5, abs=1e-15)
    assert expanded.amplitude(0b011) == pytest.approx(0.5, abs=1e-15)
    assert expanded.amplitude(0b110) == pytest.approx(2.0**-0.5, abs=1e-15)
    assert set(expanded.amplitudes) == {0b000, 0b011, 0b110}


def test_expand_kruskal_layout_mismatch():
    spec = ScenarioSpec(2, 1, 1, 0, 0.5)
    other = ScenarioSpec(3, 2, 1, 1, 0.5)
    pair = bogoliubov(BlackHoleParams(1.0, 0.5, 1.0))
    state = build_initial_state(other)
    with pytest.raises(InvalidSpec):
        expand_kruskal(state, pair, spec)
    # Both registers are built by now; the mismatch is still seen, and an equal
    # spec's state is accepted.
    with pytest.raises(InvalidSpec):
        expand_kruskal(state, pair, spec)
    twin = ScenarioSpec(3, 2, 1, 1, 0.5)
    assert expand_kruskal(state, pair, twin).layout == twin.expanded_layout()


@pytest.mark.parametrize("dilaton", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("theta", [0.0, 0.4, math.pi / 2])
def test_expand_preserves_norm(dilaton, theta):
    spec = ScenarioSpec(4, 3, 1, 2, theta)
    pair = bogoliubov(BlackHoleParams(1.0, dilaton, 1.0))
    expanded = expand_kruskal(build_initial_state(spec), pair, spec)
    assert abs(expanded.norm() - 1.0) < 1e-14


def _random_state(rng, n_modes):
    vec = rng.normal(size=1 << n_modes)
    vec /= np.linalg.norm(vec)
    layout = ModeLayout(tuple(flat_mode(i + 1) for i in range(n_modes)))
    return SparseState(layout, {i: float(v) for i, v in enumerate(vec)}), vec


def _dense_reduction(vec, n_modes, kept_positions):
    """Partial trace oracle: move kept axes forward, contract the rest."""
    tensor = vec.reshape([2] * n_modes)
    moved = np.moveaxis(tensor, kept_positions, range(len(kept_positions)))
    matrix = moved.reshape(1 << len(kept_positions), -1)
    return matrix @ matrix.T


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "kept_labels",
    [
        ("F1",),
        ("F2", "F4"),
        ("F1", "F3", "F4"),
        ("F4", "F1"),
        ("F1", "F2", "F3", "F4"),
        ("F4", "F2"),
        ("F3", "F1", "F4"),
    ],
)
def test_partial_trace_matches_dense_oracle(seed, kept_labels):
    rng = np.random.default_rng(seed)
    state, vec = _random_state(rng, 4)
    by_label = {m.label: m for m in state.layout}
    keep = [by_label[l] for l in kept_labels]
    rho = partial_trace(state, keep)
    expected = _dense_reduction(vec, 4, [state.layout.position(m) for m in keep])
    np.testing.assert_allclose(dense_density(rho), expected, atol=1e-13)
    assert rho.trace() == pytest.approx(1.0, abs=1e-13)


def test_partial_trace_partition_errors():
    state, _ = _random_state(np.random.default_rng(5), 3)
    with pytest.raises(InvalidPartition):
        partial_trace(state, [])
    with pytest.raises(InvalidPartition):
        partial_trace(state, [flat_mode(1), flat_mode(1)])
    with pytest.raises(InvalidPartition):
        partial_trace(state, [out_mode(9)])


def test_density_reduce_composes_with_partial_trace():
    state, vec = _random_state(np.random.default_rng(11), 4)
    modes = list(state.layout)
    full = partial_trace(state, modes)
    for order in [(1, 3), (3, 1), (2, 0, 3)]:  # kept in and against layout order
        sub = [modes[k] for k in order]
        reduced = dense_density(full.reduce(sub))
        np.testing.assert_allclose(reduced, dense_density(partial_trace(state, sub)), atol=1e-13)
        np.testing.assert_allclose(reduced, _dense_reduction(vec, 4, list(order)), atol=1e-13)


def _assert_pairs_match_reduce(rho):
    pairs = rho.pair_reductions()
    assert list(pairs) == list(itertools.combinations(rho.layout.modes, 2))
    for keep, got in pairs.items():
        expected = rho.reduce(keep)
        assert got.layout == expected.layout
        # Same keys in the same order, and floats equal to the last bit.
        assert list(got.entries.items()) == list(expected.entries.items())


def test_pair_reductions_match_reduce_on_the_oracle_grid():
    for spec, params in default_oracle_grid():
        _assert_pairs_match_reduce(scenario_density(spec, bogoliubov(params)))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_modes", [1, 2, 3, 5])
def test_pair_reductions_match_reduce_on_dense_states(seed, n_modes):
    # Every entry is off-diagonal somewhere, so entries that differ on one, two
    # and three or more modes all occur.
    state, _ = _random_state(np.random.default_rng(seed), n_modes)
    rho = partial_trace(state, list(state.layout))
    assert len(rho.entries) == (1 << n_modes) * ((1 << n_modes) + 1) // 2
    _assert_pairs_match_reduce(rho)
    # A register in another order than the state's.
    _assert_pairs_match_reduce(partial_trace(state, list(reversed(state.layout.modes))))


def test_sparse_density_validation():
    layout = ModeLayout((flat_mode(1),))
    # mirrored duplicates that agree are merged
    rho = SparseDensity(layout, {(0, 1): 0.3, (1, 0): 0.3, (0, 0): 0.5, (1, 1): 0.5})
    assert rho.value(1, 0) == 0.3
    assert rho.value(0, 1) == 0.3
    with pytest.raises(InvalidDensity):
        SparseDensity(layout, {(0, 1): 0.3, (1, 0): 0.1, (0, 0): 0.5, (1, 1): 0.5})
    with pytest.raises(InvalidDensity):
        SparseDensity(layout, {(0, 0): 0.4, (1, 1): 0.4})  # trace 0.8
    with pytest.raises(InvalidDensity):
        SparseDensity(layout, {(0, 0): 1.5, (1, 1): -0.5})  # negative diagonal
    with pytest.raises(InvalidDensity):
        SparseDensity(layout, {(0, 2): 1.0})  # out of range


def test_density_purity():
    layout = ModeLayout((flat_mode(1),))
    pure = SparseDensity(layout, {(0, 0): 0.5, (1, 1): 0.5, (0, 1): 0.5})
    assert pure.purity() == pytest.approx(1.0, abs=1e-15)
    mixed = SparseDensity(layout, {(0, 0): 0.5, (1, 1): 0.5})
    assert mixed.purity() == pytest.approx(0.5, abs=1e-15)


def test_scenario_density_hand_case():
    # N=2, n=1, keep the outside mode, extreme black hole, theta = pi/4
    spec = ScenarioSpec(2, 1, 1, 0, math.pi / 4)
    pair = bogoliubov(BlackHoleParams(1.0, 1.0, 1.0))
    rho = scenario_density(spec, pair)
    assert rho.layout.labels() == "F1,O1"
    assert rho.value(0, 0) == pytest.approx(0.25, abs=1e-15)
    assert rho.value(1, 1) == pytest.approx(0.25, abs=1e-15)
    assert rho.value(3, 3) == pytest.approx(0.5, abs=1e-15)
    assert rho.value(0, 3) == pytest.approx(0.125**0.5, abs=1e-15)
    assert rho.value(2, 2) == 0.0
    assert rho.value(1, 2) == 0.0


def test_scenario_density_is_positive_semidefinite():
    spec = ScenarioSpec(4, 2, 1, 1, 0.9)
    pair = bogoliubov(BlackHoleParams(1.0, 0.7, 1.0))
    rho = scenario_density(spec, pair)
    eigenvalues = np.linalg.eigvalsh(dense_density(rho))
    assert eigenvalues.min() > -1e-14
    assert rho.trace() == pytest.approx(1.0, abs=1e-13)


def test_scale_cap():
    # The budget is on n_parties * 2**n_horizon and is checked at construction.
    for args in [
        (13313, 1, 1, 0),
        (14, 11, 11, 0),
        (10**400, 10**399, 10**399, 0),
        (10**5000, 1, 1, 0),  # past the int-to-str limit
    ]:
        with pytest.raises(ScaleCap, match=r"exceeds the exact pipeline's budget of 26624$"):
            ScenarioSpec(*args, 0.3)
    with pytest.raises(ScaleCap, match=r"^n_parties \* 2\*\*n_horizon = <16610-bit integer> \* 2\*\*1 "):
        ScenarioSpec(10**5000, 1, 1, 0, 0.3)
    # 25 modes after expansion: refused by the old N + n <= 24 cap, inside the budget.
    pair = bogoliubov(BlackHoleParams(1.0, 0.5, 1.0))
    assert len(scenario_density(ScenarioSpec(21, 4, 2, 2, 0.3), pair).layout) == 21


def test_scale_budget_admits_every_scenario_the_mode_cap_did():
    # The budget is the largest scenario N + n <= 24 admits: (13, 11).
    assert SCALE_BUDGET == 13 * 2**11
    admitted = [
        (n_parties, n_horizon)
        for n_parties in range(2, 24)
        for n_horizon in range(1, min(n_parties, 25 - n_parties))
    ]
    assert len(admitted) == 132
    for n_parties, n_horizon in admitted:
        ScenarioSpec(n_parties, n_horizon, n_horizon, 0, 0.3)
    # From n = 12 on, N > n leaves no party count inside the budget.
    for n_horizon in range(1, 12):
        edge = SCALE_BUDGET >> n_horizon
        ScenarioSpec(edge, n_horizon, 0, n_horizon, 0.3)
        with pytest.raises(ScaleCap):
            ScenarioSpec(edge + 1, n_horizon, 0, n_horizon, 0.3)

