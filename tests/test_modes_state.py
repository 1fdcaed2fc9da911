import dataclasses
import itertools
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilaton_gme import (
    BlackHoleParams,
    DilatonGmeError,
    InvalidDensity,
    InvalidParams,
    InvalidPartition,
    InvalidSpec,
    ModeLayout,
    NotXState,
    ScaleCap,
    ScenarioSpec,
    SparseDensity,
    SparseState,
    UnknownMode,
    XState,
    bogoliubov,
    build_initial_state,
    expand_kruskal,
    extract_xstate,
    flat_mode,
    in_mode,
    kruskal_mode,
    out_mode,
    partial_trace,
    scenario_density,
)
from dilaton_gme.modes_state import SCALE_BUDGET, _plan
from dilaton_gme.verify import default_oracle_grid
from dilaton_gme.xstate import OFF_X_TOL
from conftest import (
    dense_density,
    dense_state,
    density_trace,
    density_value,
    mode_bit,
    pair_sums,
    pair_xstates_by_pair,
    read_blocks,
    state_amplitude,
    state_norm,
    traced_modes,
)


def test_mode_labels():
    # A mode is its label.
    assert flat_mode(1) == "F1"
    assert kruskal_mode(3) == "K3"
    assert out_mode(2) == "O2"
    assert in_mode(7) == "I7"
    assert type(out_mode(2)) is str


def test_mode_validation():
    for factory in (flat_mode, kruskal_mode, out_mode, in_mode):
        for index in (True, 0, -2, 1.0):
            with pytest.raises(InvalidSpec, match=f"^mode index must be a positive integer, got {index}$"):
                factory(index)


def test_layout_position_and_bit():
    layout = ModeLayout((flat_mode(1), out_mode(1), in_mode(1)))
    assert len(layout) == 3
    assert layout.position(flat_mode(1)) == 0
    assert layout.position(in_mode(1)) == 2
    assert layout.labels() == "F1,O1,I1"
    # label 0b110 = F1 and O1 occupied, I1 empty
    assert mode_bit(layout, 6, flat_mode(1)) == 1
    assert mode_bit(layout, 6, out_mode(1)) == 1
    assert mode_bit(layout, 6, in_mode(1)) == 0
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
    with pytest.raises(InvalidSpec, match="^layout contains a duplicate mode$"):
        ModeLayout((flat_mode(1), flat_mode(2), out_mode(1), flat_mode(2)))


@pytest.mark.parametrize("modes", [(1, 2), (flat_mode(1), None), (flat_mode(1), ("F", 2))])
def test_layout_refuses_a_mode_that_is_not_a_label(modes):
    with pytest.raises(InvalidSpec, match=r"^a mode is its label string, got ") as excinfo:
        ModeLayout(modes)
    assert isinstance(excinfo.value, DilatonGmeError)


def test_scenario_spec_layouts():
    spec = ScenarioSpec(5, 3, 2, 1, 0.3)
    assert spec.n_flat == 2
    assert spec.kruskal_layout().labels() == "F1,F2,K1,K2,K3"
    assert spec.expanded_layout().labels() == "F1,F2,O1,O2,O3,I1,I2,I3"
    assert spec.kept_modes() == ("F1", "F2", "O1", "O2", "I3")
    assert traced_modes(spec) == ("I1", "I2", "O3")
    # The plan: F1..O2 and I3 kept in two runs, O3, I1 and I2 traced.
    assert spec._registers[2][1:] == (0b00_001_110, ((4, 4, 0b1111), (0, 1, 0b1)))


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
    assert moved.kept_modes() == ("F1", "F2", "O1", "I2", "I3")
    assert spec.kept_modes() == ("F1", "F2", "O1", "O2", "I3")


def _every_shape(max_parties):
    for n_parties in range(2, max_parties + 1):
        for n_horizon in range(1, n_parties):
            for n_out in range(n_horizon + 1):
                yield n_parties, n_horizon, n_out


def test_spec_plan_equals_the_plan_from_positions():
    large = [(1000, 4, 0), (1000, 4, 2), (1000, 4, 4), (13312, 1, 0), (13312, 1, 1)]
    for n_parties, n_horizon, n_out in [*_every_shape(8), *large]:
        spec = ScenarioSpec(n_parties, n_horizon, n_out, n_horizon - n_out, 0.3)
        layout, traced_mask, runs = spec._registers[2]
        assert (layout, traced_mask, runs) == _plan(spec.expanded_layout(), spec.kept_modes())
        assert layout.modes is spec.kept_modes()
        # Flats plus kept outs, then the kept ins: at most two runs.
        assert len(runs) == 1 + (n_out < n_horizon)
        expanded = spec.expanded_layout()
        traced = sum(1 << (len(expanded) - 1 - expanded.position(m)) for m in traced_modes(spec))
        assert traced_mask == traced


def test_plan_groups_adjacent_kept_bits_into_runs():
    layout = ModeLayout(tuple(flat_mode(i) for i in range(1, 7)))
    keep = [flat_mode(2), flat_mode(3), flat_mode(5), flat_mode(1)]
    kept_layout, traced_mask, runs = _plan(layout, keep)
    assert kept_layout.labels() == "F2,F3,F5,F1"
    assert traced_mask == 0b000101  # F4 and F6
    assert runs == ((3, 2, 0b11), (1, 1, 0b1), (5, 1, 0b1))


def test_scenario_density_equals_the_public_partial_trace():
    pair = bogoliubov(BlackHoleParams(1.0, 0.6, 1.0))
    for n_parties, n_horizon, n_out in [*_every_shape(7), (1000, 4, 1), (13312, 1, 0)]:
        spec = ScenarioSpec(n_parties, n_horizon, n_out, n_horizon - n_out, 0.7)
        rho = scenario_density(spec, pair)
        expanded = expand_kruskal(build_initial_state(spec), pair, spec)
        reference = partial_trace(expanded, spec.kept_modes())
        assert rho.layout is spec._registers[2][0] and rho.layout == reference.layout
        assert list(rho.entries.items()) == list(reference.entries.items())


def test_scenario_point_hashes_no_mode(monkeypatch):
    # Once the registers are built, a point does no per-mode lookups.
    spec = ScenarioSpec(40, 3, 1, 2, 0.5)
    pair = bogoliubov(BlackHoleParams(1.0, 0.4, 1.0))
    spec.kept_modes()
    calls = 0
    position = ModeLayout.position

    def counted_position(self, mode):
        nonlocal calls
        calls += 1
        return position(self, mode)

    monkeypatch.setattr(ModeLayout, "position", counted_position)
    rho = scenario_density(spec, pair)
    assert calls == 0
    # The counter does count: the public partial trace looks every kept mode up.
    partial_trace(expand_kruskal(build_initial_state(spec), pair, spec), spec.kept_modes())
    assert calls == 40
    assert len(rho.layout) == 40


def test_sparse_state_basics():
    layout = ModeLayout((flat_mode(1), flat_mode(2)))
    state = SparseState(layout, {0: 0.6, 3: 0.8, 1: 1e-16})
    assert state.amplitudes == {0: 0.6, 3: 0.8}  # tiny term pruned
    assert state_amplitude(state, 1) == 0.0
    assert state_norm(state) == pytest.approx(1.0)
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
    assert state_amplitude(expanded, 0b000) == pytest.approx(0.5, abs=1e-15)
    assert state_amplitude(expanded, 0b011) == pytest.approx(0.5, abs=1e-15)
    assert state_amplitude(expanded, 0b110) == pytest.approx(2.0**-0.5, abs=1e-15)
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
    assert abs(state_norm(expanded) - 1.0) < 1e-14


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
    keep = list(kept_labels)
    rho = partial_trace(state, keep)
    expected = _dense_reduction(vec, 4, [state.layout.position(m) for m in keep])
    np.testing.assert_allclose(dense_density(rho), expected, atol=1e-13)
    assert density_trace(rho) == pytest.approx(1.0, abs=1e-13)


def test_partial_trace_partition_errors():
    state, _ = _random_state(np.random.default_rng(5), 3)
    with pytest.raises(InvalidPartition):
        partial_trace(state, [])
    with pytest.raises(InvalidPartition):
        partial_trace(state, [flat_mode(1), flat_mode(1)])
    with pytest.raises(InvalidPartition):
        partial_trace(state, [out_mode(9)])
    # A kept mode that is not a label is not in the layout, not a duplicate.
    with pytest.raises(InvalidPartition, match=r"^mode 1 is not part of layout F1,F2,F3$"):
        partial_trace(state, [1])


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
    """Hold ``_pair_xstates``, pair by pair, against ``extract_xstate(rho.reduce(pair))``.

    The same pairs and blocks in the same order, floats equal to the last
    bit; or, where a reduction fails the X-state reading, the same error at
    the first such pair, with the same ``NotXState`` position.
    """
    expected, failure = {}, None
    for keep in itertools.combinations(rho.layout.modes, 2):
        try:
            expected[keep] = extract_xstate(rho.reduce(keep))
        except DilatonGmeError as exc:
            failure = exc
            break
    if failure is None:
        got = pair_xstates_by_pair(rho)
        assert list(got) == list(expected)
        for keep, x in got.items():
            assert x.half_dimension == 2
            assert list(x.blocks.items()) == list(expected[keep].blocks.items())
    else:
        with pytest.raises(type(failure)) as excinfo:
            pair_xstates_by_pair(rho)
        assert str(excinfo.value) == str(failure)
        if isinstance(failure, NotXState):
            assert (excinfo.value.row, excinfo.value.col) == (failure.row, failure.col)


def _assert_old_pair_path_matches(rho):
    """The earlier two-pass pair reading: ``reduce``'s entries, and the production X-states."""
    sums = pair_sums(rho)
    assert list(sums) == list(itertools.combinations(rho.layout.modes, 2))
    for keep, pair in sums.items():
        assert list(pair.items()) == list(rho.reduce(keep).entries.items())
    try:
        old = {keep: read_blocks(pair, 2) for keep, pair in sums.items()}
    except NotXState as exc:
        with pytest.raises(NotXState) as excinfo:
            pair_xstates_by_pair(rho)
        assert (excinfo.value.row, excinfo.value.col) == (exc.row, exc.col)
    else:
        got = pair_xstates_by_pair(rho)
        assert [list(x.blocks.items()) for x in got.values()] == [
            list(x.blocks.items()) for x in old.values()
        ]


def test_pair_reductions_match_reduce_on_the_oracle_grid():
    for spec, params in default_oracle_grid():
        rho = scenario_density(spec, bogoliubov(params))
        _assert_pairs_match_reduce(rho)
        _assert_old_pair_path_matches(rho)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_modes", [1, 2, 3, 5])
def test_pair_reductions_match_reduce_on_dense_states(seed, n_modes):
    # Every entry is off-diagonal somewhere, so entries that differ on one, two
    # and three or more modes all occur.
    state, _ = _random_state(np.random.default_rng(seed), n_modes)
    rho = partial_trace(state, list(state.layout))
    assert len(rho.entries) == (1 << n_modes) * ((1 << n_modes) + 1) // 2
    # A register in another order than the state's.
    for density in (rho, partial_trace(state, list(reversed(state.layout.modes)))):
        _assert_pairs_match_reduce(density)
        _assert_old_pair_path_matches(density)


def test_pair_blocks_follow_the_first_entry_that_survives_the_reduction():
    # On F1, F2 the first two entries add to rho_11 and cancel, so reduce drops
    # that entry and block 0 leads; on F2, F3 the first entry adds to rho_22
    # and block 1 leads.
    layout = ModeLayout((flat_mode(1), flat_mode(2), flat_mode(3)))
    rho = SparseDensity(layout, {(2, 2): 1e-14, (3, 3): -1e-14, (0, 0): 0.5, (4, 4): 0.5})
    _assert_pairs_match_reduce(rho)
    assert [list(x.blocks) for x in pair_xstates_by_pair(rho).values()] == [[0, 1], [0, 1], [1, 0]]


@pytest.mark.parametrize(
    "entries",
    [
        # Differs on F3 alone: off the X of (F1, F3) and (F2, F3), outside (F1, F2).
        {(0, 0): 0.5, (7, 7): 0.5, (0, 1): 2e-12},
        # Differs on F2 and F3: the coherence of (F2, F3) only.
        {(0, 0): 0.5, (7, 7): 0.5, (0, 3): 0.1},
    ],
    ids=["off-x", "coherence"],
)
def test_pair_classes_split_on_the_column_of_a_near_entry(entries):
    # Over the diagonal rows 000 and 111 the three modes have one column; only
    # the near entry's column label tells F3 (and, for the coherence, F2) apart.
    layout = ModeLayout((flat_mode(1), flat_mode(2), flat_mode(3)))
    _assert_pairs_match_reduce(SparseDensity(layout, entries))


@st.composite
def _mixed_densities(draw):
    """Mixtures of two-label pure states on 3 to 5 modes, with entries at +-OFF_X_TOL.

    Each component ``cos(phi)|row> + sin(phi)|row ^ flip>`` adds two
    populations and one coherence that differs on the modes of ``flip``:
    one, two, or three and more.  Entries of magnitude exactly
    ``OFF_X_TOL`` sit at further such positions, and the entries come in
    any order, so a coherence may precede every population.
    """
    n_modes = draw(st.integers(3, 5))
    labels = st.integers(0, (1 << n_modes) - 1)
    flips = st.integers(1, (1 << n_modes) - 1)
    components = draw(
        st.lists(st.tuples(labels, flips, st.floats(0.1, 1.0), st.floats(-1.6, 1.6)), min_size=1, max_size=6)
    )
    total = math.fsum(weight for _, _, weight, _ in components)
    parts: dict[tuple[int, int], list[float]] = {}
    for row, flip, weight, phi in components:
        col, w, cos, sin = row ^ flip, weight / total, math.cos(phi), math.sin(phi)
        parts.setdefault((row, row), []).append(w * cos * cos)
        parts.setdefault((col, col), []).append(w * sin * sin)
        parts.setdefault((min(row, col), max(row, col)), []).append(w * cos * sin)
    entries = {key: math.fsum(values) for key, values in parts.items()}
    for row, flip, sign in draw(st.lists(st.tuples(labels, flips, st.sampled_from((1, -1))), max_size=3)):
        col = row ^ flip
        entries.setdefault((min(row, col), max(row, col)), sign * OFF_X_TOL)
    order = draw(st.permutations(list(entries)))
    layout = ModeLayout(tuple(flat_mode(i) for i in range(1, n_modes + 1)))
    return SparseDensity(layout, {key: entries[key] for key in order})


@settings(deadline=None)
@given(rho=_mixed_densities())
def test_pair_reductions_match_reduce_on_mixed_densities(rho):
    _assert_pairs_match_reduce(rho)


def test_sparse_density_validation():
    layout = ModeLayout((flat_mode(1),))
    # mirrored duplicates that agree are merged
    rho = SparseDensity(layout, {(0, 1): 0.3, (1, 0): 0.3, (0, 0): 0.5, (1, 1): 0.5})
    assert density_value(rho, 1, 0) == 0.3
    assert density_value(rho, 0, 1) == 0.3
    with pytest.raises(InvalidDensity):
        SparseDensity(layout, {(0, 1): 0.3, (1, 0): 0.1, (0, 0): 0.5, (1, 1): 0.5})
    with pytest.raises(InvalidDensity):
        SparseDensity(layout, {(0, 0): 0.4, (1, 1): 0.4})  # trace 0.8
    with pytest.raises(InvalidDensity):
        SparseDensity(layout, {(0, 0): 1.5, (1, 1): -0.5})  # negative diagonal
    with pytest.raises(InvalidDensity):
        SparseDensity(layout, {(0, 2): 1.0})  # out of range


_ONE_MODE = ModeLayout((flat_mode(1),))


@pytest.mark.parametrize(
    "build,error,message",
    [
        (
            lambda: SparseDensity(_ONE_MODE, {(0.5, 0.5): 1.0}),
            InvalidDensity,
            "entry (0.5, 0.5) outside [0, 2)**2 for layout F1",
        ),
        (
            lambda: SparseDensity(_ONE_MODE, {(0, 0): 0.5, (True, True): 0.5}),
            InvalidDensity,
            "entry (True, True) outside [0, 2)**2 for layout F1",
        ),
        (
            lambda: SparseDensity(_ONE_MODE, {(0, 0): 0.5, (1, 1): 0.5, (0, 1.0): 0.1}),
            InvalidDensity,
            "entry (0, 1.0) outside [0, 2)**2 for layout F1",
        ),
        (
            lambda: SparseState(_ONE_MODE, {True: 1.0}),
            InvalidParams,
            "basis label True outside [0, 2) for layout F1",
        ),
        (
            lambda: SparseState(_ONE_MODE, {0: 0.6, 1.0: 0.8}),
            InvalidParams,
            "basis label 1.0 outside [0, 2) for layout F1",
        ),
        (lambda: XState(2, {True: (1.0, 0.0, 0.0)}), InvalidDensity, "block index True outside [0, 2)"),
        (lambda: XState(2, {0.0: (1.0, 0.0, 0.0)}), InvalidDensity, "block index 0.0 outside [0, 2)"),
    ],
    ids=["density-float", "density-bool", "density-float-col", "state-bool", "state-float",
         "xstate-bool", "xstate-float"],
)
def test_an_index_is_an_int_but_not_a_bool(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


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
    assert density_value(rho, 0, 0) == pytest.approx(0.25, abs=1e-15)
    assert density_value(rho, 1, 1) == pytest.approx(0.25, abs=1e-15)
    assert density_value(rho, 3, 3) == pytest.approx(0.5, abs=1e-15)
    assert density_value(rho, 0, 3) == pytest.approx(0.125**0.5, abs=1e-15)
    assert density_value(rho, 2, 2) == 0.0
    assert density_value(rho, 1, 2) == 0.0


def test_scenario_density_is_positive_semidefinite():
    spec = ScenarioSpec(4, 2, 1, 1, 0.9)
    pair = bogoliubov(BlackHoleParams(1.0, 0.7, 1.0))
    rho = scenario_density(spec, pair)
    eigenvalues = np.linalg.eigvalsh(dense_density(rho))
    assert eigenvalues.min() > -1e-14
    assert density_trace(rho) == pytest.approx(1.0, abs=1e-13)


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

