import copy
import itertools
from fractions import Fraction
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
    XState,
    bogoliubov,
    build_block_matrix,
    expand_kruskal,
    extract_xstate,
    flat_mode,
    gme_xstate,
    pair_entanglement,
    partial_trace,
    scenario_density,
)
from dilaton_gme import modes_state, verify
from dilaton_gme.modes_state import POPULATION_FLOOR, SCALE_BUDGET, _plan
from dilaton_gme.verify import default_oracle_grid, oracle_compare
from dilaton_gme.xstate import OFF_X_TOL
from conftest import (
    dense_density,
    dense_state,
    density_trace,
    density_value,
    mode_bit,
    near_entries,
    pair_sums,
    public_pair_scores,
    read_blocks,
    state_amplitude,
    state_norm,
    traced_modes,
)


def test_mode_labels():
    # A mode is its label.
    assert flat_mode(1) == "F1"
    assert flat_mode(12) == "F12"
    assert type(flat_mode(2)) is str


def test_mode_validation():
    for index in (True, 0, -2, 1.0):
        with pytest.raises(InvalidSpec, match=f"^mode index must be a positive integer, got {index}$"):
            flat_mode(index)
    with pytest.raises(InvalidSpec, match=r"^mode index must be a positive integer, "
                       r"got <negative 16610-bit integer>$"):
        flat_mode(-(10**5000))


def test_layout_position_and_bit():
    layout = ModeLayout((flat_mode(1), "O1", "I1"))
    assert len(layout) == 3
    assert list(layout) == [flat_mode(1), "O1", "I1"]
    assert layout.labels() == "F1,O1,I1"
    # label 0b110 = F1 and O1 occupied, I1 empty: the first mode is the MSB
    assert mode_bit(layout, 6, flat_mode(1)) == 1
    assert mode_bit(layout, 6, "O1") == 1
    assert mode_bit(layout, 6, "I1") == 0
    assert "O2" not in layout and "I1" in layout
    # A layout is its modes: any sequence of the same labels builds an equal one.
    same = ModeLayout([flat_mode(1), "O1", "I1"])
    assert same == layout and hash(same) == hash(layout)
    assert repr(layout) == f"ModeLayout(modes={layout.modes!r})"


def test_layout_validation():
    with pytest.raises(InvalidSpec):
        ModeLayout(())
    with pytest.raises(InvalidSpec):
        ModeLayout((flat_mode(1), flat_mode(1)))
    with pytest.raises(InvalidSpec, match="^layout contains a duplicate mode$"):
        ModeLayout((flat_mode(1), flat_mode(2), "O1", flat_mode(2)))


@pytest.mark.parametrize("modes", [(1, 2), (flat_mode(1), None), (flat_mode(1), ("F", 2))])
def test_layout_refuses_a_mode_that_is_not_a_label(modes):
    with pytest.raises(InvalidSpec, match=r"^a mode is its label string, got ") as excinfo:
        ModeLayout(modes)
    assert isinstance(excinfo.value, DilatonGmeError)


def test_scenario_spec_layouts():
    spec = ScenarioSpec(5, 3, 2, 1, 0.3)
    assert spec.n_flat == 2
    assert spec.expanded_layout().labels() == "F1,F2,O1,O2,O3,I1,I2,I3"
    assert spec.kept_modes() == ("F1", "F2", "O1", "O2", "I3")
    assert traced_modes(spec) == ("I1", "I2", "O3")
    # The plan: F1..O2 and I3 kept in two runs, O3, I1 and I2 traced.
    assert spec._registers[1][1:] == (0b00_001_110, ((4, 4, 0b1111), (0, 1, 0b1)))


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
    assert spec.expanded_layout() is spec.expanded_layout()
    assert spec.kept_modes() is spec.kept_modes()
    # The cache is not part of the spec's value.
    assert (pickle.dumps(spec), hash(spec), repr(spec)) == before
    twin = ScenarioSpec(5, 3, 2, 1, 0.3)
    assert spec == twin and twin == spec and hash(twin) == hash(spec)
    # Nor is the simulated point that the verify suites keep on the spec.
    assert oracle_compare([(spec, BlackHoleParams(1.0, 0.3, 1.0))]).passed
    assert "_oracle_memo" in vars(spec)
    assert (pickle.dumps(spec), hash(spec), repr(spec)) == before
    assert spec == twin and twin == spec and hash(twin) == hash(spec)
    for restored in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
        assert vars(restored) == {}  # rebuilt from the fields: no registers, no memo
        assert restored == spec and restored.expanded_layout() == spec.expanded_layout()
    moved = ScenarioSpec(5, 3, n_out_kept=1, n_in_kept=2, theta=0.3)
    assert moved.expanded_layout() == spec.expanded_layout()
    assert moved.kept_modes() == ("F1", "F2", "O1", "I2", "I3")
    assert spec.kept_modes() == ("F1", "F2", "O1", "O2", "I3")


def _every_shape(max_parties):
    for n_parties in range(2, max_parties + 1):
        for n_horizon in range(1, n_parties):
            for n_out in range(n_horizon + 1):
                yield n_parties, n_horizon, n_out


def test_spec_plan_equals_the_plan_from_positions():
    # The spec works its plan out from its counts; ``_plan`` looks each kept mode up.
    admitted = [shape for shape in _every_shape(20) if shape[0] <= SCALE_BUDGET >> shape[1]]
    large = [(n_parties, n_horizon, n_out)
             for n_parties, n_horizon in [(64, 8), (1000, 4), (13312, 1), (13, 11)]
             for n_out in sorted({0, n_horizon // 2, n_horizon})]
    for n_parties, n_horizon, n_out in [*admitted, *large]:
        spec = ScenarioSpec(n_parties, n_horizon, n_out, n_horizon - n_out, 0.3)
        layout, traced_mask, runs = spec._registers[1]
        assert (layout, traced_mask, runs) == _plan(spec.expanded_layout(), spec.kept_modes())
        assert layout.modes is spec.kept_modes()
        # Flats plus kept outs, then the kept ins: at most two runs.
        assert len(runs) == 1 + (n_out < n_horizon)
        expanded = spec.expanded_layout()
        traced = sum(1 << (len(expanded) - 1 - expanded.modes.index(m)) for m in traced_modes(spec))
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
        expanded = expand_kruskal(spec, pair)
        reference = partial_trace(expanded, spec.kept_modes())
        assert rho.layout is spec._registers[1][0] and rho.layout == reference.layout
        assert list(rho.entries.items()) == list(reference.entries.items())


def _count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` from here on; returns the running count."""
    calls = {"n": 0}
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_fresh_scenario_point_builds_two_layouts_and_one_state(monkeypatch):
    # The expanded register and the kept one; the GHZ state is expanded from the spec,
    # and the spec works its trace plan out from its counts, without ``_plan``.
    spec = ScenarioSpec(40, 3, 1, 2, 0.5)
    pair = bogoliubov(BlackHoleParams(1.0, 0.4, 1.0))
    layouts = _count_calls(monkeypatch, ModeLayout, "__post_init__")
    states = _count_calls(monkeypatch, SparseState, "__post_init__")
    plans = _count_calls(monkeypatch, modes_state, "_plan")
    rho = scenario_density(spec, pair)
    assert (layouts["n"], states["n"], plans["n"]) == (2, 1, 0)
    assert len(rho.layout) == 40


def test_scenario_point_hashes_no_mode(monkeypatch):
    # Once the registers are built, a point plans no trace and builds no layout.
    spec = ScenarioSpec(40, 3, 1, 2, 0.5)
    pair = bogoliubov(BlackHoleParams(1.0, 0.4, 1.0))
    spec.kept_modes()
    layouts = _count_calls(monkeypatch, ModeLayout, "__post_init__")
    plans = _count_calls(monkeypatch, modes_state, "_plan")
    rho = scenario_density(spec, pair)
    assert (layouts["n"], plans["n"]) == (0, 0)
    # The counters do count: the public partial trace plans, and builds the kept layout.
    partial_trace(expand_kruskal(spec, pair), spec.kept_modes())
    assert (layouts["n"], plans["n"]) == (1, 1)
    assert len(rho.layout) == 40


def test_sparse_state_basics():
    layout = ModeLayout((flat_mode(1), flat_mode(2)))
    state = SparseState(layout, {0: 0.6, 3: 0.8, 1: 0.0})
    assert state.amplitudes == {0: 0.6, 3: 0.8}  # an exact zero is not stored
    assert state_amplitude(state, 1) == 0.0
    assert state_norm(state) == pytest.approx(1.0)
    np.testing.assert_allclose(dense_state(state), [0.6, 0.0, 0.0, 0.8])


def test_sparse_state_validation():
    layout = ModeLayout((flat_mode(1),))
    with pytest.raises(InvalidParams):
        SparseState(layout, {0: 0.5})  # norm far from one
    with pytest.raises(InvalidParams):
        SparseState(layout, {2: 1.0})  # label out of range


def _empty_branch(cos, pair, n):
    """``cos(theta)|0...0>`` expanded: the labels whose out bits equal their in bits."""
    amps = {}
    for s in range(1 << n):
        amp = cos
        for i in range(n):  # the first horizon mode is the most significant bit
            amp *= pair.beta if (s >> (n - 1 - i)) & 1 else pair.alpha
        amps[(s << n) | s] = amp
    return amps


def test_expanded_state_keeps_one_ghz_branch_at_either_end():
    pair = bogoliubov(BlackHoleParams(1.0, 0.5, 1.0))
    for n_parties, n in [(3, 1), (5, 3)]:
        spec = ScenarioSpec(n_parties, n, n, 0, math.pi / 6)
        occupied = (((1 << spec.n_flat) - 1) << 2 * n) | (((1 << n) - 1) << n)
        state = expand_kruskal(spec, pair)
        assert state.layout == spec.expanded_layout()
        expected = {**_empty_branch(math.cos(spec.theta), pair, n), occupied: math.sin(spec.theta)}
        assert list(state.amplitudes.items()) == list(expected.items())
        # theta = 0 leaves only the empty branch (sin 0 is an exact zero); at theta = pi/2
        # the empty branch survives at cos(pi/2) ~ 6e-17 times its weights
        at_zero = expand_kruskal(ScenarioSpec(n_parties, n, n, 0, 0.0), pair)
        assert at_zero.amplitudes == _empty_branch(1.0, pair, n)
        at_right_angle = expand_kruskal(ScenarioSpec(n_parties, n, n, 0, math.pi / 2), pair)
        empty = _empty_branch(math.cos(math.pi / 2), pair, n)
        assert at_right_angle.amplitudes == {**empty, occupied: 1.0}
        assert all(0.0 < amp < 1e-16 for amp in empty.values())


def test_expand_kruskal_two_party_hand_case():
    theta = math.pi / 4
    spec = ScenarioSpec(2, 1, 1, 0, theta)
    pair = bogoliubov(BlackHoleParams(1.0, 1.0, 1.0))  # alpha = beta = 1/sqrt(2)
    expanded = expand_kruskal(spec, pair)
    assert expanded.layout.labels() == "F1,O1,I1"
    # cos * alpha |000>, cos * beta |011>, sin |110>
    assert state_amplitude(expanded, 0b000) == pytest.approx(0.5, abs=1e-15)
    assert state_amplitude(expanded, 0b011) == pytest.approx(0.5, abs=1e-15)
    assert state_amplitude(expanded, 0b110) == pytest.approx(2.0**-0.5, abs=1e-15)
    assert set(expanded.amplitudes) == {0b000, 0b011, 0b110}


@pytest.mark.parametrize("dilaton", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("theta", [0.0, 0.4, math.pi / 2])
def test_expand_preserves_norm(dilaton, theta):
    spec = ScenarioSpec(4, 3, 1, 2, theta)
    pair = bogoliubov(BlackHoleParams(1.0, dilaton, 1.0))
    expanded = expand_kruskal(spec, pair)
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
    expected = _dense_reduction(vec, 4, [state.layout.modes.index(m) for m in keep])
    np.testing.assert_allclose(dense_density(rho), expected, atol=1e-13)
    assert density_trace(rho) == pytest.approx(1.0, abs=1e-13)


def test_partial_trace_partition_errors():
    state, _ = _random_state(np.random.default_rng(5), 3)
    with pytest.raises(InvalidPartition):
        partial_trace(state, [])
    with pytest.raises(InvalidPartition):
        partial_trace(state, [flat_mode(1), flat_mode(1)])
    with pytest.raises(InvalidPartition):
        partial_trace(state, ["O9"])
    # A kept mode that is not a label is not in the layout, not a duplicate.
    with pytest.raises(InvalidPartition, match=r"^mode 1 is not part of layout F1,F2,F3$"):
        partial_trace(state, [1])


def _products_by_key(state, keep):
    """``{(row, col): [product, ...]}`` of the trace onto ``keep``, from ordered label pairs.

    Two labels meet when they agree on every traced mode; the pair lands
    at their kept bits, upper triangle only, so each product is listed once.
    """
    layout = state.layout

    def kept(label):
        return sum(mode_bit(layout, label, mode) << (len(keep) - 1 - k) for k, mode in enumerate(keep))

    def traced(label):
        return [mode_bit(layout, label, mode) for mode in layout if mode not in keep]

    products: dict[tuple[int, int], list[float]] = {}
    for l1, a1 in state.amplitudes.items():
        for l2, a2 in state.amplitudes.items():
            if traced(l1) == traced(l2) and kept(l1) <= kept(l2) and (kept(l1) < kept(l2) or l1 == l2):
                products.setdefault((kept(l1), kept(l2)), []).append(a1 * a2)
    return products


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n_modes", [2, 3, 4])
def test_a_repeated_trace_key_is_the_fsum_of_its_products(seed, n_modes):
    # Every label carries an amplitude, so each kept key is met once per traced group.
    state, _ = _random_state(np.random.default_rng(seed), n_modes)
    modes = state.layout.modes
    for keep in [*itertools.permutations(modes, 1), *itertools.permutations(modes, 2)]:
        products = _products_by_key(state, keep)
        assert max(map(len, products.values())) == 1 << (n_modes - len(keep))
        expected = {key: math.fsum(values) for key, values in products.items()}
        got = partial_trace(state, keep).entries
        assert got.keys() == {key for key, value in expected.items() if value}
        assert all(float.hex(value) == float.hex(expected[key]) for key, value in got.items())


def test_no_trace_key_repeats_in_a_scenario_state():
    # 2**n - 1 amplitudes trace alone and two share their traced bits: 2**n + 2
    # products, all kept, so every key is met once and no entry takes an fsum.
    # Those entries fill 2**n X-state blocks, and only the block of the two GHZ
    # branches holds a coherence.
    points = default_oracle_grid()
    for n_parties, n_horizon in [(64, 8), (1000, 4), (13312, 1), (13, 11)]:
        for n_out in sorted({0, n_horizon // 2, n_horizon}):
            spec = ScenarioSpec(n_parties, n_horizon, n_out, n_horizon - n_out, 0.7)
            points += [(spec, BlackHoleParams(1.0, dilaton, 1.0)) for dilaton in (0.0, 0.6, 1.0)]
    assert len(points) == 880 + 33
    for spec, params in points:
        pair = bogoliubov(params)
        rho = scenario_density(spec, pair)
        assert len(expand_kruskal(spec, pair).amplitudes) == 2**spec.n_horizon + 1
        assert len(rho.entries) == 2**spec.n_horizon + 2
        for x in (extract_xstate(rho), build_block_matrix(spec, pair)):
            assert len(x.blocks) == 2**spec.n_horizon
            assert sum(1 for _, _, c in x.blocks.values() if c) == 1


def test_density_reduce_composes_with_partial_trace():
    state, vec = _random_state(np.random.default_rng(11), 4)
    modes = list(state.layout)
    full = partial_trace(state, modes)
    for order in [(1, 3), (3, 1), (2, 0, 3)]:  # kept in and against layout order
        sub = [modes[k] for k in order]
        reduced = dense_density(full.reduce(sub))
        np.testing.assert_allclose(reduced, dense_density(partial_trace(state, sub)), atol=1e-13)
        np.testing.assert_allclose(reduced, _dense_reduction(vec, 4, list(order)), atol=1e-13)


def _assert_raises_as(failure, call):
    """``call()`` raises ``failure``'s type and message, and a ``NotXState`` its position."""
    with pytest.raises(type(failure)) as excinfo:
        call()
    assert str(excinfo.value) == str(failure)
    if isinstance(failure, NotXState):
        assert (excinfo.value.row, excinfo.value.col) == (failure.row, failure.col)


def _assert_pairs_match_reduce(rho):
    """Hold verify's pair step against ``pair_entanglement(rho.reduce(pair))``, pair by pair.

    A density with no entry on one or two modes is certified: the step
    scores it one ``0.0`` and reduces nothing.  Any other density gets the
    public score of every pair in ``combinations`` order, floats equal to
    the last bit; or, where a reduction fails, the same error at the first
    such pair, with the same ``NotXState`` position.
    """
    if not near_entries(rho):
        assert verify._pair_scores(rho) == [0.0]
        return
    expected, failure = public_pair_scores(rho)
    if failure is None:
        got = verify._pair_scores(rho)
        assert len(got) == math.comb(len(rho.layout), 2)
        assert list(map(float.hex, got)) == list(map(float.hex, expected))
    else:
        _assert_raises_as(failure, lambda: verify._pair_scores(rho))


def _assert_certificate_holds(rho):
    """Where the step certifies ``rho``, every pair's public score is exactly ``0.0``.

    A reduction may instead raise ``InvalidDensity``: two diagonal entries
    just above ``POPULATION_FLOOR`` that land in one slot of a pair can sum
    below it, which the reduced density refuses and the certificate never
    reads.  Every pair is tried, past any such failure.
    """
    if near_entries(rho):
        return
    assert verify._pair_scores(rho) == [0.0]
    for keep in itertools.combinations(rho.layout.modes, 2):
        try:
            reduced = rho.reduce(keep)
        except InvalidDensity:
            continue
        assert pair_entanglement(reduced) == 0.0


def _assert_old_pair_path_matches(rho):
    """The earlier two-pass pair reading: ``reduce``'s entries, and the pair step's scores."""
    sums = pair_sums(rho)
    assert list(sums) == list(itertools.combinations(rho.layout.modes, 2))
    for keep, pair in sums.items():
        assert list(pair.items()) == list(rho.reduce(keep).entries.items())
    try:
        old = [gme_xstate(read_blocks(pair, 2)) for pair in sums.values()]
    except NotXState as exc:
        with pytest.raises(NotXState) as excinfo:
            verify._pair_scores(rho)
        assert (excinfo.value.row, excinfo.value.col) == (exc.row, exc.col)
    else:
        assert verify._pair_scores(rho) == (old if near_entries(rho) else [0.0])
        assert near_entries(rho) or set(old) <= {0.0}


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


def test_pair_blocks_match_reduce_when_entries_cancel():
    # On F1, F2 the first two entries add to rho_11 and cancel, so reduce drops
    # that entry; on F2, F3 they land apart, on rho_22 and rho_33.  Either way
    # the reduction is diagonal and the certified zero is its score.
    layout = ModeLayout((flat_mode(1), flat_mode(2), flat_mode(3)))
    rho = SparseDensity(layout, {(2, 2): 1e-14, (3, 3): -1e-14, (0, 0): 0.5, (4, 4): 0.5})
    _assert_pairs_match_reduce(rho)
    _assert_certificate_holds(rho)


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
    # Over the diagonal rows 000 and 111 the three pairs are alike; only the near
    # entry tells F3 (and, for the coherence, F2) apart, and it alone sends the
    # pair step to the public score of each pair.
    layout = ModeLayout((flat_mode(1), flat_mode(2), flat_mode(3)))
    _assert_pairs_match_reduce(SparseDensity(layout, entries))


def _mixture(draw, n_modes, flips):
    """The entries of a drawn mixture of two-label pure states on ``n_modes`` modes.

    Each component ``cos(phi)|row> + sin(phi)|row ^ flip>``, ``flip`` drawn
    from ``flips``, adds two populations and one coherence that differs on
    the modes of ``flip``.  Entries of magnitude exactly ``OFF_X_TOL`` sit
    at further such positions.
    """
    labels = st.integers(0, (1 << n_modes) - 1)
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
    return entries


def _shuffled_density(draw, n_modes, entries):
    """``entries`` on the flat modes 1 to ``n_modes``, in a drawn order."""
    order = draw(st.permutations(list(entries)))
    layout = ModeLayout(tuple(flat_mode(i) for i in range(1, n_modes + 1)))
    return SparseDensity(layout, {key: entries[key] for key in order})


@st.composite
def _mixed_densities(draw):
    """Mixtures of two-label pure states on 3 to 5 modes, with entries at +-OFF_X_TOL.

    A coherence differs on one, two, or three and more modes, and the
    entries come in any order, so a coherence may precede every population.
    """
    n_modes = draw(st.integers(3, 5))
    entries = _mixture(draw, n_modes, st.integers(1, (1 << n_modes) - 1))
    return _shuffled_density(draw, n_modes, entries)


@st.composite
def _far_densities(draw):
    """Mixtures as ``_mixed_densities`` draws, with no entry that differs on one or two modes.

    Each coherence flips three modes or more, so the pair step certifies
    the density.  Up to four populations just above
    ``POPULATION_FLOOR`` sit at further labels, so two of them may land in
    one slot of a pair and sum below it, which the reduction refuses.
    """
    n_modes = draw(st.integers(3, 5))
    entries = _mixture(draw, n_modes, st.sampled_from([f for f in range(1 << n_modes) if f.bit_count() >= 3]))
    tiny = st.floats(POPULATION_FLOOR, 0.0, exclude_max=True)
    for label, value in draw(st.lists(st.tuples(st.integers(0, (1 << n_modes) - 1), tiny), max_size=4)):
        entries.setdefault((label, label), value)
    return _shuffled_density(draw, n_modes, entries)


@settings(deadline=None)
@given(rho=_mixed_densities())
def test_pair_reductions_match_reduce_on_mixed_densities(rho):
    _assert_pairs_match_reduce(rho)


@settings(deadline=None)
@given(rho=_far_densities())
def test_pair_reductions_match_reduce_on_far_densities(rho):
    assert not near_entries(rho)
    _assert_pairs_match_reduce(rho)


@settings(deadline=None)
@given(rho=_mixed_densities())
def test_certified_pairs_pass_the_public_check_on_mixed_densities(rho):
    # The pair step's certified zero is the public score of every pair.
    _assert_certificate_holds(rho)


@settings(deadline=None)
@given(rho=_far_densities())
def test_certified_pairs_pass_the_public_check_on_far_densities(rho):
    # Every far density is certified, populations near the floor included.
    assert not near_entries(rho)
    _assert_certificate_holds(rho)


def test_sparse_density_refuses_an_off_diagonal_entry_past_one():
    # Such entries used to pass, and their sums overflowed in reduce.
    layout = ModeLayout((flat_mode(1), flat_mode(2), flat_mode(3)))
    huge = {(0, 0): 0.5, (7, 7): 0.5, (0, 3): 1e308, (4, 7): 1e308}
    with pytest.raises(InvalidDensity, match=r"^off-diagonal entry \(0, 3\) = 1e\+308 exceeds 1 in magnitude$"):
        SparseDensity(layout, huge)
    with pytest.raises(InvalidDensity, match=r"^off-diagonal entry \(0, 7\) = 1e\+200 exceeds 1"):
        SparseDensity(layout, {(0, 0): 0.5, (7, 7): 0.5, (0, 7): 1e200})
    # A magnitude of 1 is not refused, whatever the diagonal.
    for value in (1.0, -1.0):
        assert SparseDensity(layout, {(0, 0): 0.5, (7, 7): 0.5, (0, 7): value}).entries[0, 7] == value


def test_sparse_density_validation():
    layout = ModeLayout((flat_mode(1),))
    # the upper triangle implies its mirror, and a key below the diagonal is refused
    rho = SparseDensity(layout, {(0, 1): 0.3, (0, 0): 0.5, (1, 1): 0.5})
    assert density_value(rho, 1, 0) == 0.3
    assert density_value(rho, 0, 1) == 0.3
    message = "entry (1, 0) lies below the diagonal; give the upper triangle (row <= col)"
    with pytest.raises(InvalidDensity, match=f"^{re.escape(message)}$"):
        SparseDensity(layout, {(0, 1): 0.3, (1, 0): 0.3, (0, 0): 0.5, (1, 1): 0.5})
    with pytest.raises(InvalidDensity):
        SparseDensity(layout, {(0, 0): 0.4, (1, 1): 0.4})  # trace 0.8
    with pytest.raises(InvalidDensity):
        SparseDensity(layout, {(0, 0): 1.5, (1, 1): -0.5})  # negative diagonal
    with pytest.raises(InvalidDensity):
        SparseDensity(layout, {(0, 2): 1.0})  # out of range


_ONE_MODE = ModeLayout((flat_mode(1),))
_TWO_MODES = ModeLayout((flat_mode(1), flat_mode(2)))


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
        # Past the int-to-str limit an index is named by its bit length.
        (
            lambda: SparseDensity(_ONE_MODE, {(0, 0): 1.0, (10**5000, 0): 0.0}),
            InvalidDensity,
            "entry (<16610-bit integer>, 0) outside [0, 2)**2 for layout F1",
        ),
        (
            lambda: SparseState(_ONE_MODE, {10**5000: 1.0}),
            InvalidParams,
            "basis label <16610-bit integer> outside [0, 2) for layout F1",
        ),
        (
            lambda: XState(2, {10**5000: (1.0, 0.0, 0.0)}),
            InvalidDensity,
            "block index <16610-bit integer> outside [0, 2)",
        ),
        (
            lambda: XState(-(10**5000), {}),
            InvalidDensity,
            "half dimension must be a positive integer, got <negative 16610-bit integer>",
        ),
    ],
    ids=["density-float", "density-bool", "density-float-col", "state-bool", "state-float",
         "xstate-bool", "xstate-float", "density-huge", "state-huge", "xstate-huge",
         "xstate-huge-half-dimension"],
)
def test_an_index_is_an_int_but_not_a_bool(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


_TINY = 5e-324  # the smallest subnormal


# Each container stores a value iff it is not an exact zero.
@pytest.mark.parametrize(
    "build,always,tiny",
    [
        (lambda v: SparseState(_ONE_MODE, {0: 1.0, 1: v}).amplitudes, {0: 1.0}, {1: _TINY}),
        (lambda v: SparseDensity(_ONE_MODE, {(0, 0): 1.0, (0, 1): v, (1, 1): v}).entries,
         {(0, 0): 1.0}, {(0, 1): _TINY, (1, 1): _TINY}),
        (lambda v: XState(2, {0: (1.0, 0.0, 0.0), 1: (v, v, v)}).blocks,
         {0: (1.0, 0.0, 0.0)}, {1: (_TINY, _TINY, _TINY)}),
    ],
    ids=["state", "density", "xstate"],
)
def test_every_nonzero_value_is_stored_and_an_exact_zero_is_not(build, always, tiny):
    assert build(_TINY) == {**always, **tiny}
    assert build(0.0) == always


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: SparseDensity(_ONE_MODE, {(0, 0): _NAN, (1, 1): 1.0}), InvalidDensity,
         "entry (0, 0) = nan is not finite"),
        (lambda: SparseDensity(_ONE_MODE, {(0, 0): 0.5, (1, 1): 0.5, (0, 1): _NAN}), InvalidDensity,
         "entry (0, 1) = nan is not finite"),
        (lambda: SparseDensity(_ONE_MODE, {(0, 0): 0.5, (1, 1): 0.5, (0, 1): -_INF}), InvalidDensity,
         "entry (0, 1) = -inf is not finite"),
        # a NaN coherence on the anti-diagonal, after a finite one
        (lambda: SparseDensity(_TWO_MODES, {(0, 3): 0.1, (1, 2): _NAN, (0, 0): 0.5, (3, 3): 0.5}),
         InvalidDensity, "entry (1, 2) = nan is not finite"),
        (lambda: SparseDensity(_ONE_MODE, {(0, 0): _INF, (1, 1): -_INF}), InvalidDensity,
         "entry (0, 0) = inf is not finite"),
        (lambda: SparseState(_ONE_MODE, {0: 1.0, 1: _NAN}), InvalidParams, "amplitude at basis label 1 is nan"),
        (lambda: SparseState(_ONE_MODE, {0: _NAN}), InvalidParams, "amplitude at basis label 0 is nan"),
        (lambda: SparseState(_ONE_MODE, {0: 1.0, 1: _INF}), InvalidParams, "state norm**2 deviates from 1 by inf"),
    ],
    ids=["density-diagonal-nan", "density-nan", "density-inf", "density-mirrored-nan", "density-inf-trace",
         "state-nan", "state-only-nan", "state-inf"],
)
def test_a_nan_or_infinite_entry_is_refused(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: SparseState(_ONE_MODE, {0: "1"}), InvalidParams,
         "amplitude at basis label 0 must be a real number, got '1'"),
        (lambda: SparseState(_ONE_MODE, {0: 0.6, 1: True}), InvalidParams,
         "amplitude at basis label 1 must be a real number, got True"),
        (lambda: SparseState(_ONE_MODE, {0: None}), InvalidParams,
         "amplitude at basis label 0 must be a real number, got None"),
        (lambda: SparseDensity(_ONE_MODE, {(0, 0): "1"}), InvalidDensity,
         "entry (0, 0) must be a real number, got '1'"),
        (lambda: SparseDensity(_ONE_MODE, {(0, 0): 1.0, (1, 1): False}), InvalidDensity,
         "entry (1, 1) must be a real number, got False"),
        (lambda: SparseDensity(_ONE_MODE, {(0, 0): 0.5, (1, 1): 0.5, (0, 1): 0.1j}), InvalidDensity,
         "entry (0, 1) must be a real number, got 0.1j"),
        (lambda: XState(1, {0: ("x", 0, 0)}), InvalidDensity,
         "a-entry of block 0 must be a real number, got 'x'"),
        (lambda: XState(1, {0: (None, 0, 0)}), InvalidDensity,
         "a-entry of block 0 must be a real number, got None"),
        (lambda: XState(2, {0: (0.5, 0.5, 0.0), 1: (0.0, 0.0, True)}), InvalidDensity,
         "c-entry of block 1 must be a real number, got True"),
    ],
    ids=["state-str", "state-bool", "state-none", "density-str", "density-bool", "density-complex",
         "xstate-str", "xstate-none", "xstate-bool"],
)
def test_a_value_that_is_not_a_real_number_is_refused(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_a_real_number_that_is_not_a_float_is_read_as_a_float():
    state = SparseState(_ONE_MODE, {0: 1})
    density = SparseDensity(_ONE_MODE, {(0, 0): Fraction(1, 4), (1, 1): np.float32(0.75)})
    x = XState(1, {0: (1, 0, 0)})
    for values in (state.amplitudes.values(), density.entries.values(), x.blocks[0]):
        assert all(type(v) is float for v in values)
    assert state.amplitudes == {0: 1.0}
    assert density.entries == {(0, 0): 0.25, (1, 1): 0.75}
    assert x.blocks == {0: (1.0, 0.0, 0.0)}


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

