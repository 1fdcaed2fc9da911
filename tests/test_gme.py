import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dilaton_gme import (
    BlackHoleParams,
    InvalidPartition,
    ModeLayout,
    ScaleCap,
    ScenarioSpec,
    SparseState,
    bogoliubov,
    expand_kruskal,
    flat_mode,
    gme,
    gme_pure,
    gme_xstate,
    pair_entanglement,
    partial_trace,
    scenario_density,
)
from dilaton_gme.xstate import XState
from conftest import dense_xstate, xstate_from_triplets


def test_gme_xstate_single_block():
    # one coherent block, nothing to subtract
    x = xstate_from_triplets(a=(0.25, 0.25), b=(0.5, 0.0), c=(0.3, 0.0))
    assert gme_xstate(x) == pytest.approx(0.6, abs=1e-15)


def test_gme_xstate_subtracts_other_blocks():
    # nu for block 0 is sqrt(a1 * b1) = 0.2
    x = xstate_from_triplets(a=(0.3, 0.2), b=(0.3, 0.2), c=(0.25, 0.0))
    assert gme_xstate(x) == pytest.approx(2 * (0.25 - 0.2), abs=1e-15)
    # coherence fully covered -> no entanglement
    y = xstate_from_triplets(a=(0.3, 0.2), b=(0.3, 0.2), c=(0.15, 0.0))
    assert gme_xstate(y) == 0.0


def test_gme_xstate_uses_best_block():
    x = xstate_from_triplets(a=(0.1, 0.35), b=(0.35, 0.2), c=(0.0, 0.25))
    # block 1 wins: 2 * (|c1| - sqrt(a0 * b0))
    assert gme_xstate(x) == pytest.approx(2 * (0.25 - math.sqrt(0.035)), abs=1e-15)
    # both coherences fully covered by the opposite block -> zero
    y = xstate_from_triplets(a=(0.3, 0.2), b=(0.3, 0.2), c=(0.05, 0.19))
    assert gme_xstate(y) == 0.0


def _clamped_root_gme(x):
    """``gme_xstate`` written with each population clamped at zero by ``max``."""
    blocks = x.blocks.values()
    roots = [math.sqrt(max(a, 0.0) * max(b, 0.0)) for a, b, _ in blocks]
    total = math.fsum(roots)
    best = 0.0
    for (_, _, c), root in zip(blocks, roots):
        candidate = abs(c) - (total - root)
        if candidate > best:
            best = candidate
    return 2.0 * best


_POPULATIONS = st.one_of(st.sampled_from([0.0, -0.0, -1e-14, -5e-15, 5e-324]), st.floats(0.0, 1.0))


@given(
    blocks=st.lists(
        st.tuples(_POPULATIONS, _POPULATIONS, st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.999, 1.0])),
        min_size=1,
        max_size=6,
    )
)
def test_gme_xstate_is_the_clamped_root_formula_bit_for_bit(blocks):
    # Roots of blocks with a population at or below zero (-0.0 and slightly
    # negative ones included) read as 0.0, which changes no E.
    total = math.fsum(v for a, b, _ in blocks for v in (a, b) if v > 0.0)
    assume(total > 0.0)
    triples = []
    for a, b, f in blocks:
        a, b = (v / total if v > 0.0 else v for v in (a, b))
        triples.append((a, b, f * math.sqrt(max(a, 0.0) * max(b, 0.0))))
    x = XState(len(triples), dict(enumerate(triples)))
    assert float.hex(gme_xstate(x)) == float.hex(_clamped_root_gme(x))


@settings(derandomize=True, deadline=None)
@given(
    populations=st.lists(st.tuples(_POPULATIONS, _POPULATIONS), min_size=1, max_size=6),
    zeros=st.lists(st.sampled_from([0.0, -0.0]), min_size=6, max_size=6),
    coherent=st.one_of(st.none(), st.tuples(st.integers(0, 5), st.floats(-1.0, 1.0))),
)
def test_gme_xstate_without_a_coherence_is_zero_and_the_full_formula(populations, zeros, coherent):
    # With every coherence 0.0 or -0.0 the formula gives exactly +0.0; with one
    # coherence that is not zero it may give more.  Both equal the reference.
    total = math.fsum(v for pair in populations for v in pair if v > 0.0)
    assume(total > 0.0)
    blocks = [
        (*(v / total if v > 0.0 else v for v in pair), c) for pair, c in zip(populations, zeros)
    ]
    if coherent is not None:
        index, fraction = coherent
        a, b, _ = blocks[index % len(blocks)]
        c = fraction * math.sqrt(max(a, 0.0) * max(b, 0.0))
        assume(c)
        blocks[index % len(blocks)] = (a, b, c)
    x = XState(len(blocks), dict(enumerate(blocks)))
    e = gme_xstate(x)
    assert float.hex(e) == float.hex(_clamped_root_gme(x))
    if coherent is None:
        assert float.hex(e) == float.hex(0.0)


def _two_qubit_concurrence(matrix: np.ndarray) -> float:
    """Spin-flip concurrence via the eigenvalues of rho (sy x sy) rho* (sy x sy)."""
    sy = np.array([[0.0, -1.0], [1.0, 0.0]])  # i factored out; real rho
    flip = np.kron(sy, sy)
    r = matrix @ flip @ matrix.conj() @ flip
    eigenvalues = np.linalg.eigvals(r).real
    roots = np.sqrt(np.clip(eigenvalues, 0.0, None))
    roots.sort()
    return max(0.0, roots[-1] - roots[-2] - roots[-3] - roots[-4])


@given(
    weights=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    fractions=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
)
def test_two_qubit_xstate_matches_spin_flip_concurrence(weights, fractions):
    total = sum(weights)
    a = (weights[0] / total, weights[1] / total)
    b = (weights[2] / total, weights[3] / total)
    c = tuple(f * math.sqrt(ai * bi) for f, ai, bi in zip(fractions, a, b))
    x = xstate_from_triplets(a, b, c)
    # the non-symmetric eigensolve plus sqrt limits the oracle to ~sqrt(eps)
    assert gme_xstate(x) == pytest.approx(_two_qubit_concurrence(dense_xstate(x)), abs=1e-7)


def _ghz_state(n_parties: int, theta: float) -> SparseState:
    layout = ModeLayout(tuple(flat_mode(i + 1) for i in range(n_parties)))
    top = (1 << n_parties) - 1
    return SparseState(layout, {0: math.cos(theta), top: math.sin(theta)})


@pytest.mark.parametrize("n_parties", [2, 3, 5])
@pytest.mark.parametrize("theta", [0.2, math.pi / 6, math.pi / 4])
def test_gme_pure_ghz(n_parties, theta):
    state = _ghz_state(n_parties, theta)
    cells = [[m] for m in state.layout]
    assert gme_pure(state, cells) == pytest.approx(math.sin(2 * theta), abs=1e-12)


def test_gme_pure_w_state():
    layout = ModeLayout((flat_mode(1), flat_mode(2), flat_mode(3)))
    amp = 3.0**-0.5
    state = SparseState(layout, {0b001: amp, 0b010: amp, 0b100: amp})
    cells = [[m] for m in layout]
    assert gme_pure(state, cells) == pytest.approx(0.9428090415820634, abs=1e-12)


def test_gme_pure_product_and_biseparable():
    layout = ModeLayout((flat_mode(1), flat_mode(2), flat_mode(3)))
    cells = [[m] for m in layout]
    product = SparseState(layout, {0: 1.0})
    assert gme_pure(product, cells) == 0.0
    # Bell pair on the first two modes, third factored out: the cut that
    # isolates F3 sees a pure side, so the minimum over cuts is zero.
    bell = SparseState(layout, {0b000: 2.0**-0.5, 0b110: 2.0**-0.5})
    assert gme_pure(bell, cells) == 0.0


def test_gme_pure_grouped_parties():
    # Bell pair between F1F2 (as one party) and F3: E = sqrt(2(1 - 1/2)) = 1
    layout = ModeLayout((flat_mode(1), flat_mode(2), flat_mode(3)))
    bell = SparseState(layout, {0b000: 2.0**-0.5, 0b111: 2.0**-0.5})
    value = gme_pure(bell, [[flat_mode(1), flat_mode(2)], [flat_mode(3)]])
    assert value == pytest.approx(1.0, abs=1e-12)


def test_gme_pure_probe_counts_bipartitions(monkeypatch):
    state = _ghz_state(4, 0.7)
    cells = [[m] for m in state.layout]
    seen = []

    def counted_trace(state, keep):
        rho = partial_trace(state, keep)
        seen.append((tuple(keep), rho.purity()))
        return rho

    monkeypatch.setattr(gme, "partial_trace", counted_trace)
    gme_pure(state, cells)
    assert len(seen) == 2 ** (4 - 1) - 1
    assert len({keep for keep, _ in seen}) == len(seen)
    for _, purity in seen:
        assert purity == pytest.approx(math.cos(0.7) ** 4 + math.sin(0.7) ** 4, abs=1e-12)


def test_gme_pure_partition_validation():
    state = _ghz_state(3, 0.5)
    modes = list(state.layout)
    with pytest.raises(InvalidPartition):
        gme_pure(state, [modes])  # single party
    with pytest.raises(InvalidPartition):
        gme_pure(state, [[modes[0]], [modes[1]]])  # does not cover F3
    with pytest.raises(InvalidPartition):
        gme_pure(state, [[modes[0]], [modes[0], modes[1], modes[2]]])  # overlap
    with pytest.raises(InvalidPartition):
        gme_pure(state, [[modes[0]], [], [modes[1], modes[2]]])  # empty cell


def test_gme_pure_scale_cap():
    layout = ModeLayout(tuple(flat_mode(i + 1) for i in range(17)))
    state = SparseState(layout, {0: 1.0})
    with pytest.raises(ScaleCap):
        gme_pure(state, [[m] for m in layout])


def test_pair_entanglement_bell_and_separable():
    layout = ModeLayout((flat_mode(1), flat_mode(2)))
    bell = SparseState(layout, {0b00: 2.0**-0.5, 0b11: 2.0**-0.5})
    rho = partial_trace(bell, list(layout))
    assert pair_entanglement(rho) == pytest.approx(1.0, abs=1e-12)
    separable = partial_trace(SparseState(layout, {0b01: 1.0}), list(layout))
    assert pair_entanglement(separable) == 0.0


def test_pair_entanglement_needs_two_modes():
    state = _ghz_state(3, 0.5)
    rho = partial_trace(state, [flat_mode(1)])
    with pytest.raises(InvalidPartition):
        pair_entanglement(rho)


def test_scenario_pair_reductions_are_exactly_separable():
    # every two-party reduction of the shared state is diagonal
    spec = ScenarioSpec(4, 2, 1, 1, 0.8)
    pair = bogoliubov(BlackHoleParams(1.0, 0.9, 1.0))
    rho = scenario_density(spec, pair)
    kept = spec.kept_modes()
    for i, mode_i in enumerate(kept):
        for mode_j in kept[i + 1 :]:
            reduced = rho.reduce((mode_i, mode_j))
            assert all(r == c for (r, c) in reduced.entries)
            assert pair_entanglement(reduced) == 0.0


def test_gme_pure_agrees_with_xstate_formula_on_full_state():
    # keeping every expanded mode leaves a pure state whose bipartite
    # minimum matches the GHZ value sin(2 theta)
    theta = 0.6
    spec = ScenarioSpec(3, 1, 1, 0, theta)
    pair = bogoliubov(BlackHoleParams(1.0, 0.5, 1.0))
    expanded = expand_kruskal(spec, pair)
    # group each horizon pair (O_i, I_i) with its party
    cells = [[flat_mode(1)], [flat_mode(2)], [m for m in expanded.layout if m.startswith(("O", "I"))]]
    assert gme_pure(expanded, cells) == pytest.approx(math.sin(2 * theta), abs=1e-12)
