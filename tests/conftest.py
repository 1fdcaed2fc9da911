"""Shared test plumbing.

The acceptance tests record one verdict per criterion; a terminal-summary
hook prints them as a block at the end of the run so the result of each
criterion is visible even when output capturing is on.

The library keeps states, densities and X-states sparse; the dense
builders below give tests full numpy arrays to check them against, plus
the ``(a, b, c)`` triplet view of an X-state and a scenario's traced modes.
The lookups only tests need (a state's norm and amplitudes, a density's
values and trace, a mode's bit in a label) live here too, as do the
per-pair view of ``xstate._pair_xstates``, which reads one X-state per
class of alike pairs, and the earlier two-pass reading of the pair
reductions, kept as a reference for it.
"""

import itertools
import math

import numpy as np

from dilaton_gme import (
    ModeLayout,
    NotXState,
    ScenarioSpec,
    SparseDensity,
    SparseState,
    XState,
    in_mode,
    out_mode,
)
from dilaton_gme.xstate import OFF_X_TOL, _pair_xstates

ACCEPTANCE_RESULTS: dict[str, tuple[bool, str]] = {}


def record_acceptance(key: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS[key] = (passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[key]
        verdict = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(f"{verdict} {key}{suffix}")


_ZERO_BLOCK = (0.0, 0.0, 0.0)


def xstate_from_triplets(a, b, c) -> XState:
    """X-state whose block ``i`` is ``(a[i], b[i], c[i])``."""
    return XState(len(a), dict(enumerate(zip(a, b, c))))


def triplets(x: XState) -> tuple[tuple[float, ...], ...]:
    """The ``(a, b, c)`` tuples over every slot, a missing block as zero."""
    slots = [x.blocks.get(i, _ZERO_BLOCK) for i in range(x.half_dimension)]
    return tuple(tuple(column) for column in zip(*slots))


def dense_state(state: SparseState) -> np.ndarray:
    vec = np.zeros(1 << len(state.layout))
    for label, amp in state.amplitudes.items():
        vec[label] = amp
    return vec


def dense_density(rho: SparseDensity) -> np.ndarray:
    dim = 1 << len(rho.layout)
    mat = np.zeros((dim, dim))
    for (row, col), value in rho.entries.items():
        mat[row, col] = value
        mat[col, row] = value
    return mat


def dense_xstate(x: XState) -> np.ndarray:
    dim = x.dimension
    mat = np.zeros((dim, dim))
    for i, (a, b, c) in x.blocks.items():
        j = dim - 1 - i
        mat[i, i] = a
        mat[j, j] = b
        mat[i, j] = c
        mat[j, i] = c
    return mat


def traced_modes(spec: ScenarioSpec) -> tuple[str, ...]:
    """The dilaton partners that fall behind (or outside) reach."""
    ins = tuple(in_mode(i) for i in range(1, spec.n_out_kept + 1))
    outs = tuple(out_mode(i) for i in range(spec.n_out_kept + 1, spec.n_horizon + 1))
    return ins + outs


def state_norm(state: SparseState) -> float:
    return math.sqrt(math.fsum(a * a for a in state.amplitudes.values()))


def state_amplitude(state: SparseState, label: int) -> float:
    return state.amplitudes.get(label, 0.0)


def density_value(rho: SparseDensity, row: int, col: int) -> float:
    """The entry at ``(row, col)``, read from the stored upper triangle."""
    return rho.entries.get((row, col) if row <= col else (col, row), 0.0)


def density_trace(rho: SparseDensity) -> float:
    return math.fsum(v for (r, c), v in rho.entries.items() if r == c)


def mode_bit(layout: ModeLayout, label: int, mode: str) -> int:
    """Occupation of ``mode`` in the basis state ``label``."""
    return (label >> (len(layout) - 1 - layout.position(mode))) & 1


def pair_sums(rho: SparseDensity) -> dict[tuple[str, str], dict[tuple[int, int], float]]:
    """Upper-triangle entries of every two-mode reduction, unvalidated, from one scan.

    The reading of the pairs before the flat pair scan.  An entry survives
    the trace onto a pair only when its row and column differ on no other
    mode.  Each key's values are summed with ``math.fsum`` in entry order,
    as ``reduce`` sums them; a zero sum stays, where ``reduce`` drops it.
    """
    modes = rho.layout.modes
    top = len(modes) - 1
    pairs = list(itertools.combinations(range(len(modes)), 2))
    through = [[(i, j) for i, j in pairs if k in (i, j)] for k in range(len(modes))]
    acc: dict[tuple[int, int], dict] = {pair: {} for pair in pairs}
    for (row, col), entry in rho.entries.items():
        diff = row ^ col
        low = diff & -diff
        high = diff ^ low
        if high & (high - 1):
            continue
        if not diff:
            targets = pairs
        elif not high:
            targets = through[top + 1 - low.bit_length()]
        else:
            targets = ((top + 1 - high.bit_length(), top + 1 - low.bit_length()),)
        row_bits = [(row >> (top - k)) & 1 for k in range(top + 1)]
        col_bits = [(col >> (top - k)) & 1 for k in range(top + 1)] if diff else row_bits
        for i, j in targets:
            rk = (row_bits[i] << 1) | row_bits[j]
            ck = (col_bits[i] << 1) | col_bits[j]
            key = (rk, ck) if rk <= ck else (ck, rk)
            acc[i, j].setdefault(key, []).append(entry)
    return {
        (modes[i], modes[j]): {key: math.fsum(values) for key, values in sums.items()}
        for (i, j), sums in acc.items()
    }


def read_blocks(entries: dict[tuple[int, int], float], n_modes: int) -> XState:
    """``extract_xstate`` on upper-triangle ``entries`` over ``n_modes`` modes."""
    dim = 1 << n_modes
    half = dim >> 1
    blocks: dict[int, list[float]] = {}
    for (row, col), entry in entries.items():
        if row == col:
            index, slot = (row, 0) if row < half else (dim - 1 - row, 1)
        elif row + col == dim - 1:
            index, slot = row, 2
        elif abs(entry) > OFF_X_TOL:
            raise NotXState(row, col)
        else:
            continue
        blocks.setdefault(index, [0.0, 0.0, 0.0])[slot] = entry
    return XState(half, {i: tuple(block) for i, block in blocks.items()})


def pair_xstates_by_pair(rho: SparseDensity) -> dict[tuple[str, str], XState]:
    """``_pair_xstates(rho)`` expanded to ``{pair: X-state}`` in ``combinations`` order.

    On the way it checks the class layout: every pair of the layout sits in
    exactly one class, each class lists its pairs in ``combinations`` order,
    and the classes come in the order of their first pairs.
    """
    order = {pair: k for k, pair in enumerate(itertools.combinations(rho.layout.modes, 2))}
    by_pair: dict[tuple[str, str], XState] = {}
    firsts = []
    for x, pairs in _pair_xstates(rho):
        ranks = [order[pair] for pair in pairs]
        assert ranks and ranks == sorted(ranks)
        firsts.append(ranks[0])
        for pair in pairs:
            assert pair not in by_pair
            by_pair[pair] = x
    assert firsts == sorted(firsts)
    assert len(by_pair) == len(order)
    return {pair: by_pair[pair] for pair in order}
