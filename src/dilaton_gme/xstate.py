"""X-shaped density matrices and their block construction.

The reduced states produced by the horizon pipeline only populate the
main diagonal and the anti-diagonal, so the matrix splits into 2x2 blocks,
one per row ``i`` of the lower half and its mirror ``2m - 1 - i`` (``m`` =
half the dimension).  Block ``i`` is the triplet ``(a, b, c)``:

* ``a`` — diagonal entry at row ``i``,
* ``b`` — diagonal entry at the mirrored row ``2m - 1 - i``,
* ``c`` — coherence between row ``i`` and its mirror.

An :class:`XState` stores only the blocks that are not all zero, keyed by
``i``; a missing block reads as zero.  A scenario state has ``2**n + 1``
of them however many parties share it, so nothing here costs ``2**N``.
Positivity of each block requires ``|c| <= sqrt(a * b)``.

:func:`extract_xstate` reads the blocks off a sparse density matrix and
:func:`build_block_matrix` writes them directly from the closed-form block
structure of the scenario, without ever building a state.  The two paths
must agree entry by entry; the verification suite checks that they do.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

from .errors import InvalidDensity, NotXState
from .hawking import BogoliubovPair, coeff_power
from .modes_state import ScenarioSpec, SparseDensity, _is_index

__all__ = ["XState", "extract_xstate", "build_block_matrix"]

Block = tuple[float, float, float]

#: Largest magnitude an entry off the diagonal and the anti-diagonal may have
#: and still be read as an X state's zero.
OFF_X_TOL = 1e-12


@dataclass(frozen=True)
class XState:
    """X-shaped density matrix as ``{block index: (a, b, c)}``."""

    half_dimension: int
    blocks: Mapping[int, Block]

    def __post_init__(self):
        m = self.half_dimension
        if not _is_index(m) or m < 1:
            raise InvalidDensity(f"half dimension must be a positive integer, got {m!r}")
        blocks: dict[int, Block] = {}
        populations: list[float] = []
        for i, (a, b, c) in self.blocks.items():
            if not (_is_index(i) and 0 <= i < m):
                raise InvalidDensity(f"block index {i!r} outside [0, {m})")
            a, b, c = float(a), float(b), float(c)
            # A NaN fails both comparisons, an infinity the second.
            if not -1e-14 <= a < math.inf:
                raise InvalidDensity(f"a-entry {a!r} is not a valid population")
            if not -1e-14 <= b < math.inf:
                raise InvalidDensity(f"b-entry {b!r} is not a valid population")
            if c:  # a zero coherence is within any bound
                bound = math.sqrt(max(a, 0.0) * max(b, 0.0))
                if abs(c) > bound + 1e-12:
                    raise InvalidDensity(
                        f"coherence |c[{i}]| = {abs(c)!r} exceeds sqrt(a*b) = {bound!r}"
                    )
            if a or b or c:
                blocks[i] = (a, b, c)
                populations += (a, b)
        object.__setattr__(self, "blocks", blocks)
        trace = math.fsum(populations)
        if abs(trace - 1.0) > 1e-12:
            raise InvalidDensity(f"trace deviates from 1 by {trace - 1.0:.3e}")

    @property
    def dimension(self) -> int:
        return 2 * self.half_dimension


def extract_xstate(rho: SparseDensity) -> XState:
    """Read the (a, b, c) blocks off a sparse density matrix.

    Any entry above :data:`OFF_X_TOL` in magnitude that sits neither on the
    diagonal nor on the anti-diagonal raises :class:`NotXState` carrying its
    position.
    """
    dim = 1 << len(rho.layout)
    half = dim >> 1
    blocks: dict[int, list[float]] = {}
    for (row, col), value in rho.entries.items():
        if row == col:
            index, slot = (row, 0) if row < half else (dim - 1 - row, 1)
        elif row + col == dim - 1:
            index, slot = row, 2
        elif abs(value) > OFF_X_TOL:
            raise NotXState(row, col)
        else:
            continue
        blocks.setdefault(index, [0.0, 0.0, 0.0])[slot] = value
    return XState(half, {i: tuple(block) for i, block in blocks.items()})


def _pair_xstates(rho: SparseDensity) -> list[tuple[XState, list[tuple[str, str]]]]:
    """``extract_xstate(rho.reduce(pair))`` once per class of alike pairs, with its pairs.

    An entry survives the trace onto a pair only when its row and column
    differ on no other mode.  So one scan of ``rho.entries`` keeps the
    diagonal entries, which feed every pair, and the entries that differ on
    one or two modes; any other entry feeds no pair.  A mode's column is its
    bits over the rows and columns the scan keeps.  Which kept entries the
    pair ``(i, j)`` keeps, and where each lands, depends only on
    ``(column_i, column_j)``, so the pairs fall into one class per distinct
    ordered pair of columns.  In a scenario state every flat mode has the
    same column, which leaves ``C(n + 1, 2)`` classes plus one of flat
    pairs, however many parties there are.

    Each class is read at its first pair: it adds each diagonal value to
    one of four int-keyed slots, found with two shifts, the sums of its
    reduction's ``rho_00``, ``rho_11``, ``rho_22`` and ``rho_33``.  An entry
    that differs on both of the pair's modes adds to its coherence
    ``rho_03`` or ``rho_12``, and one that differs on a single mode of the
    pair lies off its X.  Each slot sums with ``math.fsum``, as
    :meth:`SparseDensity.reduce` sums its entries, and the two blocks enter
    ``XState(2, …)`` in the order of their first entry that the reduction
    keeps.  So each X-state, and each :class:`NotXState` position, is the
    one :func:`extract_xstate` reads off the reduction onto any pair of the
    class, and no two-mode :class:`SparseDensity` or :class:`ModeLayout` is
    built.  The classes come in the order of their first pair and list
    their pairs in ``combinations`` order, so the first pair whose
    reduction fails is the one that raises.
    """
    modes = rho.layout.modes
    n = len(modes)
    diagonal: list[tuple[int, float]] = []
    near: list[tuple[int, int, float]] = []  # entries that differ on one or two modes
    for (row, col), value in rho.entries.items():
        if row == col:
            diagonal.append((row, value))
        else:
            diff = row ^ col
            rest = diff & (diff - 1)  # the difference without its lowest mode
            if not rest & (rest - 1):
                near.append((row, col, value))
    labels = [row for row, _ in diagonal] + [label for row, col, _ in near for label in (row, col)]
    columns: dict[tuple[str, ...], int] = {}
    kind = [
        columns.setdefault(column, len(columns))
        for column in zip(*[format(label, f"0{n}b") for label in labels])
    ]
    # Per class: its first pair and its pairs, keyed by the two columns.
    classes: dict[tuple[int, int], tuple[tuple[int, int], list[tuple[str, str]]]] = {}
    for i, j in itertools.combinations(range(n), 2):
        key = (kind[i], kind[j])
        if key not in classes:
            classes[key] = ((i, j), [])
        classes[key][1].append((modes[i], modes[j]))
    return [
        (_pair_xstate(rho.entries, diagonal, near, n - 2 - i, n - 1 - j), members)
        for (i, j), members in classes.values()
    ]


def _pair_xstate(
    entries: Mapping[tuple[int, int], float],
    diagonal: list[tuple[int, float]],
    near: list[tuple[int, int, float]],
    hi: int,
    lo: int,
) -> XState:
    """The X-state of the pair whose bits the shifts ``hi, lo`` bring to 2 and 1."""
    slots: tuple[list[float], ...] = ([], [], [], [], [], [])
    for row, value in diagonal:
        slots[(row >> hi) & 2 | (row >> lo) & 1].append(value)
    if near:
        off_x: dict[tuple[int, int], list[float]] = {}
        outside = ~((2 << hi) | (1 << lo))
        for row, col, value in near:
            if (row ^ col) & outside:
                continue
            rk = (row >> hi) & 2 | (row >> lo) & 1
            ck = (col >> hi) & 2 | (col >> lo) & 1
            if rk ^ ck == 3:
                slots[4 + (rk in (1, 2))].append(value)
            else:
                off_x.setdefault((rk, ck) if rk < ck else (ck, rk), []).append(value)
        for key, values in off_x.items():
            if abs(math.fsum(values)) > OFF_X_TOL:
                raise NotXState(*key)
    sums = [math.fsum(values) if values else 0.0 for values in slots]
    rho_00, rho_11, rho_22, rho_33, rho_03, rho_12 = sums
    blocks = {0: (rho_00, rho_33, rho_03), 1: (rho_11, rho_22, rho_12)}
    if (rho_11 or rho_22 or rho_12) and (rho_00 or rho_33 or rho_03):
        if _lead_block(entries, hi, lo, sums):
            blocks = {1: blocks[1], 0: blocks[0]}
    return XState(2, blocks)


def _lead_block(
    entries: Mapping[tuple[int, int], float], hi: int, lo: int, sums: list[float]
) -> int:
    """The block of the first entry that adds to a non-zero X slot of the pair at ``hi, lo``."""
    outside = ~((2 << hi) | (1 << lo))
    for row, col in entries:
        if (row ^ col) & outside:
            continue
        rk = (row >> hi) & 2 | (row >> lo) & 1
        ck = (col >> hi) & 2 | (col >> lo) & 1
        block = rk in (1, 2)
        if rk == ck:
            slot = rk
        elif rk ^ ck == 3:
            slot = 4 + block
        else:
            continue
        if sums[slot]:
            return block
    return 0


def build_block_matrix(spec: ScenarioSpec, pair: BogoliubovPair) -> XState:
    """Closed-form blocks of the reduced scenario state.

    The diagonal of the lower half enumerates the kept horizon patterns:
    a pattern of weight ``w`` carries ``cos(theta)**2 * alpha**(2(n-w)) *
    beta**(2w)``.  The upper half holds a single population
    ``sin(theta)**2`` whose mirror index is ``2**n_in_kept - 1``, and the
    one coherence ``alpha**p * beta**q * cos(theta) * sin(theta)`` sits at
    that same index.
    """
    n = spec.n_horizon
    cos_t, sin_t = math.cos(spec.theta), math.sin(spec.theta)
    cos_sq = cos_t * cos_t
    weights = [cos_sq * coeff_power(pair, 2 * (n - w), 2 * w) for w in range(n + 1)]
    blocks = {pattern: (weights[pattern.bit_count()], 0.0, 0.0) for pattern in range(1 << n)}
    mirror = (1 << spec.n_in_kept) - 1
    coherence = coeff_power(pair, spec.n_out_kept, spec.n_in_kept) * cos_t * sin_t
    blocks[mirror] = (blocks[mirror][0], sin_t * sin_t, coherence)
    return XState(1 << (spec.n_parties - 1), blocks)
