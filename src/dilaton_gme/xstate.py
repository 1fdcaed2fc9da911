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

A public ``XState(half_dimension, blocks)`` runs the generic check of
every field: types, block indices, populations, coherence bounds and
trace.  Two producers store their blocks through ``XState._unchecked``
instead, which only drops the all-zero blocks.  ``build_block_matrix``
writes closed-form products of a checked spec and pair, so every field
holds by construction.  The pair scan sums only the diagonal, and only
for a density with no entry that differs on one or two modes, so its
sums are floats at valid indices and its coherences are zero; their
populations and trace are only as good as the density they came from,
so it tests those and reduces and extracts any pair that fails one,
which raises the reduction's own message.  A density with such an entry
is reduced and extracted once per class.  :func:`extract_xstate` reads
any density, and a :class:`SparseDensity` never checks positivity, so it
keeps the public check.
"""

from __future__ import annotations

import math
from typing import Mapping

from .errors import InvalidDensity, NotXState, _count_text, _is_index, _items, _real
from .hawking import BogoliubovPair, _Value, coeff_power
from .modes_state import NORM_TOL, POPULATION_FLOOR, ScenarioSpec, SparseDensity

Block = tuple[float, float, float]

#: Largest magnitude an entry off the diagonal and the anti-diagonal may have
#: and still be read as an X state's zero.
OFF_X_TOL = 1e-12
# How far a coherence may pass sqrt(a * b) before it breaks positivity.
_COHERENCE_SLACK = 1e-12


class XState(_Value):
    """X-shaped density matrix as ``{block index: (a, b, c)}``."""

    __slots__ = ("half_dimension", "blocks")

    def __init__(self, half_dimension: int, blocks: Mapping[int, Block]):
        object.__setattr__(self, "half_dimension", half_dimension)
        object.__setattr__(self, "blocks", blocks)
        self.__post_init__()

    def __post_init__(self):
        m = self.half_dimension
        if not _is_index(m) or m < 1:
            raise InvalidDensity(f"half dimension must be a positive integer, got {_count_text(m)}")
        blocks: dict[int, Block] = {}
        populations: list[float] = []
        for i, block in _items(self.blocks, InvalidDensity, "blocks"):
            try:
                a, b, c = block
            except (TypeError, ValueError):
                raise InvalidDensity(f"block {_count_text(i)} is not an (a, b, c) triple") from None
            if not (_is_index(i) and 0 <= i < m):
                raise InvalidDensity(f"block index {_count_text(i)} outside [0, {_count_text(m)})")
            if not type(a) is type(b) is type(c) is float:
                where = f"-entry of block {_count_text(i)}"
                a, b, c = [_real(v, InvalidDensity, name + where) for name, v in zip("abc", (a, b, c))]
            # A NaN fails both comparisons, an infinity the second.
            if not POPULATION_FLOOR <= a < math.inf:
                raise InvalidDensity(f"a-entry {a!r} is not a valid population")
            if not POPULATION_FLOOR <= b < math.inf:
                raise InvalidDensity(f"b-entry {b!r} is not a valid population")
            if c:  # a zero coherence is within any bound
                bound = math.sqrt(max(a, 0.0) * max(b, 0.0))
                if not abs(c) <= bound + _COHERENCE_SLACK:  # a NaN fails it too
                    if c != c:
                        raise InvalidDensity(f"coherence c[{_count_text(i)}] is nan")
                    raise InvalidDensity(
                        f"coherence |c[{_count_text(i)}]| = {abs(c)!r} exceeds "
                        f"sqrt(a*b) = {bound!r}"
                    )
            if a or b or c:
                blocks[i] = (a, b, c)
                populations += (a, b)
        object.__setattr__(self, "blocks", blocks)
        trace = math.fsum(populations)
        if abs(trace - 1.0) > NORM_TOL:
            raise InvalidDensity(f"trace deviates from 1 by {trace - 1.0:.3e}")

    @classmethod
    def _unchecked(cls, half_dimension: int, blocks: Mapping[int, Block]) -> "XState":
        """The X-state of ``blocks``, stored without the checks; an all-zero block is dropped."""
        kept = {i: block for i, block in blocks.items() if block[0] or block[1] or block[2]}
        x = object.__new__(cls)
        object.__setattr__(x, "half_dimension", half_dimension)
        object.__setattr__(x, "blocks", kept)
        return x


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


def _pair_xstates(rho: SparseDensity) -> list[tuple[XState, int]]:
    """``extract_xstate(rho.reduce(pair))`` once per class of alike pairs, with its pairs on mode 0.

    An entry survives the trace onto a pair only when its row and column
    differ on no other mode.  So one scan of ``rho.entries`` keeps the
    diagonal entries, which feed every pair, and the row and column labels
    of the entries that differ on one or two modes; any other entry feeds
    no pair.  A mode's column is its bits over the labels the scan keeps.
    Which of those entries the pair ``(i, j)`` keeps, and where each
    lands, depends only on ``(column_i, column_j)``, so the pairs fall
    into one class per distinct ordered pair of columns.  In a scenario
    state every flat mode has the same column, which leaves
    ``C(n + 1, 2)`` classes plus one of flat pairs, however many parties
    there are.

    The modes with one column are found as bit masks over the register:
    starting from one mask of every mode, each distinct kept label splits
    a mask into the modes it sets and those it clears, and a mask of one
    mode splits no further.  A mask's first mode is its highest bit, so
    ``bit_length`` orders the masks by first mode.  The class of masks
    ``(A, B)`` has its first pair in ``combinations`` order at ``i``, the
    first mode of ``A``, and ``j``, the first mode of ``B`` after ``i``, if
    there is one; when ``A`` holds mode 0, ``bit_count`` of ``B``'s modes
    after it counts the class's pairs ``(0, j)``.  No label is formatted,
    no column is built, and no pair is listed.

    Each class is read at its first pair.  In a scenario state no entry
    differs on one or two modes: for ``N >= 3`` its one coherence differs
    on all ``N``.  Then the pair's coherences are zero, and one call of
    :func:`_pair_xstate` builds every class in one loop: each class adds
    each diagonal value to one of four int-keyed slots, found with two
    shifts, the sums of its reduction's ``rho_00``, ``rho_11``, ``rho_22``
    and ``rho_33``.  Each slot sums with ``math.fsum``, as
    :meth:`SparseDensity.reduce` sums its entries.  So each X-state's
    blocks are the ones :func:`extract_xstate` reads off the reduction onto
    any pair of the class, and no two-mode :class:`SparseDensity` or
    :class:`ModeLayout` is built.  A pair whose sums fail a test, and every
    class of a density that holds an entry on one or two modes, is reduced
    and extracted instead, so it raises exactly what the reduction raises.
    The classes come in the order of their first pairs, so the first pair
    whose reduction fails is the one that raises.
    """
    n = len(rho.layout)
    diagonal: list[tuple[int, float]] = []
    near: set[int] = set()  # the labels of the entries that differ on one or two modes
    for (row, col), value in rho.entries.items():
        if row == col:
            diagonal.append((row, value))
        else:
            diff = row ^ col
            rest = diff & (diff - 1)  # the difference without its lowest mode
            if not rest & (rest - 1):
                near.update((row, col))
    labels = near.union(row for row, _ in diagonal)
    # Masks of one mode, and of two modes or more.
    single, groups = ([], [(1 << n) - 1]) if n > 1 else ([1], [])
    for label in labels:
        if not groups:
            break
        refined = []
        for group in groups:
            ones = group & label
            for part in (ones, group ^ ones) if ones and ones != group else (group,):
                (refined if part & (part - 1) else single).append(part)
        groups = refined
    masks = single + groups
    classes = []
    for a in masks:
        i = n - a.bit_length()
        after = (1 << (n - 1 - i)) - 1  # the modes after i
        for b in masks:
            later = b & after
            if later:
                classes.append((i, n - later.bit_length(), later.bit_count() if i == 0 else 0))
    classes.sort()
    if near:
        modes = rho.layout.modes
        return [(extract_xstate(rho.reduce((modes[i], modes[j]))), on_first) for i, j, on_first in classes]
    return _pair_xstate(rho, diagonal, classes)


def _pair_xstate(
    rho: SparseDensity, diagonal: list[tuple[int, float]], classes: list[tuple[int, int, int]]
) -> list[tuple[XState, int]]:
    """``(X-state, on_first)`` per class ``(i, j, on_first)``, from the scan's ``diagonal`` alone.

    One loop over the classes sums the diagonal into each class's four
    slots.  Their indices and float types hold by construction, a checked
    density keeps every sum finite, and with no entry that differs on one
    or two modes the coherences are zero.  The populations and trace are
    tested here; a class that fails one is reduced and extracted at its
    first pair, which raises the reduction's own message.
    """
    top, modes, floor = len(rho.layout) - 1, rho.layout.modes, POPULATION_FLOOR
    xstates = []
    for i, j, on_first in classes:
        hi, lo = top - 1 - i, top - j  # the shifts that bring i to 2 and j to 1
        slots: tuple[list[float], ...] = ([], [], [], [])
        for row, value in diagonal:
            slots[(row >> hi) & 2 | (row >> lo) & 1].append(value)
        rho_00, rho_11, rho_22, rho_33 = map(math.fsum, slots)  # an empty slot sums to 0.0
        if (
            rho_00 >= floor and rho_11 >= floor and rho_22 >= floor and rho_33 >= floor
            and abs(math.fsum((rho_00, rho_11, rho_22, rho_33)) - 1.0) <= NORM_TOL
        ):
            x = XState._unchecked(2, {0: (rho_00, rho_33, 0.0), 1: (rho_11, rho_22, 0.0)})
        else:
            x = extract_xstate(rho.reduce((modes[i], modes[j])))
        xstates.append((x, on_first))
    return xstates


def build_block_matrix(spec: ScenarioSpec, pair: BogoliubovPair) -> XState:
    """Closed-form blocks of the reduced scenario state.

    The diagonal of the lower half enumerates the kept horizon patterns:
    a pattern of weight ``w`` carries ``cos(theta)**2 * alpha**(2(n-w)) *
    beta**(2w)``.  The upper half holds a single population
    ``sin(theta)**2`` whose mirror index is ``2**n_in_kept - 1``, and the
    one coherence ``alpha**p * beta**q * cos(theta) * sin(theta)`` sits at
    that same index.  The spec and the pair are checked, so the blocks are
    valid by construction and skip the public check.
    """
    n = spec.n_horizon
    cos_t, sin_t = math.cos(spec.theta), math.sin(spec.theta)
    cos_sq = cos_t * cos_t
    weights = [cos_sq * coeff_power(pair, 2 * (n - w), 2 * w) for w in range(n + 1)]
    blocks = {pattern: (weights[pattern.bit_count()], 0.0, 0.0) for pattern in range(1 << n)}
    mirror = (1 << spec.n_in_kept) - 1
    coherence = coeff_power(pair, spec.n_out_kept, spec.n_in_kept) * cos_t * sin_t
    blocks[mirror] = (blocks[mirror][0], sin_t * sin_t, coherence)
    return XState._unchecked(1 << (spec.n_parties - 1), blocks)
