"""X-shaped density matrices and their block construction.

The reduced states produced by the horizon pipeline only populate the
main diagonal and the anti-diagonal, so the matrix splits into 2x2 blocks,
one per row ``i`` of the lower half and its mirror ``2m - 1 - i`` (``m`` =
half the dimension).  Block ``i`` is the triplet ``(a, b, c)``:

* ``a`` — diagonal entry at row ``i``,
* ``b`` — diagonal entry at the mirrored row ``2m - 1 - i``,
* ``c`` — coherence between row ``i`` and its mirror.

An :class:`XState` stores only the blocks that are not all zero, keyed by
``i``; a missing block reads as zero.  A scenario state has ``2**n`` of
them (from ``2**n + 2`` density entries) however many parties share it,
so nothing here costs ``2**N``.
Positivity of each block requires ``|c| <= sqrt(a * b)``.

:func:`extract_xstate` reads the blocks off a sparse density matrix and
:func:`build_block_matrix` writes them directly from the closed-form block
structure of the scenario, without ever building a state.  The two paths
must agree entry by entry; the verification suite checks that they do.

A public ``XState(half_dimension, blocks)`` passes both to the check of
every field (types, block indices, populations, coherence bounds, and a
trace that is ``inf`` if its sum overflows), which then writes each field
once.  One producer, ``build_block_matrix``, stores its blocks through
``XState._unchecked`` instead, which only drops the all-zero blocks: it
writes closed-form products of a checked spec and pair, so every field holds
by construction.  :func:`extract_xstate` reads any density, and a
:class:`SparseDensity` never checks positivity, so it keeps the check.
"""

from __future__ import annotations

import math
from typing import Mapping

from .errors import InvalidDensity, NotXState, _count_text, _is_index, _items, _real
from .hawking import BogoliubovPair, _Value, coeff_power
from .modes_state import NORM_TOL, POPULATION_FLOOR, ScenarioSpec, SparseDensity, _total

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
        self.__post_init__(half_dimension, blocks)

    def __post_init__(self, half_dimension, blocks):
        m = half_dimension
        if not _is_index(m) or m < 1:
            raise InvalidDensity(f"half dimension must be a positive integer, got {_count_text(m)}")
        stored: dict[int, Block] = {}
        populations: list[float] = []
        for i, block in _items(blocks, InvalidDensity, "blocks"):
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
                stored[i] = (a, b, c)
                populations += (a, b)
        trace = _total(populations)
        if abs(trace - 1.0) > NORM_TOL:
            raise InvalidDensity(f"trace deviates from 1 by {trace - 1.0:.3e}")
        object.__setattr__(self, "half_dimension", m)
        object.__setattr__(self, "blocks", stored)

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
    blocks: dict[int, Block] = {}
    for (row, col), value in rho.entries.items():
        if row == col:
            if row < half and row not in blocks:  # a block's usual first entry
                blocks[row] = (value, 0.0, 0.0)
                continue
            index, slot = (row, 0) if row < half else (dim - 1 - row, 1)
        elif row + col == dim - 1:
            index, slot = row, 2
        elif abs(value) > OFF_X_TOL:
            raise NotXState(row, col)
        else:
            continue
        block = list(blocks.get(index, (0.0, 0.0, 0.0)))
        block[slot] = value
        blocks[index] = tuple(block)
    return XState(half, blocks)


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
