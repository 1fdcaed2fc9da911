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

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import InvalidDensity, NotXState
from .hawking import BogoliubovPair, coeff_power
from .modes_state import ScenarioSpec, SparseDensity

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
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise InvalidDensity(f"half dimension must be a positive integer, got {m!r}")
        blocks: dict[int, Block] = {}
        populations: list[float] = []
        for i, (a, b, c) in self.blocks.items():
            if not isinstance(i, int) or not 0 <= i < m:
                raise InvalidDensity(f"block index {i!r} outside [0, {m})")
            a, b, c = float(a), float(b), float(c)
            if not math.isfinite(a) or a < -1e-14:
                raise InvalidDensity(f"a-entry {a!r} is not a valid population")
            if not math.isfinite(b) or b < -1e-14:
                raise InvalidDensity(f"b-entry {b!r} is not a valid population")
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
    return _read_blocks(rho.entries, len(rho.layout))


def _read_blocks(entries: Mapping[tuple[int, int], float], n_modes: int) -> XState:
    """:func:`extract_xstate` on upper-triangle ``entries`` over ``n_modes`` modes."""
    dim = 1 << n_modes
    half = dim >> 1
    blocks: dict[int, list[float]] = {}
    for (row, col), value in entries.items():
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


def _pair_xstates(rho: SparseDensity) -> dict[tuple[str, str], XState]:
    """``extract_xstate(rho.reduce(pair))`` for every pair of modes, in layout order.

    Each pair's sums from the one scan of ``rho`` map straight to
    ``XState(2, blocks)``: block 0 is ``(rho_00, rho_33, rho_03)`` and block
    1 is ``(rho_11, rho_22, rho_12)``, and any other sum above
    :data:`OFF_X_TOL` raises :class:`NotXState`.  No two-mode :class:`SparseDensity` is built: a zero
    sum, which it would drop, leaves its slot at ``0.0`` (``math.fsum`` never
    returns ``-0.0``), and :class:`XState` checks the trace and the
    populations to the tolerances the density applies.
    """
    return {pair: _read_blocks(sums, 2) for pair, sums in rho._pair_sums().items()}


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
