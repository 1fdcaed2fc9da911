"""Genuine multipartite entanglement measures.

Two evaluation paths:

* :func:`gme_pure` sweeps every bipartition of a pure state and returns
  the smallest ``sqrt(2 * (1 - Tr rho_A**2))``.  Exponential in the party
  count, meant for small oracle checks.
* :func:`gme_xstate` is the closed form for X-shaped mixed states:
  ``2 * max(0, max_i(|c_i| - nu_i))`` where ``nu_i`` sums ``sqrt(a_j b_j)``
  over the other blocks.  Only the stored blocks enter, so the cost grows
  with their count, not with the dimension.

:func:`pair_entanglement` applies the X-state formula to a two-mode
reduction; for the scenario states those reductions are diagonal, so it
quantifies how little entanglement survives in any single pair.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import InvalidPartition, ScaleCap
from .modes_state import SparseDensity, SparseState, partial_trace
from .xstate import XState, extract_xstate

__all__ = ["gme_xstate", "gme_pure", "pair_entanglement"]

#: ``gme_pure`` enumerates 2**(N-1) - 1 bipartitions; cap the party count.
MAX_PURE_PARTIES = 16


def gme_xstate(x: XState) -> float:
    """Closed-form genuine multipartite entanglement of an X state."""
    blocks = x.blocks.values()
    roots = [math.sqrt(max(a, 0.0) * max(b, 0.0)) for a, b, _ in blocks]
    total = math.fsum(roots)
    best = 0.0
    for (_, _, c), root in zip(blocks, roots):
        candidate = abs(c) - (total - root)
        if candidate > best:
            best = candidate
    return 2.0 * best


def gme_pure(state: SparseState, parties: Sequence[Sequence[str]]) -> float:
    """Genuine multipartite entanglement of a pure state.

    ``parties`` groups the register's modes into cells, one per party;
    the cells must cover the layout exactly.  Every bipartition keeps the
    last cell on the fixed side, so masks over the remaining cells
    enumerate each split once.
    """
    cells = [tuple(cell) for cell in parties]
    if len(cells) < 2:
        raise InvalidPartition("need at least two parties")
    if any(not cell for cell in cells):
        raise InvalidPartition("every party needs at least one mode")
    flat = [mode for cell in cells for mode in cell]
    if len(set(flat)) != len(flat):
        raise InvalidPartition("a mode appears in more than one party")
    if set(flat) != set(state.layout.modes):
        raise InvalidPartition("parties must cover the state's layout exactly")
    n_parties = len(cells)
    if n_parties > MAX_PURE_PARTIES:
        raise ScaleCap(
            f"{n_parties} parties means {2 ** (n_parties - 1) - 1} bipartitions; "
            f"capped at {MAX_PURE_PARTIES} parties"
        )
    best = math.inf
    for mask in range(1, 1 << (n_parties - 1)):
        side = {
            mode
            for i in range(n_parties - 1)
            if (mask >> i) & 1
            for mode in cells[i]
        }
        if 2 * len(side) <= len(state.layout):
            keep = [m for m in state.layout if m in side]
        else:
            keep = [m for m in state.layout if m not in side]
        purity = partial_trace(state, keep).purity()
        entanglement = math.sqrt(max(0.0, 2.0 * (1.0 - purity)))
        if entanglement < best:
            best = entanglement
    return best


def pair_entanglement(rho: SparseDensity) -> float:
    """Entanglement of a two-mode X-shaped reduction.

    For two modes the X-state closed form coincides with the concurrence
    of an X state, ``2 * max(0, |c_0| - sqrt(a_1 b_1), |c_1| - sqrt(a_0 b_0))``.
    """
    if len(rho.layout) != 2:
        raise InvalidPartition(
            f"pair entanglement needs exactly two modes, got {len(rho.layout)}"
        )
    return gme_xstate(extract_xstate(rho))
