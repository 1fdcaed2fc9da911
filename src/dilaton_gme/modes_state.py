"""Sparse register simulator for GHZ sharing across a dilaton horizon.

The register holds one fermionic qubit per mode.  A mode is its label
string: a kind letter and a 1-based index, ``F`` (flat-region observer)
and the two dilaton modes the Kruskal mode of an observer hovering near
the horizon decomposes into, ``O`` (outside the horizon) and ``I``
(inside), as in ``"F1"`` or ``"I4"``.  A basis state is an integer whose
most significant bit is the first mode of the layout.

The pipeline is: write the parties' GHZ state with every Kruskal mode
already in the dilaton basis (which entangles ``O_i`` with ``I_i``), then
trace out whichever dilaton modes are not kept.  States stay as
dictionaries keyed by basis labels — a GHZ input only ever populates
``2**n_horizon + 1`` amplitudes, so nothing here needs dense arrays.
A :class:`ScenarioSpec` builds its register once, in O(N), together with
its trace plan, worked out in O(1) from its counts: the kept layout, the
mask of the traced bits and the runs of consecutive kept bits, the same
plan that :func:`partial_trace` builds by looking each kept mode up.
Each scenario point then costs O(2**n) operations on its labels, whatever
the party count; see :data:`SCALE_BUDGET`.  Each container checks its
input in one pass, under the count and real-number rules of
:mod:`dilaton_gme.errors`, and stores a layout given as a plain sequence
of labels as a :class:`ModeLayout`.  The containers round nothing away:
they keep every non-zero value they are given and drop exact zeros, and
a :class:`SparseDensity` takes its upper triangle only.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, Mapping, Sequence

from .errors import (
    InvalidDensity,
    InvalidParams,
    InvalidPartition,
    InvalidSpec,
    ScaleCap,
    _count_text,
)
from .errors import _check_count, _is_index, _items, _real, _sequence
from .hawking import BogoliubovPair, _check_theta, _Value

#: Allowed deviation of the state norm (and density trace) from one.
NORM_TOL = 1e-12
#: Lowest value a population may take: rounding can leave a true zero just below it.
POPULATION_FLOOR = -1e-14
#: Largest ``n_parties * 2**n_horizon`` the exact pipeline accepts, reached at (13, 11).
#: N <= 13312 keeps basis labels under Python's 4300-digit int-to-str limit.
SCALE_BUDGET = 13 * 2**11


def flat_mode(index: int) -> str:
    """The label of flat mode ``index`` (1-based): ``"F1"``, ``"F2"``, ..."""
    if not _is_index(index) or index < 1:
        raise InvalidSpec(f"mode index must be a positive integer, got {_count_text(index)}")
    return f"F{index}"


class ModeLayout(_Value):
    """Ordered register of distinct modes; the first mode is the MSB."""

    __slots__ = ("modes",)

    def __init__(self, modes: Sequence[str]):
        object.__setattr__(self, "modes", modes)
        self.__post_init__()

    def __post_init__(self):
        modes = _sequence(self.modes, InvalidSpec, "modes")
        object.__setattr__(self, "modes", modes)
        if not modes:
            raise InvalidSpec("a layout needs at least one mode")
        for mode in modes:
            if not isinstance(mode, str):
                raise InvalidSpec(f"a mode is its label string, got {mode!r}")
        if len(set(modes)) != len(modes):
            raise InvalidSpec("layout contains a duplicate mode")

    def __len__(self) -> int:
        return len(self.modes)

    def __iter__(self) -> Iterator[str]:
        return iter(self.modes)

    def labels(self) -> str:
        return ",".join(self.modes)


#: How to trace a register onto some of its modes: ``(kept layout, traced
#: mask, runs)``.  Each run ``(shift, width, mask)`` is a stretch of
#: ``width`` kept bits that sit next to each other, in the same order, in
#: both registers, its lowest bit at ``shift``; the runs come in kept order.
TracePlan = tuple[ModeLayout, int, tuple[tuple[int, int, int], ...]]


class ScenarioSpec(_Value):
    """How an N-party GHZ state is split across the horizon.

    ``n_parties`` observers share ``cos(theta)|0...0> + sin(theta)|1...1>``;
    the last ``n_horizon`` of them hover at the horizon, where each Kruskal
    mode splits into an ``out`` and an ``in`` dilaton mode.  Of those
    horizon parties the first ``n_out_kept`` keep their outside mode and
    the remaining ``n_in_kept`` keep their inside mode, so every party
    always contributes exactly one mode to the reduced state.  The spec
    builds one register, the expanded ``[F..., O..., I...]``, and its
    trace plan onto the kept modes.  A scenario whose
    ``n_parties * 2**n_horizon`` exceeds :data:`SCALE_BUDGET` raises
    :class:`ScaleCap`.
    """

    # The ``__dict__`` holds the cached registers and the verify suites' memo.
    __slots__ = ("n_parties", "n_horizon", "n_out_kept", "n_in_kept", "theta", "__dict__")

    def __init__(self, n_parties: int, n_horizon: int, n_out_kept: int, n_in_kept: int, theta: float):
        object.__setattr__(self, "n_parties", n_parties)
        object.__setattr__(self, "n_horizon", n_horizon)
        object.__setattr__(self, "n_out_kept", n_out_kept)
        object.__setattr__(self, "n_in_kept", n_in_kept)
        object.__setattr__(self, "theta", theta)
        self.__post_init__()

    def __post_init__(self):
        for name in ("n_parties", "n_horizon", "n_out_kept", "n_in_kept"):
            _check_count(name, getattr(self, name), InvalidSpec)
        if self.n_parties < 2:
            raise InvalidSpec(f"need at least two parties, got {_count_text(self.n_parties)}")
        if not 1 <= self.n_horizon < self.n_parties:
            raise InvalidSpec(
                f"n_horizon must lie in [1, n_parties), got {_count_text(self.n_horizon)} "
                f"for {_count_text(self.n_parties)} parties"
            )
        if self.n_parties > SCALE_BUDGET >> self.n_horizon:  # never builds 2**n_horizon
            raise ScaleCap(
                f"n_parties * 2**n_horizon = {_count_text(self.n_parties)} * "
                f"2**{_count_text(self.n_horizon)} exceeds the exact pipeline's budget of "
                f"{SCALE_BUDGET}"
            )
        if self.n_out_kept < 0 or self.n_in_kept < 0:
            raise InvalidSpec("kept mode counts must be non-negative")
        if self.n_out_kept + self.n_in_kept != self.n_horizon:
            raise InvalidSpec(
                f"kept out + in modes must equal n_horizon: {_count_text(self.n_out_kept)} "
                f"+ {_count_text(self.n_in_kept)} != {_count_text(self.n_horizon)}"
            )
        object.__setattr__(self, "theta", _check_theta(self.theta))

    @property
    def n_flat(self) -> int:
        return self.n_parties - self.n_horizon

    @functools.cached_property
    def _registers(self) -> tuple[ModeLayout, TracePlan]:
        """``(expanded layout, trace plan)``, built once per spec.

        The plan traces the expanded register onto :meth:`kept_modes`.  It
        is the one :func:`_plan` builds, worked out from ``(n_flat, n, p)``
        alone: the flats and the kept outs are the top ``n_flat + p`` bits,
        from shift ``2n - p`` up, and the kept ins the lowest ``n - p``;
        the traced outs and ins between them are the ``n`` bits from shift
        ``n - p`` up.
        """
        n_flat, n, p = self.n_flat, self.n_horizon, self.n_out_kept
        # The fields are checked integers, so the labels need no mode factory.
        flats = tuple([f"F{i}" for i in range(1, n_flat + 1)])
        indices = range(1, n + 1)
        outs = tuple([f"O{i}" for i in indices])
        ins = tuple([f"I{i}" for i in indices])
        expanded = ModeLayout(flats + outs + ins)
        runs = ((2 * n - p, n_flat + p, (1 << (n_flat + p)) - 1),)
        if p < n:
            runs += ((0, n - p, (1 << (n - p)) - 1),)
        return expanded, (ModeLayout(flats + outs[:p] + ins[p:]), ((1 << n) - 1) << (n - p), runs)

    def expanded_layout(self) -> ModeLayout:
        """Register after the expansion: ``[F..., O..., I...]``."""
        return self._registers[0]

    def kept_modes(self) -> tuple[str, ...]:
        """One mode per party: flat modes, then kept out, then kept in."""
        return self._registers[1][0].modes


class SparseState(_Value):
    """Normalised pure state as ``{basis label: real amplitude}``."""

    __slots__ = ("layout", "amplitudes")

    def __init__(self, layout: ModeLayout, amplitudes: Mapping[int, float]):
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "amplitudes", amplitudes)
        self.__post_init__()

    def __post_init__(self):
        if type(self.layout) is not ModeLayout:
            object.__setattr__(self, "layout", ModeLayout(self.layout))
        dim = 1 << len(self.layout)
        cleaned: dict[int, float] = {}
        squares: list[float] = []
        for label, amp in _items(self.amplitudes, InvalidParams, "amplitudes"):
            if not (_is_index(label) and 0 <= label < dim):
                raise InvalidParams(
                    f"basis label {_count_text(label)} outside [0, {_count_text(dim)}) for layout "
                    f"{self.layout.labels()}"
                )
            value = amp if type(amp) is float else _real(
                amp, InvalidParams, f"amplitude at basis label {_count_text(label)}"
            )
            if value:  # a NaN is kept, for the norm check to name
                cleaned[label] = value
                squares.append(value * value)
        object.__setattr__(self, "amplitudes", cleaned)
        norm_sq = math.fsum(squares)
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            for label, value in cleaned.items():
                if value != value:
                    raise InvalidParams(f"amplitude at basis label {_count_text(label)} is nan")
            raise InvalidParams(f"state norm**2 deviates from 1 by {norm_sq - 1.0:.3e}")


class SparseDensity(_Value):
    """Real symmetric density matrix stored as its upper triangle.

    Entries are ``{(row, col): value}`` with ``row <= col``; the mirrored
    element is implied, and a key below the diagonal is refused.
    Construction checks unit trace and non-negative diagonal, and refuses
    an entry off the diagonal above 1 in magnitude, which no trace-one
    positive matrix has (``|rho_ij| <= sqrt(rho_ii rho_jj) <= 1/2``); so
    every sum of its entries stays finite.  Exact zeros
    are not stored, but every other value is kept, however small:
    amplitudes of order ``sqrt(eps)`` produce populations of order ``eps``,
    and dropping a population while its coherence survives would wreck
    positivity.
    """

    __slots__ = ("layout", "entries")

    def __init__(self, layout: ModeLayout, entries: Mapping[tuple[int, int], float]):
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "entries", entries)
        self.__post_init__()

    def __post_init__(self):
        if type(self.layout) is not ModeLayout:
            object.__setattr__(self, "layout", ModeLayout(self.layout))
        dim = 1 << len(self.layout)
        stored: dict[tuple[int, int], float] = {}
        diagonal: list[float] = []
        negative = None  # the first diagonal entry below POPULATION_FLOOR, reported after the trace
        for key, value in _items(self.entries, InvalidDensity, "entries"):
            try:
                row, col = key
            except (TypeError, ValueError):
                raise InvalidDensity(f"entry key {_count_text(key)} is not a (row, col) pair") from None
            if not (_is_index(row) and _is_index(col) and 0 <= row < dim and 0 <= col < dim):
                raise InvalidDensity(
                    f"entry ({_count_text(row)}, {_count_text(col)}) outside "
                    f"[0, {_count_text(dim)})**2 for layout {self.layout.labels()}"
                )
            if row > col:
                raise InvalidDensity(
                    f"entry ({_count_text(row)}, {_count_text(col)}) lies below the diagonal; "
                    "give the upper triangle (row <= col)"
                )
            value = value if type(value) is float else _real(
                value, InvalidDensity, f"entry ({_count_text(row)}, {_count_text(col)})"
            )
            if value - value:  # NaN for a NaN or an infinity, else 0.0
                raise InvalidDensity(
                    f"entry ({_count_text(row)}, {_count_text(col)}) = {value!r} is not finite"
                )
            if row == col:
                diagonal.append(value)
                if value < POPULATION_FLOOR and negative is None:
                    at = _count_text(row)
                    negative = f"negative diagonal entry {value!r} at ({at}, {at})"
            elif not -1.0 <= value <= 1.0:
                raise InvalidDensity(
                    f"off-diagonal entry ({_count_text(row)}, {_count_text(col)}) = {value!r} "
                    "exceeds 1 in magnitude"
                )
            if value:
                stored[key] = value
        object.__setattr__(self, "entries", stored)
        trace = math.fsum(diagonal)
        if abs(trace - 1.0) > NORM_TOL:
            raise InvalidDensity(f"trace deviates from 1 by {trace - 1.0:.3e}")
        if negative is not None:
            raise InvalidDensity(negative)

    def purity(self) -> float:
        """``Tr rho**2``; off-diagonal entries count twice."""
        return math.fsum(
            (v * v if r == c else 2.0 * v * v) for (r, c), v in self.entries.items()
        )

    def reduce(self, keep: Sequence[str]) -> "SparseDensity":
        """Partial trace onto ``keep`` (result ordered as given)."""
        layout, traced_mask, runs = _plan(self.layout, keep)
        acc: dict[tuple[int, int], list[float]] = {}
        for (row, col), value in self.entries.items():
            if (row ^ col) & traced_mask:
                continue
            rk, ck = _gather(row, runs), _gather(col, runs)
            key = (rk, ck) if rk <= ck else (ck, rk)
            acc.setdefault(key, []).append(value)
        entries = {key: math.fsum(values) for key, values in acc.items()}
        return SparseDensity(layout, entries)


def _plan(layout: ModeLayout, keep: Sequence[str]) -> TracePlan:
    """The :data:`TracePlan` from ``layout`` onto ``keep``, in ``keep`` order."""
    kept = _sequence(keep, InvalidPartition, "kept modes")
    if not kept:
        raise InvalidPartition("must keep at least one mode")
    top = len(layout) - 1
    shift_of = {mode: top - i for i, mode in enumerate(layout.modes)}
    shifts = []
    try:
        for mode in kept:
            shifts.append(shift_of[mode])
    except (KeyError, TypeError):  # a TypeError for an unhashable mode
        raise InvalidPartition(f"mode {mode} is not part of layout {layout.labels()}") from None
    try:
        kept_layout = ModeLayout(kept)
    except InvalidSpec:  # every kept mode is a label of ``layout``, so one repeats
        raise InvalidPartition("kept modes contain a duplicate") from None
    spans: list[list[int]] = []  # [lowest shift, width] per run
    for shift in shifts:
        if spans and spans[-1][0] == shift + 1:
            spans[-1][0] = shift
            spans[-1][1] += 1
        else:
            spans.append([shift, 1])
    runs = tuple((shift, width, (1 << width) - 1) for shift, width in spans)
    kept_mask = sum(mask << shift for shift, _, mask in runs)
    return kept_layout, ((1 << len(layout)) - 1) ^ kept_mask, runs


def _gather(label: int, runs: tuple[tuple[int, int, int], ...]) -> int:
    """The kept bits of ``label``, run by run, as one word."""
    kept = 0
    for shift, width, mask in runs:
        kept = (kept << width) | ((label >> shift) & mask)
    return kept


def partial_trace(state: SparseState, keep: Sequence[str]) -> SparseDensity:
    """Reduced density matrix of a pure state on the ``keep`` modes.

    Amplitude pairs contribute only when they agree on every traced mode,
    so the work is grouping the (few) amplitudes by their traced bits.
    """
    return _trace(state, _plan(state.layout, keep))


def _trace(state: SparseState, plan: TracePlan) -> SparseDensity:
    """:func:`partial_trace` along a plan built for ``state.layout``.

    One pass lists every ``(key, product)``.  A key met once keeps its
    product, and a repeated key sums its products with ``math.fsum``; no
    key repeats in a scenario state, whose one coherent group holds two
    labels that differ on their flat bits.
    """
    layout, traced_mask, runs = plan
    groups: dict[int, list[tuple[int, float]]] = {}
    for label, amp in state.amplitudes.items():
        kept = 0
        for shift, width, mask in runs:
            kept = (kept << width) | ((label >> shift) & mask)
        groups.setdefault(label & traced_mask, []).append((kept, amp))
    keys: list[tuple[int, int]] = []
    terms: list[float] = []
    for members in groups.values():
        for i, (k1, a1) in enumerate(members):
            keys.append((k1, k1))
            terms.append(a1 * a1)
            for k2, a2 in members[i + 1 :]:
                keys.append((k1, k2) if k1 <= k2 else (k2, k1))
                terms.append(a1 * a2)
    entries = dict(zip(keys, terms))
    if len(entries) < len(keys):
        acc: dict[tuple[int, int], list[float]] = {}
        for key, term in zip(keys, terms):
            acc.setdefault(key, []).append(term)
        entries = {key: math.fsum(values) for key, values in acc.items()}
    return SparseDensity(layout, entries)


def expand_kruskal(spec: ScenarioSpec, pair: BogoliubovPair) -> SparseState:
    """The spec's GHZ state with every Kruskal mode in the dilaton basis.

    An empty Kruskal mode becomes ``alpha|0_O 0_I> + beta|1_O 1_I>``; an
    occupied one becomes ``|1_O 0_I>``.  So ``cos(theta)|0...0>`` spreads
    over the ``2**n`` labels whose out bits equal their in bits, and
    ``sin(theta)|1...1>`` is the one label with every flat and out bit
    set.  The result lives on ``[F..., O..., I...]``.
    """
    n = spec.n_horizon
    coeffs = [math.cos(spec.theta)]
    for _ in range(n):  # the first horizon mode is the most significant bit
        coeffs = [c * w for c in coeffs for w in (pair.alpha, pair.beta)]
    amps = {(s << n) | s: c for s, c in enumerate(coeffs)}
    amps[((1 << spec.n_flat) - 1) << 2 * n | ((1 << n) - 1) << n] = math.sin(spec.theta)
    return SparseState(spec.expanded_layout(), amps)


def scenario_density(spec: ScenarioSpec, pair: BogoliubovPair) -> SparseDensity:
    """Reduced state of the N parties after the horizon expansion.

    Expands the spec's GHZ state and traces out the unreachable dilaton
    partners, keeping one mode per party.
    """
    return _trace(expand_kruskal(spec, pair), spec._registers[1])
