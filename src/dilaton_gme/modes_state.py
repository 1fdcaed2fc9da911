"""Sparse register simulator for GHZ sharing across a dilaton horizon.

The register holds one fermionic qubit per mode.  Modes are labelled by
kind and 1-based index: ``F`` (flat-region observer), ``K`` (Kruskal mode
of an observer hovering near the horizon), and the two dilaton modes the
Kruskal vacuum decomposes into, ``O`` (outside the horizon) and ``I``
(inside).  A basis state is an integer whose most significant bit is the
first mode of the layout.

The pipeline is: build the GHZ state on ``[F..., K...]``, rewrite every
Kruskal mode in the dilaton basis (which entangles ``O_i`` with ``I_i``),
then trace out whichever dilaton modes are not kept.  States stay as
dictionaries keyed by basis labels — a GHZ input only ever populates
``2**n_horizon + 1`` amplitudes, so nothing here needs dense arrays; with
labels ``N + n`` bits wide the work grows as ``N * 2**n``, see :data:`SCALE_BUDGET`.
A :class:`ScenarioSpec` builds its registers once, and
:meth:`SparseDensity.pair_reductions` takes every two-mode reduction in one
pass over the entries.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from .errors import (
    InvalidDensity,
    InvalidParams,
    InvalidPartition,
    InvalidSpec,
    ScaleCap,
    UnknownMode,
    _count_text,
)
from .hawking import BogoliubovPair

__all__ = [
    "Mode",
    "flat_mode",
    "kruskal_mode",
    "out_mode",
    "in_mode",
    "ModeLayout",
    "ScenarioSpec",
    "SparseState",
    "SparseDensity",
    "build_initial_state",
    "expand_kruskal",
    "partial_trace",
    "scenario_density",
]

#: Amplitudes / matrix entries smaller than this are dropped on construction.
AMPLITUDE_TOL = 1e-15
#: Allowed deviation of the state norm (and density trace) from one.
NORM_TOL = 1e-12
#: Largest ``n_parties * 2**n_horizon`` the exact pipeline accepts, reached at (13, 11).
#: N <= 13312 keeps basis labels under Python's 4300-digit int-to-str limit.
SCALE_BUDGET = 13 * 2**11

_KIND_PREFIX = {"flat": "F", "kruskal": "K", "out": "O", "in": "I"}


@dataclass(frozen=True)
class Mode:
    """A single fermionic mode, identified by kind and 1-based index."""

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in _KIND_PREFIX:
            raise InvalidSpec(
                f"unknown mode kind {self.kind!r}; expected one of {sorted(_KIND_PREFIX)}"
            )
        if not isinstance(self.index, int) or self.index < 1:
            raise InvalidSpec(f"mode index must be a positive integer, got {self.index!r}")

    @property
    def label(self) -> str:
        return f"{_KIND_PREFIX[self.kind]}{self.index}"

    def __str__(self) -> str:
        return self.label


def flat_mode(index: int) -> Mode:
    return Mode("flat", index)


def kruskal_mode(index: int) -> Mode:
    return Mode("kruskal", index)


def out_mode(index: int) -> Mode:
    return Mode("out", index)


def in_mode(index: int) -> Mode:
    return Mode("in", index)


@dataclass(frozen=True)
class ModeLayout:
    """Ordered register of distinct modes; the first mode is the MSB."""

    modes: tuple[Mode, ...]
    _positions: dict[Mode, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise InvalidSpec("a layout needs at least one mode")
        positions = {mode: i for i, mode in enumerate(self.modes)}
        if len(positions) != len(self.modes):
            raise InvalidSpec("layout contains a duplicate mode")
        object.__setattr__(self, "_positions", positions)

    def __len__(self) -> int:
        return len(self.modes)

    def __iter__(self) -> Iterator[Mode]:
        return iter(self.modes)

    def __contains__(self, mode: Mode) -> bool:
        return mode in self._positions

    def position(self, mode: Mode) -> int:
        """Index of ``mode`` in the register, 0 for the MSB."""
        try:
            return self._positions[mode]
        except KeyError:
            raise UnknownMode(f"mode {mode} is not part of layout {self.labels()}") from None

    def bit(self, label: int, mode: Mode) -> int:
        """Occupation of ``mode`` in the basis state ``label``."""
        return (label >> (len(self.modes) - 1 - self.position(mode))) & 1

    def labels(self) -> str:
        return ",".join(m.label for m in self.modes)


def _check_theta(theta: float) -> None:
    if not (isinstance(theta, (int, float)) and math.isfinite(theta)):
        raise InvalidSpec(f"theta must be a finite number, got {theta!r}")
    if not 0.0 <= theta <= math.pi / 2:
        raise InvalidSpec(f"theta must lie in [0, pi/2], got {theta}")


@dataclass(frozen=True)
class ScenarioSpec:
    """How an N-party GHZ state is split across the horizon.

    ``n_parties`` observers share the state; the last ``n_horizon`` of them
    hover at the horizon, where each Kruskal mode splits into an ``out``
    and an ``in`` dilaton mode.  Of those horizon parties the first
    ``n_out_kept`` keep their outside mode and the remaining ``n_in_kept``
    keep their inside mode, so every party always contributes exactly one
    mode to the reduced state.  ``theta`` parametrises the GHZ weights
    ``cos(theta)`` / ``sin(theta)``.  A scenario whose ``n_parties *
    2**n_horizon`` exceeds :data:`SCALE_BUDGET` raises :class:`ScaleCap`.
    """

    n_parties: int
    n_horizon: int
    n_out_kept: int
    n_in_kept: int
    theta: float

    def __post_init__(self):
        for name in ("n_parties", "n_horizon", "n_out_kept", "n_in_kept"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidSpec(f"{name} must be an integer, got {value!r}")
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
        _check_theta(self.theta)

    def __getstate__(self) -> dict:
        # The registers are rebuilt on demand, so a pickle holds the fields only.
        return {k: v for k, v in self.__dict__.items() if k != "_registers"}

    @property
    def n_flat(self) -> int:
        return self.n_parties - self.n_horizon

    @functools.cached_property
    def _registers(self) -> tuple[ModeLayout, ModeLayout, tuple[Mode, ...]]:
        """``(kruskal layout, expanded layout, kept modes)``, built once per spec."""
        flats = tuple(flat_mode(i) for i in range(1, self.n_flat + 1))
        indices = range(1, self.n_horizon + 1)
        kruskals = tuple(kruskal_mode(i) for i in indices)
        outs = tuple(out_mode(i) for i in indices)
        ins = tuple(in_mode(i) for i in indices)
        kept = flats + outs[: self.n_out_kept] + ins[self.n_out_kept :]
        return ModeLayout(flats + kruskals), ModeLayout(flats + outs + ins), kept

    def kruskal_layout(self) -> ModeLayout:
        """Register before the horizon expansion: ``[F..., K...]``."""
        return self._registers[0]

    def expanded_layout(self) -> ModeLayout:
        """Register after the expansion: ``[F..., O..., I...]``."""
        return self._registers[1]

    def kept_modes(self) -> tuple[Mode, ...]:
        """One mode per party: flat modes, then kept out, then kept in."""
        return self._registers[2]

    def traced_modes(self) -> tuple[Mode, ...]:
        """The dilaton partners that fall behind (or outside) reach."""
        ins = tuple(in_mode(i) for i in range(1, self.n_out_kept + 1))
        outs = tuple(out_mode(i) for i in range(self.n_out_kept + 1, self.n_horizon + 1))
        return ins + outs


@dataclass(frozen=True)
class SparseState:
    """Normalised pure state as ``{basis label: real amplitude}``."""

    layout: ModeLayout
    amplitudes: Mapping[int, float]

    def __post_init__(self):
        dim = 1 << len(self.layout)
        cleaned: dict[int, float] = {}
        for label, amp in self.amplitudes.items():
            if not isinstance(label, int) or not 0 <= label < dim:
                raise InvalidParams(
                    f"basis label {label!r} outside [0, {dim}) for layout {self.layout.labels()}"
                )
            value = float(amp)
            if abs(value) >= AMPLITUDE_TOL:
                cleaned[label] = value
        object.__setattr__(self, "amplitudes", cleaned)
        norm_sq = math.fsum(a * a for a in cleaned.values())
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise InvalidParams(f"state norm**2 deviates from 1 by {norm_sq - 1.0:.3e}")

    def norm(self) -> float:
        return math.sqrt(math.fsum(a * a for a in self.amplitudes.values()))

    def amplitude(self, label: int) -> float:
        return self.amplitudes.get(label, 0.0)


@dataclass(frozen=True)
class SparseDensity:
    """Real symmetric density matrix stored as its upper triangle.

    Entries are ``{(row, col): value}`` with ``row <= col``; the mirrored
    element is implied.  Construction accepts redundant mirrored keys as
    long as they agree and checks unit trace and non-negative diagonal.
    Exact zeros are not stored, but small entries are kept: amplitudes of
    order ``sqrt(eps)`` produce populations of order ``eps``, and dropping
    a population while its coherence survives would wreck positivity.
    """

    layout: ModeLayout
    entries: Mapping[tuple[int, int], float]

    def __post_init__(self):
        dim = 1 << len(self.layout)
        canonical: dict[tuple[int, int], float] = {}
        for (row, col), value in self.entries.items():
            if not (0 <= row < dim and 0 <= col < dim):
                raise InvalidDensity(
                    f"entry ({row}, {col}) outside [0, {dim})**2 for layout "
                    f"{self.layout.labels()}"
                )
            key = (row, col) if row <= col else (col, row)
            value = float(value)
            if key in canonical and abs(canonical[key] - value) > 1e-12:
                raise InvalidDensity(
                    f"asymmetric values for entry {key}: "
                    f"{canonical[key]!r} vs {value!r}"
                )
            canonical.setdefault(key, value)
        canonical = {k: v for k, v in canonical.items() if v != 0.0}
        object.__setattr__(self, "entries", canonical)
        trace = math.fsum(v for (r, c), v in canonical.items() if r == c)
        if abs(trace - 1.0) > NORM_TOL:
            raise InvalidDensity(f"trace deviates from 1 by {trace - 1.0:.3e}")
        for (r, c), v in canonical.items():
            if r == c and v < -1e-14:
                raise InvalidDensity(f"negative diagonal entry {v!r} at ({r}, {r})")

    def value(self, row: int, col: int) -> float:
        key = (row, col) if row <= col else (col, row)
        return self.entries.get(key, 0.0)

    def trace(self) -> float:
        return math.fsum(v for (r, c), v in self.entries.items() if r == c)

    def purity(self) -> float:
        """``Tr rho**2``; off-diagonal entries count twice."""
        return math.fsum(
            (v * v if r == c else 2.0 * v * v) for (r, c), v in self.entries.items()
        )

    def reduce(self, keep: Sequence[Mode]) -> "SparseDensity":
        """Partial trace onto ``keep`` (result ordered as given)."""
        shifts, traced_mask = _split_positions(self.layout, keep)
        acc: dict[tuple[int, int], list[float]] = {}
        for (row, col), value in self.entries.items():
            if (row ^ col) & traced_mask:
                continue
            rk, ck = _gather(row, shifts), _gather(col, shifts)
            key = (rk, ck) if rk <= ck else (ck, rk)
            acc.setdefault(key, []).append(value)
        entries = {key: math.fsum(values) for key, values in acc.items()}
        return SparseDensity(ModeLayout(tuple(keep)), entries)

    def pair_reductions(self) -> dict[tuple[Mode, Mode], "SparseDensity"]:
        """``reduce((mode_i, mode_j))`` for every pair ``i < j``, from one scan.

        An entry survives the trace onto a pair only when its row and column
        differ on no other mode: a diagonal entry feeds every pair, one that
        differs on a single mode the pairs through it, one that differs on two
        modes that pair alone, and any other entry no pair.
        """
        modes = self.layout.modes
        top = len(modes) - 1
        pairs = list(itertools.combinations(range(len(modes)), 2))
        through = [[(i, j) for i, j in pairs if k in (i, j)] for k in range(len(modes))]
        acc: dict[tuple[int, int], dict] = {pair: {} for pair in pairs}
        for (row, col), value in self.entries.items():
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
                acc[i, j].setdefault(key, []).append(value)
        return {
            (modes[i], modes[j]): SparseDensity(
                ModeLayout((modes[i], modes[j])),
                {key: math.fsum(values) for key, values in sums.items()},
            )
            for (i, j), sums in acc.items()
        }


def _split_positions(layout: ModeLayout, keep: Sequence[Mode]) -> tuple[list[int], int]:
    """Shifts of the kept bits, in ``keep`` order, and the mask of the traced bits."""
    kept = tuple(keep)
    if not kept:
        raise InvalidPartition("must keep at least one mode")
    if len(set(kept)) != len(kept):
        raise InvalidPartition("kept modes contain a duplicate")
    try:
        kept_pos = [layout.position(mode) for mode in kept]
    except UnknownMode as exc:
        raise InvalidPartition(str(exc)) from None
    kept_set = set(kept_pos)
    traced_mask = int("".join("0" if i in kept_set else "1" for i in range(len(layout))), 2)
    return [len(layout) - 1 - pos for pos in kept_pos], traced_mask


def _gather(label: int, shifts: list[int]) -> int:
    """The bits of ``label`` at ``shifts``, in that order, as one word."""
    kept = 0
    for shift in shifts:
        kept = (kept << 1) | ((label >> shift) & 1)
    return kept


def partial_trace(state: SparseState, keep: Sequence[Mode]) -> SparseDensity:
    """Reduced density matrix of a pure state on the ``keep`` modes.

    Amplitude pairs contribute only when they agree on every traced mode,
    so the work is grouping the (few) amplitudes by their traced bits.
    """
    shifts, traced_mask = _split_positions(state.layout, keep)
    groups: dict[int, list[tuple[int, float]]] = {}
    for label, amp in state.amplitudes.items():
        groups.setdefault(label & traced_mask, []).append((_gather(label, shifts), amp))
    acc: dict[tuple[int, int], list[float]] = {}
    for members in groups.values():
        for i, (k1, a1) in enumerate(members):
            acc.setdefault((k1, k1), []).append(a1 * a1)
            for k2, a2 in members[i + 1 :]:
                key = (k1, k2) if k1 <= k2 else (k2, k1)
                acc.setdefault(key, []).append(a1 * a2)
    entries = {key: math.fsum(values) for key, values in acc.items()}
    return SparseDensity(ModeLayout(tuple(keep)), entries)


def build_initial_state(spec: ScenarioSpec) -> SparseState:
    """GHZ state ``cos(theta)|0...0> + sin(theta)|1...1>`` on ``[F..., K...]``."""
    top = (1 << spec.n_parties) - 1
    amps = {0: math.cos(spec.theta), top: math.sin(spec.theta)}
    return SparseState(spec.kruskal_layout(), amps)


def expand_kruskal(
    state: SparseState, pair: BogoliubovPair, spec: ScenarioSpec
) -> SparseState:
    """Rewrite every Kruskal mode in the dilaton basis.

    An empty Kruskal mode becomes ``alpha|0_O 0_I> + beta|1_O 1_I>``; an
    occupied one becomes ``|1_O 0_I>``.  The result lives on
    ``[F..., O..., I...]`` with the flat amplitudes untouched.
    """
    if state.layout != spec.kruskal_layout():
        raise InvalidSpec(
            f"state layout {state.layout.labels()} does not match the scenario "
            f"layout {spec.kruskal_layout().labels()}"
        )
    n = spec.n_horizon
    empty_branches = ((0, 0, pair.alpha), (1, 1, pair.beta))
    occupied_branch = ((1, 0, 1.0),)
    amps: dict[int, float] = {}
    for label, amp in state.amplitudes.items():
        flat_bits = label >> n
        k_bits = [(label >> (n - 1 - i)) & 1 for i in range(n)]
        options = [empty_branches if b == 0 else occupied_branch for b in k_bits]
        for combo in itertools.product(*options):
            out_bits = 0
            in_bits = 0
            coeff = amp
            for o_bit, i_bit, weight in combo:
                out_bits = (out_bits << 1) | o_bit
                in_bits = (in_bits << 1) | i_bit
                coeff *= weight
            new_label = (flat_bits << (2 * n)) | (out_bits << n) | in_bits
            amps[new_label] = amps.get(new_label, 0.0) + coeff
    return SparseState(spec.expanded_layout(), amps)


def scenario_density(spec: ScenarioSpec, pair: BogoliubovPair) -> SparseDensity:
    """Reduced state of the N parties after the horizon expansion.

    Builds the GHZ state, expands the Kruskal modes, and traces out the
    unreachable dilaton partners, keeping one mode per party.
    """
    state = expand_kruskal(build_initial_state(spec), pair, spec)
    return partial_trace(state, spec.kept_modes())
