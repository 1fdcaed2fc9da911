"""Cross-checks between the oracle pipeline and the closed forms.

Each check sweeps a parameter grid and keeps its errors in one list.  Its
worst error is the first NaN, else the first largest absolute error; only
that error's inputs are built, and the check passes when it stays within
its tolerance.  Reports serialise to the JSON shape used by the command
line: one object per check with hyphenated field names.

:func:`oracle_compare` and :func:`relationship_suite` take every point
from one helper, which simulates it once per spec object: the spec keeps
its last point's parameters, pair, density and entanglement, so the
second suite over a grid reads the densities the first one built.  The
memo lives and dies with the spec object; an equal spec built apart, or
the same spec at other parameters, simulates afresh.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

from .analytic import (
    _binomial_sums,
    e_general,
    e_grid,
    monogamy_residual,
    peak_dilaton,
)
from .errors import InvalidParams, _check_count, _count_text, _sequence
from .gme import gme_xstate, pair_entanglement
from .hawking import BlackHoleParams, BogoliubovGrid, _power_rows, _Value, bogoliubov, dilaton_grid
from .modes_state import ScenarioSpec, SparseDensity, scenario_density
from .xstate import build_block_matrix, extract_xstate

GridPoint = tuple[ScenarioSpec, BlackHoleParams]

ORACLE_TOL = 1e-10
ENTRYWISE_TOL = 1e-13
RELATION_TOL = 1e-12

# Every check runs at M = omega = 1, so a dilaton is also its fraction of M.
_DEFAULT_THETAS = (math.pi / 12, math.pi / 6, math.pi / 4, 0.4 * math.pi)
_DEFAULT_DILATONS = (0.0, 0.3, 0.6, 0.9, 1.0)
_RULE_THETAS = (math.pi / 12, math.pi / 6, math.pi / 4)
_RULE_DILATONS = (0.0, 0.5, 0.9, 1.0)
_RULE_HORIZONS = range(1, 17)


class VerificationCheck(_Value):
    __slots__ = ("name", "grid_size", "max_abs_error", "tolerance", "status", "worst_case_inputs")

    def __init__(self, name: str, grid_size: int, max_abs_error: float, tolerance: float, status: str,
                 worst_case_inputs: Optional[dict]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "grid_size", grid_size)
        object.__setattr__(self, "max_abs_error", max_abs_error)
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "worst_case_inputs", worst_case_inputs)

    def as_json_dict(self) -> dict:
        return {
            "name": self.name,
            "grid-size": self.grid_size,
            # JSON has no NaN or infinity; such an error has already failed its check.
            "max-abs-error": self.max_abs_error if math.isfinite(self.max_abs_error) else None,
            "tolerance": self.tolerance,
            "status": self.status,
            "worst-case-inputs": self.worst_case_inputs,
        }


class VerificationReport(_Value):
    __slots__ = ("checks",)

    def __init__(self, checks: tuple[VerificationCheck, ...]):
        object.__setattr__(self, "checks", checks)

    @property
    def passed(self) -> bool:
        return all(check.status == "pass" for check in self.checks)

    def as_json(self) -> list[dict]:
        return [check.as_json_dict() for check in self.checks]

    def merged_with(self, other: "VerificationReport") -> "VerificationReport":
        return VerificationReport(self.checks + other.checks)


def _check(
    name: str,
    grid_size: int,
    tolerance: float,
    errors: Iterable[float],
    inputs_of: Callable[[int], dict],
) -> VerificationCheck:
    """The check of ``errors`` at its worst: the first NaN, else the first largest ``|error|``.

    ``inputs_of(index)`` builds the inputs of that one error only; an empty
    list reads as ``0.0`` with no inputs and builds none.
    """
    errors = list(map(abs, errors))
    error, inputs = 0.0, None
    if errors:
        nans = [value != value for value in errors]
        index = nans.index(True) if True in nans else errors.index(max(errors))
        error, inputs = errors[index], inputs_of(index)
    status = "pass" if error <= tolerance else "fail"
    return VerificationCheck(name, grid_size, error, tolerance, status, inputs)


def _grid_points(grid: Iterable[GridPoint]) -> tuple[GridPoint, ...]:
    """The grid's items, each checked to be a point."""
    points = _sequence(grid, InvalidParams, "grid")
    for index, item in enumerate(points):
        if type(item) is not tuple:
            got = type(item).__name__
        elif len(item) == 2 and isinstance(item[0], ScenarioSpec) and isinstance(item[1], BlackHoleParams):
            continue
        else:
            got = f"({', '.join(type(x).__name__ for x in item)})"
        raise InvalidParams(f"grid item {index} must be a (ScenarioSpec, BlackHoleParams) pair, got {got}")
    return points


def _describe(points: Sequence[GridPoint], index: int) -> dict:
    """The inputs of grid point ``index``."""
    spec, params = points[index]
    return {
        "n-parties": spec.n_parties,
        "n-horizon": spec.n_horizon,
        "n-out-kept": spec.n_out_kept,
        "n-in-kept": spec.n_in_kept,
        "theta": spec.theta,
        "mass": params.mass,
        "dilaton": params.dilaton,
        "omega": params.omega,
    }


def default_oracle_grid(max_parties: int = 6, max_horizon: int = 4) -> list[GridPoint]:
    """Every scenario with N <= max_parties, n <= max_horizon, all splits, at M = omega = 1."""
    _check_count("max_parties", max_parties, InvalidParams)
    _check_count("max_horizon", max_horizon, InvalidParams)
    # Either bound below its least scenario would leave an empty grid, which every check passes.
    if max_parties < 2:
        raise InvalidParams(f"max_parties must be at least 2, got {_count_text(max_parties)}")
    if max_horizon < 1:
        raise InvalidParams(f"max_horizon must be at least 1, got {_count_text(max_horizon)}")
    grid: list[GridPoint] = []
    for n_parties in range(2, max_parties + 1):
        for n_horizon in range(1, min(max_horizon, n_parties - 1) + 1):
            for n_out in range(n_horizon + 1):
                for theta in _DEFAULT_THETAS:
                    for dilaton in _DEFAULT_DILATONS:
                        spec = ScenarioSpec(
                            n_parties=n_parties,
                            n_horizon=n_horizon,
                            n_out_kept=n_out,
                            n_in_kept=n_horizon - n_out,
                            theta=theta,
                        )
                        grid.append((spec, BlackHoleParams(1.0, dilaton, 1.0)))
    return grid


def _oracle_point(spec: ScenarioSpec, params: BlackHoleParams) -> tuple:
    """``(pair, rho, E, x)`` of one grid point, simulated once per spec object and params.

    The spec keeps its last point as ``(params, pair, rho, E)`` in its
    instance dict, beside its cached registers, and that memo serves a
    later call with equal ``params``; a point whose simulation raises
    leaves none.  ``x`` is the point's X-state when it is simulated here
    and ``None`` when it comes from the memo, which keeps no X-state:
    only :func:`oracle_compare` reads it.
    """
    memo = spec.__dict__.get("_oracle_memo")
    if memo is not None and (memo[0] is params or memo[0] == params):
        return (*memo[1:], None)
    pair = bogoliubov(params)
    rho = scenario_density(spec, pair)
    x = extract_xstate(rho)
    e = gme_xstate(x)
    spec.__dict__["_oracle_memo"] = (params, pair, rho, e)
    return pair, rho, e, x


def oracle_compare(grid: Iterable[GridPoint]) -> VerificationReport:
    """Exact pipeline vs. closed form, plus the dual block construction.

    Check ``oracle-vs-analytic`` compares the entanglement from the
    simulated reduced state against ``sin(2 theta) alpha**p beta**q``;
    ``dual-construction`` compares that state's blocks entry by entry
    against :func:`build_block_matrix`, a block missing on one side
    reading as zero.
    """
    points = _grid_points(grid)
    e_errors: list[float] = []
    dual_errors: list[float] = []
    zero = (0.0, 0.0, 0.0)
    for spec, params in points:
        pair, rho, e_oracle, from_oracle = _oracle_point(spec, params)
        if from_oracle is None:  # the point came from the spec's memo
            from_oracle = extract_xstate(rho)
        e_errors.append(e_oracle - e_general(spec.theta, pair, spec.n_out_kept, spec.n_in_kept))
        ours, theirs = from_oracle.blocks, build_block_matrix(spec, pair).blocks
        dual_errors.append(max([
            abs(x - y)
            for i in ours.keys() | theirs.keys()
            for x, y in zip(ours.get(i, zero), theirs.get(i, zero))
        ]))
    point_inputs = partial(_describe, points)
    return VerificationReport(
        (
            _check("oracle-vs-analytic", len(points), ORACLE_TOL, e_errors, point_inputs),
            _check("dual-construction", len(points), ENTRYWISE_TOL, dual_errors, point_inputs),
        )
    )


def _rule_inputs(horizons: Sequence[int], index: int) -> dict:
    """The inputs of sum ``index`` of a rule at ``horizons``, in the kernel's (theta, dilaton, n) order."""
    point, at = divmod(index, len(horizons))
    theta, dilaton = divmod(point, len(_RULE_DILATONS))
    return {
        "n-horizon": horizons[at],
        "theta": _RULE_THETAS[theta],
        "mass": 1.0,
        "dilaton": _RULE_DILATONS[dilaton],
        "omega": 1.0,
    }


def relationship_suite(grid: Iterable[GridPoint]) -> VerificationReport:
    """Distribution and monogamy identities.

    Each check keeps its errors in one list and builds only its worst
    point's inputs; each pair score keeps the index of the point it came
    from, so ``pairwise-zero`` names that point.

    * ``sum-rule-quadratic`` / ``sum-rule-linear``: binomial identities
      over mode splits, evaluated purely from the closed form, for
      ``n = 1 .. 16``, dilatons ``(0, 0.5, 0.9, 1)`` and theta ``pi/12``,
      ``pi/6`` and ``pi/4`` at ``M = omega = 1``.  Per dilaton, one table
      of rows ``alpha**(n-k) * beta**k`` serves every theta and both rules,
      the quadratic rule reading all of each row and the linear rule the
      even entries of the even ``n``; each rule is one kernel call on the
      rows of all four dilatons laid end to end, and its errors are read
      straight off the kernel's sums, in (theta, dilaton, n) order.
    * ``pairwise-zero``: every two-party reduction of every oracle-grid
      state (three or more parties) carries no entanglement.  An entry
      survives the trace onto a pair only when its row and column differ
      on no other mode, so a density with no off-diagonal entry on one or
      two modes has only diagonal pair reductions.  A diagonal two-qubit
      state is a mixture of product states, hence separable (Werner, PRA
      40, 4277 (1989)), and the X-state formula gives exactly ``0`` on it
      (Hashemi Rafsanjani et al., PRA 86, 062303 (2012)).  So one scan of
      the entries certifies the point, which scores one ``0.0``; for
      ``N >= 3`` a scenario state's one coherence differs on all ``N``
      modes, so every grid point is certified.  A point that is not scores
      each pair ``i < j`` in ``combinations`` order as
      ``pair_entanglement(rho.reduce(pair))``, and the first pair that
      fails raises.
    * ``monogamy``: the full E**2 minus the squared pair terms of the
      first mode, the first ``N - 1`` pair scores, matches the closed-form
      residual.  On a certified point the pair sum is ``0.0``, so the
      check reads ``E_oracle**2 - residual``: it overlaps
      ``oracle-vs-analytic`` there, and stays for the points that are not.
    """
    # Every grid item is checked before the first sum.
    points = [(spec, params) for spec, params in _grid_points(grid) if spec.n_parties >= 3]
    sines = [math.sin(2.0 * theta) for theta in _RULE_THETAS]
    pairs = [bogoliubov(BlackHoleParams(1.0, dilaton, 1.0)) for dilaton in _RULE_DILATONS]
    tables = [_power_rows(pair, _RULE_HORIZONS) for pair in pairs]
    quadratic = _binomial_sums(sines, [row for rows in tables for row in rows], 2)
    linear = _binomial_sums(sines, [row[::2] for rows in tables for row in rows[1::2]], 1)
    squares = [sine**2 for sine in sines]
    quad_errors = [total - square for square, sums in zip(squares, quadratic) for total in sums]
    lin_errors = [total - sine for sine, sums in zip(sines, linear) for total in sums]
    quad_inputs = partial(_rule_inputs, _RULE_HORIZONS)
    lin_inputs = partial(_rule_inputs, _RULE_HORIZONS[1::2])

    pair_scores: list[float] = []
    owner: list[int] = []  # the point of each pair score
    mono_errors: list[float] = []
    for index, (spec, params) in enumerate(points):
        pair, rho, e_oracle, _ = _oracle_point(spec, params)
        scores = _pair_scores(rho)
        pair_scores += scores
        owner += [index] * len(scores)
        residual = monogamy_residual(spec.theta, pair, spec.n_out_kept, spec.n_in_kept)
        deficit = e_oracle * e_oracle - math.fsum([e * e for e in scores[: len(rho.layout) - 1]])
        mono_errors.append(deficit - residual)

    point_inputs = partial(_describe, points)
    return VerificationReport(
        (
            _check("sum-rule-quadratic", len(quad_errors), RELATION_TOL, quad_errors, quad_inputs),
            _check("sum-rule-linear", len(lin_errors), RELATION_TOL, lin_errors, lin_inputs),
            _check("pairwise-zero", len(points), RELATION_TOL, pair_scores, lambda i: point_inputs(owner[i])),
            _check("monogamy", len(points), RELATION_TOL, mono_errors, point_inputs),
        )
    )


def _pair_scores(rho: SparseDensity) -> list[float]:
    """``[0.0]`` when no off-diagonal entry differs on one or two modes, else each pair's score.

    The scores of the second case are ``pair_entanglement`` of every
    two-mode reduction, in ``combinations`` order of the layout's modes.
    """
    for row, col in rho.entries:
        diff = row ^ col
        rest = diff & (diff - 1)  # the difference without its lowest mode
        if diff and not rest & (rest - 1):
            return [pair_entanglement(rho.reduce(keep)) for keep in combinations(rho.layout.modes, 2)]
    return [0.0]


def _classify(values: Sequence[float]) -> str:
    pairs = zip(values, values[1:])
    signs = [1 if cur > prev else -1 for prev, cur in pairs if cur > prev or cur < prev]
    collapsed = tuple([s for s, before in zip(signs, [0, *signs]) if s != before])
    shapes = {(): "constant", (1,): "increasing", (-1,): "decreasing", (1, -1): "single-peaked"}
    return shapes.get(collapsed, "irregular")


def _expected_shape(n_out: int, n_in: int, d_star: Optional[float]) -> str:
    """The shape the closed form predicts, given the split's ``peak_dilaton`` at ``M = omega = 1``."""
    if n_in == 0:
        return "decreasing"
    if n_out == 0 or n_out <= n_in:
        return "increasing"
    # D* = M - ln(p/q) / (8 pi omega) < M for p > q: no peak lies right of the scan.
    if d_star is None or d_star <= 0.0:
        return "decreasing"
    return "single-peaked"


def monotonicity_scan(n_out: int, n_in: int, steps: int = 2001) -> VerificationReport:
    """Shape of E over a dilaton sweep of ``D`` in ``[0, M]`` at theta = pi/4, ``M = omega = 1``.

    Classifies the sampled curve as increasing / decreasing /
    single-peaked and compares with what the closed form predicts from
    the sign of ``p - q``.  When an interior peak is expected, a second
    check requires the sampled argmax to sit within one grid step of the
    predicted ``D*``.  A ``D*`` within one grid step of either end may not
    show on the grid, so there the matching monotone shape also passes.
    """
    return _shape_scans([(n_out, n_in)], steps)


def _shape_scans(splits: Iterable[tuple[int, int]], steps: int) -> VerificationReport:
    """:func:`monotonicity_scan` of each ``(n_out, n_in)`` split in turn, all on one grid."""
    _check_count("steps", steps, InvalidParams)
    if steps < 3:
        raise InvalidParams(f"need at least 3 steps for a shape scan, got {_count_text(steps)}")
    theta = math.pi / 4
    ds = dilaton_grid(0.0, 1.0, steps)  # bounds steps before the division below
    step = 1.0 / (steps - 1)
    grid = BogoliubovGrid(1.0, 1.0, ds)
    checks = []
    for n_out, n_in in splits:
        (es,) = e_grid((theta,), grid, n_out, n_in)
        observed = _classify(es)
        d_star = peak_dilaton(1.0, 1.0, n_out, n_in)
        expected = _expected_shape(n_out, n_in, d_star)
        accepted = {expected}
        if expected == "single-peaked":
            # A peak less than one step from an end can fall between the two
            # samples nearest that end, so the grid then shows no turn.
            if 1.0 - d_star < step:
                accepted.add("increasing")
            if d_star < step:
                accepted.add("decreasing")
        scan_inputs = {
            "n-out-kept": n_out,
            "n-in-kept": n_in,
            "theta": theta,
            "mass": 1.0,
            "omega": 1.0,
            "d-min": 0.0,
            "d-max": 1.0,
            "steps": steps,
            "expected-shape": expected,
            "observed-shape": observed,
        }
        split = f"p{n_out}-q{n_in}"
        shape_error = 0.0 if observed in accepted else 1.0
        checks.append(_check(f"monotonicity-{split}", steps, 0.0, [shape_error], lambda _: scan_inputs))
        if expected == "single-peaked":
            d_argmax = ds[es.index(max(es))]
            peak = dict(scan_inputs, **{"d-argmax": d_argmax, "d-star": d_star})
            checks.append(_check(f"peak-location-{split}", steps, step, [d_argmax - d_star], lambda _: peak))
    return VerificationReport(tuple(checks))
