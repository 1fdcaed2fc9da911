"""Cross-checks between the oracle pipeline and the closed forms.

Each check sweeps a parameter grid, records the worst absolute error and
the inputs that produced it, and passes when the worst error stays within
its tolerance.  Reports serialise to the JSON shape used by the command
line: one object per check with hyphenated field names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .analytic import _binomial_sums, _power_row, e_general, e_grid, monogamy_residual, peak_dilaton
from .errors import InvalidParams, _count_text
from .gme import gme_xstate
from .hawking import BlackHoleParams, BogoliubovGrid, bogoliubov
from .modes_state import ScenarioSpec, _check_theta, scenario_density
from .xstate import _pair_xstates, build_block_matrix, extract_xstate

__all__ = [
    "VerificationCheck",
    "VerificationReport",
    "default_oracle_grid",
    "oracle_compare",
    "relationship_suite",
    "monotonicity_scan",
]

GridPoint = tuple[ScenarioSpec, BlackHoleParams]

#: Most points a dilaton grid may take; each is built and evaluated one by one.
MAX_GRID_STEPS = 10**6
#: Largest ``max_horizon`` of :func:`relationship_suite`: the last n whose
#: sum-rule terms all fit a float.  Past it the sums run in decimals at a cost
#: that grows as n**2, and they drift off ``RELATION_TOL`` near n = 4000.
MAX_SUM_RULE_HORIZON = 1029

ORACLE_TOL = 1e-10
ENTRYWISE_TOL = 1e-13
RELATION_TOL = 1e-12

_DEFAULT_THETAS = (math.pi / 12, math.pi / 6, math.pi / 4, 0.4 * math.pi)
_DEFAULT_DILATONS = (0.0, 0.3, 0.6, 0.9, 1.0)


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    grid_size: int
    max_abs_error: float
    tolerance: float
    status: str
    worst_case_inputs: Optional[dict]

    def as_json_dict(self) -> dict:
        return {
            "name": self.name,
            "grid-size": self.grid_size,
            "max-abs-error": self.max_abs_error,
            "tolerance": self.tolerance,
            "status": self.status,
            "worst-case-inputs": self.worst_case_inputs,
        }


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[VerificationCheck, ...]

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
    max_abs_error: float,
    tolerance: float,
    worst_case_inputs: Optional[dict],
) -> VerificationCheck:
    status = "pass" if max_abs_error <= tolerance else "fail"
    return VerificationCheck(name, grid_size, max_abs_error, tolerance, status, worst_case_inputs)


class _Worst:
    """Track the largest absolute error and the inputs that caused it."""

    def __init__(self) -> None:
        self.error = 0.0
        self.inputs: Optional[dict] = None

    def update(self, error: float, inputs: dict) -> None:
        error = abs(error)
        if self.inputs is None or error > self.error:
            self.error = error
            self.inputs = inputs


def _check_count(name: str, value: int) -> None:
    """The one rule for a count argument: an ``int`` that is not a ``bool``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidParams(f"{name} must be an integer, got {value!r}")


def _grid_points(grid: Optional[Iterable[GridPoint]]) -> list[GridPoint]:
    """The grid's items (the default oracle grid for ``None``), each checked to be a point."""
    points = list(default_oracle_grid() if grid is None else grid)
    for index, item in enumerate(points):
        if type(item) is not tuple:
            got = type(item).__name__
        elif len(item) == 2 and isinstance(item[0], ScenarioSpec) and isinstance(item[1], BlackHoleParams):
            continue
        else:
            got = f"({', '.join(type(x).__name__ for x in item)})"
        raise InvalidParams(f"grid item {index} must be a (ScenarioSpec, BlackHoleParams) pair, got {got}")
    return points


def _describe(spec: ScenarioSpec, params: BlackHoleParams) -> dict:
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


def default_oracle_grid(
    mass: float = 1.0,
    omega: float = 1.0,
    max_parties: int = 6,
    max_horizon: int = 4,
    thetas: Sequence[float] = _DEFAULT_THETAS,
    dilatons: Sequence[float] = _DEFAULT_DILATONS,
) -> list[GridPoint]:
    """Every scenario with N <= max_parties, n <= max_horizon, all splits."""
    _check_count("max_parties", max_parties)
    _check_count("max_horizon", max_horizon)
    grid: list[GridPoint] = []
    for n_parties in range(2, max_parties + 1):
        for n_horizon in range(1, min(max_horizon, n_parties - 1) + 1):
            for n_out in range(n_horizon + 1):
                for theta in thetas:
                    for dilaton in dilatons:
                        spec = ScenarioSpec(
                            n_parties=n_parties,
                            n_horizon=n_horizon,
                            n_out_kept=n_out,
                            n_in_kept=n_horizon - n_out,
                            theta=theta,
                        )
                        grid.append((spec, BlackHoleParams(mass, dilaton * mass, omega)))
    return grid


def oracle_compare(grid: Optional[Iterable[GridPoint]] = None) -> VerificationReport:
    """Exact pipeline vs. closed form, plus the dual block construction.

    Check ``oracle-vs-analytic`` compares the entanglement from the
    simulated reduced state against ``sin(2 theta) alpha**p beta**q``;
    ``dual-construction`` compares that state's blocks entry by entry
    against :func:`build_block_matrix`, a block missing on one side
    reading as zero.
    """
    points = _grid_points(grid)
    worst_e = _Worst()
    worst_dual = _Worst()
    zero = (0.0, 0.0, 0.0)
    for spec, params in points:
        pair = bogoliubov(params)
        rho = scenario_density(spec, pair)
        from_oracle = extract_xstate(rho)
        e_oracle = gme_xstate(from_oracle)
        e_closed = e_general(spec.theta, pair, spec.n_out_kept, spec.n_in_kept)
        inputs = _describe(spec, params)
        worst_e.update(e_oracle - e_closed, inputs)
        from_blocks = build_block_matrix(spec, pair)
        entry_error = max(
            abs(x - y)
            for i in from_oracle.blocks.keys() | from_blocks.blocks.keys()
            for x, y in zip(from_oracle.blocks.get(i, zero), from_blocks.blocks.get(i, zero))
        )
        worst_dual.update(entry_error, inputs)
    return VerificationReport(
        (
            _check("oracle-vs-analytic", len(points), worst_e.error, ORACLE_TOL, worst_e.inputs),
            _check("dual-construction", len(points), worst_dual.error, ENTRYWISE_TOL, worst_dual.inputs),
        )
    )


def relationship_suite(
    grid: Optional[Iterable[GridPoint]] = None,
    max_horizon: int = 16,
    mass: float = 1.0,
    omega: float = 1.0,
    dilatons: Sequence[float] = (0.0, 0.5, 0.9, 1.0),
    thetas: Sequence[float] = (math.pi / 12, math.pi / 6, math.pi / 4),
) -> VerificationReport:
    """Distribution and monogamy identities.

    * ``sum-rule-quadratic`` / ``sum-rule-linear``: binomial identities
      over mode splits, evaluated purely from the closed form, for
      ``n = 1 .. max_horizon`` (an int in ``[1, MAX_SUM_RULE_HORIZON]``).
      Per dilaton and n, one row ``alpha**(n-k) * beta**k`` serves every
      theta: the quadratic rule reads all of it, the linear rule its even
      entries.
    * ``pairwise-zero``: every two-party reduction of every oracle-grid
      state (three or more parties) carries no entanglement.  The pair
      X-states come straight from the one pass over the state's entries,
      one per class of pairs whose modes have the same bit columns, each
      validated as :func:`extract_xstate` would validate it and scored
      once for its whole class.
    * ``monogamy``: the full E**2 minus the squared pair terms matches
      the closed-form residual.
    """
    _check_count("max_horizon", max_horizon)
    if max_horizon < 1:
        raise InvalidParams(f"max_horizon must be at least 1, got {_count_text(max_horizon)}")
    if max_horizon > MAX_SUM_RULE_HORIZON:
        raise InvalidParams(
            f"max_horizon must be at most {MAX_SUM_RULE_HORIZON}, got {_count_text(max_horizon)}"
        )
    # Every dilaton, theta and grid item is checked before the first sum.
    black_holes = [BlackHoleParams(mass, dilaton * mass, omega) for dilaton in dilatons]
    for theta in thetas:
        _check_theta(theta)
    points = [(spec, params) for spec, params in _grid_points(grid) if spec.n_parties >= 3]
    worst_quad = _Worst()
    worst_lin = _Worst()
    horizons = range(1, max_horizon + 1)
    sines = [math.sin(2.0 * theta) for theta in thetas]
    for params in black_holes:
        pair = bogoliubov(params)
        rows = {n: _power_row(pair, n) for n in horizons}
        quadratic = {n: _binomial_sums(sines, rows[n], 2) for n in horizons}
        linear = {n: _binomial_sums(sines, rows[n][::2], 1) for n in horizons[1::2]}
        for t, (theta, sine) in enumerate(zip(thetas, sines)):
            for n_horizon in horizons:
                inputs = {
                    "n-horizon": n_horizon,
                    "theta": theta,
                    "mass": mass,
                    "dilaton": params.dilaton,
                    "omega": omega,
                }
                worst_quad.update(quadratic[n_horizon][t] - sine**2, inputs)
                if n_horizon in linear:
                    worst_lin.update(linear[n_horizon][t] - sine, inputs)
    quad_size = len(dilatons) * len(thetas) * max_horizon
    lin_size = len(dilatons) * len(thetas) * (max_horizon // 2)

    worst_pair = _Worst()
    worst_mono = _Worst()
    for spec, params in points:
        pair = bogoliubov(params)
        rho = scenario_density(spec, pair)
        e_oracle = gme_xstate(extract_xstate(rho))
        first = spec.kept_modes()[0]
        inputs = _describe(spec, params)
        pair_sq = []
        for x, pairs in _pair_xstates(rho):
            e_pair = gme_xstate(x)
            worst_pair.update(e_pair, inputs)
            pair_sq += [e_pair * e_pair] * sum(1 for mode_i, _ in pairs if mode_i == first)
        residual = monogamy_residual(spec.theta, pair, spec.n_out_kept, spec.n_in_kept)
        deficit = e_oracle * e_oracle - math.fsum(pair_sq)
        worst_mono.update(deficit - residual, inputs)

    return VerificationReport(
        (
            _check("sum-rule-quadratic", quad_size, worst_quad.error, RELATION_TOL, worst_quad.inputs),
            _check("sum-rule-linear", lin_size, worst_lin.error, RELATION_TOL, worst_lin.inputs),
            _check("pairwise-zero", len(points), worst_pair.error, RELATION_TOL, worst_pair.inputs),
            _check("monogamy", len(points), worst_mono.error, RELATION_TOL, worst_mono.inputs),
        )
    )


def dilaton_grid(d_min: float, d_max: float, steps: int) -> list[float]:
    """``steps`` evenly spaced dilatons from ``d_min`` to exactly ``d_max``."""
    _check_count("steps", steps)
    if steps < 2:
        raise InvalidParams(f"a dilaton grid needs at least 2 steps, got {_count_text(steps)}")
    if steps > MAX_GRID_STEPS:
        raise InvalidParams(
            f"a dilaton grid takes at most {MAX_GRID_STEPS} steps, got {_count_text(steps)}"
        )
    step = (d_max - d_min) / (steps - 1)
    return [d_min + i * step for i in range(steps - 1)] + [d_max]


def _classify(values: Sequence[float]) -> str:
    signs = []
    for prev, cur in zip(values, values[1:]):
        if cur > prev:
            signs.append(1)
        elif cur < prev:
            signs.append(-1)
    collapsed = [signs[0]] if signs else []
    for s in signs[1:]:
        if s != collapsed[-1]:
            collapsed.append(s)
    shapes = {(): "constant", (1,): "increasing", (-1,): "decreasing", (1, -1): "single-peaked"}
    return shapes.get(tuple(collapsed), "irregular")


def _expected_shape(
    n_out: int, n_in: int, mass: float, omega: float, d_min: float, d_max: float
) -> str:
    if n_in == 0:
        return "decreasing"
    if n_out == 0 or n_out <= n_in:
        return "increasing"
    d_star = peak_dilaton(mass, omega, n_out, n_in)
    if d_star is None or d_star <= d_min:
        return "decreasing"
    if d_star >= d_max:
        return "increasing"
    return "single-peaked"


def monotonicity_scan(
    n_out: int,
    n_in: int,
    mass: float = 1.0,
    omega: float = 1.0,
    d_min: float = 0.0,
    d_max: Optional[float] = None,
    steps: int = 2001,
) -> VerificationReport:
    """Shape of E over a dilaton sweep at theta = pi/4.

    Classifies the sampled curve as increasing / decreasing /
    single-peaked and compares with what the closed form predicts from
    the sign of ``p - q``.  When an interior peak is expected, a second
    check requires the sampled argmax to sit within one grid step of the
    predicted ``D*``.  A ``D*`` within one grid step of either end may not
    show on the grid, so there the matching monotone shape also passes.
    """
    if d_max is None:
        d_max = mass
    _check_count("steps", steps)
    if steps < 3:
        raise InvalidParams(f"need at least 3 steps for a shape scan, got {_count_text(steps)}")
    if not 0.0 <= d_min < d_max <= mass:
        raise InvalidParams(
            f"need 0 <= d_min < d_max <= mass, got [{d_min}, {d_max}] with mass {mass}"
        )
    theta = math.pi / 4
    ds = dilaton_grid(d_min, d_max, steps)  # bounds steps before the division below
    step = (d_max - d_min) / (steps - 1)
    (es,) = e_grid((theta,), BogoliubovGrid(mass, omega, ds), n_out, n_in)
    observed = _classify(es)
    expected = _expected_shape(n_out, n_in, mass, omega, d_min, d_max)
    accepted = {expected}
    if expected == "single-peaked":
        d_star = peak_dilaton(mass, omega, n_out, n_in)
        # A peak less than one step from an end can fall between the two
        # samples nearest that end, so the grid then shows no turn.
        if d_max - d_star < step:
            accepted.add("increasing")
        if d_star - d_min < step:
            accepted.add("decreasing")
    scan_inputs = {
        "n-out-kept": n_out,
        "n-in-kept": n_in,
        "theta": theta,
        "mass": mass,
        "omega": omega,
        "d-min": d_min,
        "d-max": d_max,
        "steps": steps,
        "expected-shape": expected,
        "observed-shape": observed,
    }
    checks = [
        _check(
            f"monotonicity-p{n_out}-q{n_in}",
            steps,
            0.0 if observed in accepted else 1.0,
            0.0,
            scan_inputs,
        )
    ]
    if expected == "single-peaked":
        argmax = max(range(steps), key=es.__getitem__)
        checks.append(
            _check(
                f"peak-location-p{n_out}-q{n_in}",
                steps,
                abs(ds[argmax] - d_star),
                step,
                dict(scan_inputs, **{"d-argmax": ds[argmax], "d-star": d_star}),
            )
        )
    return VerificationReport(tuple(checks))
