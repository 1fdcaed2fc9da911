"""Acceptance gate: one test per criterion, each reporting a verdict line.

Every criterion recomputes what it needs from scratch so the checks stay
independent of each other; shared grids are rebuilt inline rather than
trusted from the library under test where that matters.
"""

import csv
import math
import time

import pytest

from conftest import record_acceptance
from dilaton_gme import (
    BlackHoleParams,
    ModeLayout,
    ScenarioSpec,
    SparseState,
    bogoliubov,
    build_block_matrix,
    default_oracle_grid,
    e_general,
    expand_kruskal,
    extract_xstate,
    flat_mode,
    gme_pure,
    gme_xstate,
    monogamy_residual,
    pair_entanglement,
    partial_trace,
    scenario_density,
    sum_rule_linear,
    sum_rule_quadratic,
    theta_derivative,
)
from dilaton_gme.cli import main as cli_main

THETAS = (math.pi / 12, math.pi / 6, math.pi / 4, 0.4 * math.pi)
DILATONS = (0.0, 0.3, 0.6, 0.9, 1.0)


def _grid():
    points = []
    for n_parties in range(2, 7):
        for n_horizon in range(1, min(4, n_parties - 1) + 1):
            for n_out in range(n_horizon + 1):
                for theta in THETAS:
                    for dilaton in DILATONS:
                        points.append(
                            (
                                ScenarioSpec(n_parties, n_horizon, n_out,
                                             n_horizon - n_out, theta),
                                BlackHoleParams(1.0, dilaton, 1.0),
                            )
                        )
    return points


def _verdict(key, passed, detail):
    record_acceptance(key, passed, detail)
    assert passed, f"{key}: {detail}"


def test_criterion_1_oracle_equivalence():
    grid = _grid()
    assert len(grid) == 880
    # the library ships the same grid
    assert len(default_oracle_grid()) == 880
    started = time.perf_counter()
    worst = 0.0
    for spec, params in grid:
        pair = bogoliubov(params)
        simulated = gme_xstate(extract_xstate(scenario_density(spec, pair)))
        closed = e_general(spec.theta, pair, spec.n_out_kept, spec.n_in_kept)
        worst = max(worst, abs(simulated - closed))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 10.0
    _verdict(
        "criterion-1 oracle-equivalence",
        ok,
        f"880 points, max |dE| = {worst:.3e} <= 1e-10, {elapsed:.2f}s < 10s",
    )


def test_criterion_2_dual_construction():
    worst = 0.0
    for spec, params in _grid():
        pair = bogoliubov(params)
        simulated = extract_xstate(scenario_density(spec, pair))
        blocks = build_block_matrix(spec, pair)
        # a block missing on one side reads as zero
        for i in simulated.blocks.keys() | blocks.blocks.keys():
            lhs = simulated.blocks.get(i, (0.0, 0.0, 0.0))
            rhs = blocks.blocks.get(i, (0.0, 0.0, 0.0))
            worst = max(worst, max(abs(x - y) for x, y in zip(lhs, rhs)))
    ok = worst <= 1e-13
    _verdict(
        "criterion-2 dual-construction",
        ok,
        f"entrywise max = {worst:.3e} <= 1e-13",
    )


def test_criterion_3_extreme_anchor():
    target = 0.1767766952966369  # 2**(-5/2)
    pair = bogoliubov(BlackHoleParams(1.0, 1.0, 1.0))
    worst = 0.0
    for n_out in (5, 4, 2, 0):
        n_in = 5 - n_out
        closed = e_general(math.pi / 4, pair, n_out, n_in)
        spec = ScenarioSpec(6, 5, n_out, n_in, math.pi / 4)
        simulated = gme_xstate(extract_xstate(scenario_density(spec, pair)))
        worst = max(worst, abs(closed - target), abs(simulated - target))
    ok = worst <= 1e-12
    _verdict(
        "criterion-3 extreme-anchor",
        ok,
        f"both routes within {worst:.3e} <= 1e-12 of 2**-2.5",
    )


def _sweep(n_out, n_in, steps=2001):
    values = []
    for i in range(steps):
        d = i / (steps - 1)
        pair = bogoliubov(BlackHoleParams(1.0, d, 1.0))
        values.append(e_general(math.pi / 4, pair, n_out, n_in))
    return values


def test_criterion_4_dilaton_sweep_shapes():
    problems = []
    es = _sweep(8, 4)
    argmax = max(range(len(es)), key=es.__getitem__)
    rising = all(b > a for a, b in zip(es[:argmax], es[1 : argmax + 1]))
    falling = all(b < a for a, b in zip(es[argmax:], es[argmax + 1 :]))
    if not (0 < argmax < 2000 and rising and falling):
        problems.append("(8,4) not single-peaked")
    peak_error = abs(argmax / 2000 - 0.9724205499809185)
    if peak_error > 1 / 2000:
        problems.append(f"(8,4) argmax off by {peak_error:.2e}")
    up = _sweep(4, 8)
    if not all(b > a for a, b in zip(up, up[1:])):
        problems.append("(4,8) not strictly increasing")
    down = _sweep(5, 0)
    if not all(b < a for a, b in zip(down, down[1:])):
        problems.append("(5,0) not strictly decreasing")
    ok = not problems
    _verdict(
        "criterion-4 dilaton-sweep-shapes",
        ok,
        "; ".join(problems) if problems
        else f"peak at D = {argmax / 2000} (|dD*| = {peak_error:.2e} <= 5e-4)",
    )


def test_criterion_5_sum_rules():
    worst = 0.0
    for dilaton in (0.0, 0.5, 0.9, 1.0):
        pair = bogoliubov(BlackHoleParams(1.0, dilaton, 1.0))
        for theta in (math.pi / 12, math.pi / 6, math.pi / 4):
            for n in range(1, 17):
                lhs, rhs = sum_rule_quadratic(theta, pair, n)
                worst = max(worst, abs(lhs - rhs))
                if n % 2 == 0:
                    lhs, rhs = sum_rule_linear(theta, pair, n)
                    worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-12
    _verdict(
        "criterion-5 sum-rules",
        ok,
        f"max residual = {worst:.3e} <= 1e-12 for n <= 16",
    )


def test_criterion_6_monogamy():
    worst_pair = 0.0
    worst_residual = 0.0
    count = 0
    for spec, params in _grid():
        if spec.n_parties < 3:
            continue
        count += 1
        pair = bogoliubov(params)
        rho = scenario_density(spec, pair)
        kept = spec.kept_modes()
        for i, mode_i in enumerate(kept):
            for mode_j in kept[i + 1 :]:
                worst_pair = max(
                    worst_pair, pair_entanglement(rho.reduce((mode_i, mode_j)))
                )
        e = gme_xstate(extract_xstate(rho))
        residual = monogamy_residual(spec.theta, pair, spec.n_out_kept, spec.n_in_kept)
        worst_residual = max(worst_residual, abs(e * e - residual))
    ok = worst_pair <= 1e-12 and worst_residual <= 1e-12
    _verdict(
        "criterion-6 monogamy",
        ok,
        f"{count} states: max pair E = {worst_pair:.3e}, "
        f"max |E**2 - residual| = {worst_residual:.3e}, both <= 1e-12",
    )


def test_criterion_7_pure_state_measure():
    worst = 0.0
    for n_parties in range(2, 9):
        layout = ModeLayout(tuple(flat_mode(i + 1) for i in range(n_parties)))
        cells = [[m] for m in layout]
        top = (1 << n_parties) - 1
        for theta in THETAS:
            state = SparseState(layout, {0: math.cos(theta), top: math.sin(theta)})
            worst = max(worst, abs(gme_pure(state, cells) - math.sin(2 * theta)))
    layout = ModeLayout((flat_mode(1), flat_mode(2), flat_mode(3)))
    w_state = SparseState(layout, {1: 3**-0.5, 2: 3**-0.5, 4: 3**-0.5})
    w_error = abs(gme_pure(w_state, [[m] for m in layout]) - 0.9428090415820634)
    ok = worst <= 1e-12 and w_error <= 1e-12
    _verdict(
        "criterion-7 pure-state-measure",
        ok,
        f"GHZ N<=8 max |dE| = {worst:.3e}, W state |dE| = {w_error:.3e}, both <= 1e-12",
    )


def test_criterion_8_structural_invariants():
    problems = []

    # symmetry under theta -> pi/2 - theta, through the full pipeline
    sym_worst = 0.0
    pair = bogoliubov(BlackHoleParams(1.0, 0.6, 1.0))
    for n_out, n_in in ((2, 1), (3, 0), (0, 3)):
        for theta in (math.pi / 12, math.pi / 8, math.pi / 5):
            lo = ScenarioSpec(4, 3, n_out, n_in, theta)
            hi = ScenarioSpec(4, 3, n_out, n_in, math.pi / 2 - theta)
            e_lo = gme_xstate(extract_xstate(scenario_density(lo, pair)))
            e_hi = gme_xstate(extract_xstate(scenario_density(hi, pair)))
            sym_worst = max(sym_worst, abs(e_lo - e_hi))
    if sym_worst > 1e-13:
        problems.append(f"theta symmetry off by {sym_worst:.2e}")

    # E is maximal at theta = pi/4 on a 1000-point sweep
    pair2 = bogoliubov(BlackHoleParams(1.0, 0.7, 1.0))
    thetas = [i * (math.pi / 2) / 999 for i in range(1000)]
    values = [e_general(t, pair2, 2, 1) for t in thetas]
    argmax = max(range(1000), key=values.__getitem__)
    step = (math.pi / 2) / 999
    if abs(thetas[argmax] - math.pi / 4) > step:
        problems.append("theta argmax not at pi/4")

    # adding flat-region parties never changes the value
    n_ind = []
    for n_parties in (3, 4, 5, 6):
        spec = ScenarioSpec(n_parties, 2, 1, 1, math.pi / 6)
        n_ind.append(gme_xstate(extract_xstate(scenario_density(spec, pair))))
    n_spread = max(n_ind) - min(n_ind)
    if n_spread > 1e-12:
        problems.append(f"N dependence {n_spread:.2e}")

    # any choice of which horizon parties keep out/in modes agrees
    spec = ScenarioSpec(4, 3, 2, 1, 0.3 * math.pi)
    expanded = expand_kruskal(spec, pair)
    keeps = [
        spec.kept_modes(),
        tuple(m for m in expanded.layout if m in ("F1", "O1", "O3", "I2")),
        tuple(m for m in expanded.layout if m in ("F1", "O2", "O3", "I1")),
    ]
    perm_values = [
        gme_xstate(extract_xstate(partial_trace(expanded, keep))) for keep in keeps
    ]
    perm_spread = max(perm_values) - min(perm_values)
    if perm_spread > 1e-12:
        problems.append(f"permutation dependence {perm_spread:.2e}")

    # finite-difference derivative against 2 alpha**n cos(2 theta)
    fd_worst = 0.0
    h = 1e-5
    pair3 = bogoliubov(BlackHoleParams(1.0, 0.4, 1.0))
    for theta in (0.3, 0.7, 1.1):

        def e_at(t):
            spec = ScenarioSpec(4, 3, 3, 0, t)
            return gme_xstate(extract_xstate(scenario_density(spec, pair3)))

        fd = (e_at(theta + h) - e_at(theta - h)) / (2 * h)
        fd_worst = max(fd_worst, abs(fd - theta_derivative(theta, pair3, 3, 0)))
    if fd_worst > 1e-8:
        problems.append(f"derivative off by {fd_worst:.2e}")

    ok = not problems
    _verdict(
        "criterion-8 structural-invariants",
        ok,
        "; ".join(problems) if problems
        else (
            f"symmetry {sym_worst:.1e}, argmax at pi/4, N spread {n_spread:.1e}, "
            f"permutation spread {perm_spread:.1e}, derivative {fd_worst:.1e}"
        ),
    )


def _read_columns(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, data = rows[0], rows[1:]
    return {
        name: [float(row[i]) for row in data] for i, name in enumerate(header)
    }


def _strictly(direction, series):
    pairs = zip(series, series[1:])
    if direction == "up":
        return all(b > a for a, b in pairs)
    return all(b < a for a, b in pairs)


def _single_peak(series):
    argmax = max(range(len(series)), key=series.__getitem__)
    return (
        0 < argmax < len(series) - 1
        and _strictly("up", series[: argmax + 1])
        and _strictly("down", series[argmax:])
    )


def test_criterion_9_figure_datasets(tmp_path):
    assert cli_main(["figures", "--output-dir", str(tmp_path)]) == 0
    problems = []

    fig1 = _read_columns(tmp_path / "fig1.csv")
    for name, series in fig1.items():
        if name != "D" and not _strictly("down", series):
            problems.append(f"fig1 {name} not strictly decreasing")
    for suffix in ("pi6", "pi4"):
        by_n = [fig1[f"E_n{n}_{suffix}"] for n in (5, 20, 80)]
        if not all(
            hi[i] > lo[i]
            for hi, lo in zip(by_n, by_n[1:])
            for i in range(len(by_n[0]))
        ):
            problems.append(f"fig1 {suffix} columns not ordered by n")

    fig2 = _read_columns(tmp_path / "fig2.csv")
    for name, series in fig2.items():
        if name != "D" and not _strictly("up", series):
            problems.append(f"fig2 {name} not strictly increasing")
    for suffix in ("pi6", "pi4"):
        by_n = [fig2[f"E_n{n}_{suffix}"] for n in (8, 10, 12)]
        if not all(
            hi[i] > lo[i]
            for hi, lo in zip(by_n, by_n[1:])
            for i in range(len(by_n[0]))
        ):
            problems.append(f"fig2 {suffix} columns not ordered by n")

    fig3 = _read_columns(tmp_path / "fig3.csv")
    for name, series in fig3.items():
        if name == "D":
            continue
        p, q = (int(part[1:]) for part in name.split("_")[1:3])
        if p > q and not _single_peak(series):
            problems.append(f"fig3 {name} not single-peaked")
        if p < q and not _strictly("up", series):
            problems.append(f"fig3 {name} not strictly increasing")

    ok = not problems
    _verdict(
        "criterion-9 figure-datasets",
        ok,
        "; ".join(problems) if problems
        else "fig1 decreasing, fig2 increasing, fig3 split by sign(p - q)",
    )
