"""Seeded inputs, request execution and the output gate for each workload.

Inputs come in shuffled *decks*: every deck holds a fixed mix of request
kinds, party counts (``oracle-wide``) or grid sizes (``verify-suite``), so
the composition of a run that ends on a deck boundary does not depend on
the seed.  The seed picks the order and the remaining parameters.

A request is a plain dict, so two streams built from one seed compare
equal.  :func:`execute` times the call into the package and nothing else;
checking the output happens outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

WORKLOADS = ("closed-form", "oracle-wide", "verify-suite")

#: Requests per deck.  A run only stops at a deck boundary.
DECK_SIZE = {"closed-form": 10, "oracle-wide": 40, "verify-suite": 1}
#: Requests replayed, untraced and traced, by a trace run.
TRACE_REQUESTS = {"closed-form": 20, "oracle-wide": 40, "verify-suite": 10}
#: `max_rel_err` is taken over the first this many requests (whole decks),
#: so that a faster program, which completes more requests and so emits
#: more values, is not read as a less accurate one.  Every request's values
#: are still checked.  In 15 s each workload completes at least 1.3x this
#: many requests on a 2-core x86 VM.
ERR_REQUESTS = {"closed-form": 400, "oracle-wide": 240, "verify-suite": 240}

# closed-form: 3 default `figures` runs, 4 sweeps over the paper's splits,
# 2 sweeps with exponents up to p + q = 2000 and one with alpha**2000 in
# every deck of ten.  The relative error of alpha**p grows with p, so the
# alpha**2000 sweep, with more of its rows checked, sets `max_rel_err`.
_CLOSED_FORM_DECK = ("figures",) * 3 + ("paper",) * 4 + ("large",) * 2 + ("extreme",)
_PAPER_SPLITS = (
    ("accessible", 5), ("accessible", 20), ("accessible", 80),
    ("inaccessible", 5), ("inaccessible", 20), ("inaccessible", 80),
    (8, 4), (32, 2), (4, 8), (2, 32),
)
#: E cells per closed-form request checked against the mpmath reference.
SAMPLED_ROWS = 24
EXTREME_SAMPLED_ROWS = 256

# oracle-wide: party counts per deck of 40.  The median falls in the middle
# of the N = 13 block (30-65 %) and the 90th percentile in the middle of the
# N = 16 block (85-95 %), so neither sits on a jump between two values of N;
# N = 18 is drawn once per deck, so every run reaches the peak footprint.
_ORACLE_N_DECK = {12: 12, 13: 14, 14: 4, 15: 4, 16: 4, 17: 1, 18: 1}
# theta and D come from `default_oracle_grid`'s values.  The oracle's E does
# not depend on N, so a run's few hundred points cover most of the 280
# (n, split, theta, D) cases and `max_rel_err` does not hinge on which
# continuous draws happened to round worst.
_THETAS_GRID = (math.pi / 12, math.pi / 6, math.pi / 4, 0.4 * math.pi)
_DILATONS_GRID = (0.0, 0.3, 0.6, 0.9, 1.0)

# verify-suite: 40 points per request drawn from the 880 points of
# `default_oracle_grid()` (N <= 6, n <= 4, every split, its thetas and
# dilatons): 8 for each N, spread evenly over that N's values of n.  A
# point's cost grows with N (N(N-1)/2 pair reductions) and n (2**n + 1
# amplitudes), so a fixed mix of (N, n) keeps the request cost steady.
_VERIFY_POINTS_PER_N = 8
_VERIFY_GRID = {
    (n_parties, n_horizon): tuple(
        (n_parties, n_horizon, n_out, theta, dilaton)
        for n_out in range(n_horizon + 1)
        for theta in _THETAS_GRID
        for dilaton in _DILATONS_GRID
    )
    for n_parties in range(2, 7)
    for n_horizon in range(1, min(4, n_parties - 1) + 1)
}
#: (N, n) of the points in one request.
_VERIFY_MIX = tuple(
    (n_parties, 1 + k % min(4, n_parties - 1))
    for n_parties in range(2, 7)
    for k in range(_VERIFY_POINTS_PER_N)
)
#: Monotonicity scans draw p, q from [0, SCAN_MAX].  The range keeps the
#: ratios p/q just above 1 (e.g. 26/25), where `monotonicity_scan` reports a
#: false `fail`; those draws stay in and are counted and named as the known
#: defect, apart from the requests that fail.
SCAN_MAX = 40
SCAN_STEPS = 201

#: A sampled E further than this from the reference fails its request.
REL_TOL = 1e-10
_THETAS = {"pi12": math.pi / 12, "pi6": math.pi / 6, "pi4": math.pi / 4}
_FIGURES = {"fig1.csv": 7, "fig2.csv": 7, "fig3.csv": 13}


def stream(workload: str, seed: int) -> Iterator[dict]:
    """Endless, deterministic request stream for ``workload``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    deck = {
        "closed-form": _closed_form_deck,
        "oracle-wide": _oracle_deck,
        "verify-suite": _verify_deck,
    }[workload]
    while True:
        yield from deck(rng)


def first_deck(workload: str, seed: int) -> list[dict]:
    it = stream(workload, seed)
    return [next(it) for _ in range(DECK_SIZE[workload])]


def _closed_form_deck(rng: random.Random) -> list[dict]:
    kinds = list(_CLOSED_FORM_DECK)
    rng.shuffle(kinds)
    return [_closed_form_request(rng, kind) for kind in kinds]


def _closed_form_request(rng: random.Random, kind: str) -> dict:
    sample_seed = rng.getrandbits(32)
    if kind == "figures":
        return {"kind": "figures", "sample_seed": sample_seed}
    mass = rng.uniform(0.5, 2.0)
    omega = rng.uniform(0.5, 2.0)
    theta = rng.uniform(0.0, math.pi / 2)
    d_min = mass * rng.uniform(0.0, 0.5)
    d_max = min(mass, d_min + (mass - d_min) * rng.uniform(0.5, 1.0))
    steps = rng.randint(1000, 3000)
    if kind == "paper":
        split = rng.choice(_PAPER_SPLITS)
    elif kind == "extreme":
        split = ("accessible", 2000)
    else:
        n = rng.randint(500, 2000)
        p = rng.randint(0, n)
        split = (p, n - p)
    if split[0] == "accessible":
        p, q, flags = split[1], 0, ["--accessible"]
    elif split[0] == "inaccessible":
        p, q, flags = 0, split[1], ["--inaccessible"]
    else:
        p, q = split
        flags = ["--p", str(p), "--q", str(q)]
    argv = [
        "sweep", "--mass", repr(mass), "--omega", repr(omega), "--theta", repr(theta),
        "--n-horizon", str(p + q), *flags,
        "--d-min", repr(d_min), "--d-max", repr(d_max), "--steps", str(steps),
    ]
    return {
        "kind": "sweep", "argv": argv, "theta": theta, "mass": mass, "omega": omega,
        "p": p, "q": q, "steps": steps, "sample_seed": sample_seed,
        "sample_rows": EXTREME_SAMPLED_ROWS if kind == "extreme" else SAMPLED_ROWS,
    }


def _oracle_deck(rng: random.Random) -> list[dict]:
    sizes = [n for n, count in _ORACLE_N_DECK.items() for _ in range(count)]
    rng.shuffle(sizes)
    requests = []
    for n_parties in sizes:
        n_horizon = rng.randint(1, 4)
        point = [n_parties, n_horizon, rng.randint(0, n_horizon),
                 rng.choice(_THETAS_GRID), rng.choice(_DILATONS_GRID)]
        requests.append({"kind": "oracle", "point": point})
    return requests


def _verify_deck(rng: random.Random) -> list[dict]:
    grid = [list(rng.choice(_VERIFY_GRID[size])) for size in _VERIFY_MIX]
    p = q = 0
    while p + q == 0:
        p, q = rng.randint(0, SCAN_MAX), rng.randint(0, SCAN_MAX)
    return [{"kind": "verify", "grid": grid, "scan": [p, q]}]


# --------------------------------------------------------------------------
# execution


@dataclass(slots=True)
class Outcome:
    """One request: its latency, what it emitted and what the gate found."""

    latency_s: float
    points: int
    output: bytes
    failure: Optional[str] = None
    known_defect: bool = False
    checks: int = 0
    checks_failed: int = 0
    #: E values to hold against the reference: (theta, mass, dilaton, omega, p, q, E)
    e_values: list = field(default_factory=list)
    #: oracle points whose E is re-derived after the run: (N, n, p, theta, D)
    oracle_points: list = field(default_factory=list)
    #: Largest relative error of the values above and how many were counted,
    #: set by the reference check.
    rel_err: float = 0.0
    judged: int = 0


def execute(pkg, request: dict, workdir: str) -> Outcome:
    """Run one request against the package modules in ``pkg``."""
    kind = request["kind"]
    if kind == "sweep":
        return _run_sweep(pkg, request)
    if kind == "figures":
        return _run_figures(pkg, request, workdir)
    if kind == "oracle":
        return _run_report(pkg, [request["point"]], None)
    return _run_report(pkg, request["grid"], request["scan"])


def _call_cli(pkg, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pkg.cli.main(argv)
    except Exception as exc:  # a crash is a failed request, not a failed run
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit {code}: {err.getvalue().strip()[:200]}"
    return latency, out.getvalue(), error


def _run_sweep(pkg, request: dict) -> Outcome:
    latency, text, error = _call_cli(pkg, request["argv"])
    steps = request["steps"]
    outcome = Outcome(latency, steps, text.encode(), error)
    if error is not None:
        return outcome
    lines = text.split("\n")
    rows = lines[1:-1]
    if (lines[0] != "D,alpha,beta,E_analytic" or lines[-1] != "" or len(rows) != steps
            or any(row.count(",") != 3 for row in rows)):
        outcome.failure = "malformed sweep CSV"
        return outcome
    rng = random.Random(request["sample_seed"])
    for row in rng.sample(rows, min(request["sample_rows"], steps)):
        fields = row.split(",")
        try:
            dilaton, value = float(fields[0]), float(fields[3])
        except ValueError:
            outcome.failure = "malformed sweep CSV"
            return outcome
        outcome.e_values.append((request["theta"], request["mass"], dilaton, request["omega"],
                                 request["p"], request["q"], value))
    return outcome


def _split_of(stem: str, column: str):
    """(p, q, theta) of a figure column such as E_n20_pi6 or E_p8_q4_pi12."""
    parts = column.split("_")
    theta = _THETAS.get(parts[-1])
    if theta is None or parts[0] != "E":
        return None
    if len(parts) == 3 and parts[1].startswith("n") and parts[1][1:].isdigit():
        n = int(parts[1][1:])
        return (n, 0, theta) if stem == "fig1.csv" else (0, n, theta)
    if len(parts) == 4 and parts[1][1:].isdigit() and parts[2][1:].isdigit():
        return int(parts[1][1:]), int(parts[2][1:]), theta
    return None


def _run_figures(pkg, request: dict, workdir: str) -> Outcome:
    paths = [os.path.join(workdir, name) for name in _FIGURES]
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    latency, text, error = _call_cli(pkg, ["figures", "--output-dir", workdir])
    outcome = Outcome(latency, 0, text.encode(), error)
    if error is not None:
        return outcome
    if text.split("\n") != paths + [""]:
        outcome.failure = "figures printed unexpected paths"
        return outcome
    cells = []
    for name, path in zip(_FIGURES, paths):
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            outcome.failure = f"figures did not write {name}"
            return outcome
        outcome.output += data
        lines = data.decode().split("\n")
        header = lines[0].split(",")
        rows = lines[1:-1]
        splits = [_split_of(name, column) for column in header[1:]]
        if (len(header) != _FIGURES[name] or header[0] != "D" or None in splits
                or len(rows) != 201 or lines[-1] != ""
                or any(row.count(",") != len(header) - 1 for row in rows)):
            outcome.failure = f"malformed {name}"
            return outcome
        outcome.points += len(rows) * len(splits)
        cells.extend((row, col, splits[col - 1]) for row in rows for col in range(1, len(header)))
    rng = random.Random(request["sample_seed"])
    for row, col, (p, q, theta) in rng.sample(cells, SAMPLED_ROWS):
        fields = row.split(",")
        try:
            dilaton, value = float(fields[0]), float(fields[col])
        except ValueError:
            outcome.failure = "malformed figure CSV"
            return outcome
        outcome.e_values.append((theta, 1.0, dilaton, 1.0, p, q, value))
    return outcome


def _known_defect(check: dict, report: list[dict]) -> bool:
    """`monotonicity_scan` calls a single-peaked curve increasing when the peak
    D* lies within one grid step below d_max, while `peak-location` passes.

    D* = M - ln(p/q) / (8 pi omega) is computed here from the scan's inputs,
    so only a false `fail` in that window is taken for the defect."""
    inputs = check["worst-case-inputs"] or {}
    if not check["name"].startswith("monotonicity-") or inputs.get("observed-shape") != "increasing":
        return False
    peak_name = check["name"].replace("monotonicity-", "peak-location-")
    peak = next((c for c in report if c["name"] == peak_name), None)
    if peak is None or peak["status"] != "pass":
        return False
    p, q = inputs["n-out-kept"], inputs["n-in-kept"]
    if not p > q > 0:
        return False
    d_star = inputs["mass"] - math.log(p / q) / (8 * math.pi * inputs["omega"])
    step = (inputs["d-max"] - inputs["d-min"]) / (inputs["steps"] - 1)
    return inputs["d-max"] - step < d_star < inputs["d-max"]


def _run_report(pkg, grid: list, scan: Optional[list]) -> Outcome:
    verify, ScenarioSpec, BlackHoleParams = pkg.verify, pkg.ScenarioSpec, pkg.BlackHoleParams
    error = None
    start = time.perf_counter()
    try:
        points = [
            (ScenarioSpec(n_parties, n_horizon, n_out, n_horizon - n_out, theta),
             BlackHoleParams(1.0, dilaton, 1.0))
            for n_parties, n_horizon, n_out, theta, dilaton in grid
        ]
        report = verify.oracle_compare(points)
        if scan is not None:
            report = report.merged_with(verify.relationship_suite(grid=points))
            report = report.merged_with(verify.monotonicity_scan(*scan, steps=SCAN_STEPS))
        text = json.dumps(report.as_json(), indent=2) + "\n"
    except Exception as exc:  # a crash is a failed request, not a failed run
        error = f"{type(exc).__name__}: {exc}"
        text = ""
    latency = time.perf_counter() - start
    outcome = Outcome(latency, len(grid), text.encode(), error)
    if error is not None:
        return outcome
    checks = json.loads(text)
    failing = [check for check in checks if check["status"] != "pass"]
    outcome.checks, outcome.checks_failed = len(checks), len(failing)
    if failing:
        outcome.failure = ",".join(check["name"] for check in failing)
        outcome.known_defect = all(_known_defect(check, checks) for check in failing)
    outcome.oracle_points = [tuple(point) for point in grid]
    return outcome
