"""Run alternating A/B pairs of one benchmark workload: a git revision against the working tree.

Usage::

    python tools/abpairs.py REV [--workload W] [--pairs K] [--seed S]

``REV`` is exported with ``git archive`` into a temporary directory outside
the repository, as ``tools/outdiff.py`` does, and the working tree's
``bench/`` and ``BENCHMARK.json`` are copied over the export, so both sides
run identical benchmark code on their own ``src``.  Pair ``k`` (from 0)
runs ``bench/run.py --workload W --seed S+k`` once in each tree, at the run
length ``bench/run.py`` sets, the revision first when ``k`` is even and the
working tree first when it is odd; ``S`` (default 0) only offsets the seeds,
so a second series can run on fresh ones.  The tool prints every pair's end-to-end metrics, then per metric each
side's median and quartiles, the median paired ratio (working tree over
revision), the wins and ties of the working tree (a win is a value better
in the direction ``BENCHMARK.json`` declares) and the median gain over the
revision's interquartile range, and last one verdict per metric: ``gain``,
``worse``, ``unresolved`` or ``same`` (see :func:`verdict`).  A run that
exits non-zero stops the tool with exit 2 and the tail of its standard error.

This is an interim home: a change to the benchmark is to fold it into
``bench/run.py --ab``.  It uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from outdiff import ROOT, export  # noqa: E402

SIDES = ("parent", "change")


class RunFailed(Exception):
    """A benchmark run exited non-zero or printed no result."""


def parse_result(stdout: str) -> dict[str, float]:
    """``{metric: value}`` of the result line, the last line of ``bench/run.py``'s standard output,
    with the request counts ``attempted`` and ``failed`` beside the metrics."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        values = {name: float(entry["value"]) for name, entry in result["metrics"].items()}
        values["attempted"], values["failed"] = float(result["attempted"]), float(result["failed"])
    except (IndexError, ValueError, KeyError, TypeError) as exc:
        raise RunFailed(f"no result line in the output ({type(exc).__name__}: {exc})") from None
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values``, by the inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def ratio(change: float, parent: float) -> float:
    """``change / parent``; 1 for two zeros and infinity for a change from zero."""
    if parent:
        return change / parent
    return 1.0 if change == parent else math.inf


def summarize(pairs: list[dict[str, dict[str, float]]], better: dict[str, str]) -> list[dict]:
    """Per metric of ``better`` (``"higher"`` or ``"lower"``), what the pairs show.

    Each pair is ``{"parent": values, "change": values}``.  A row holds the
    metric, each side's quartiles, the median paired ratio, the number of
    pairs the change wins and ties, the median gain (change's median less
    the parent's, signed so that a gain is positive), that gain over the
    parent's interquartile range, ``inf`` for a gain over a zero range, and
    whether every change run beats every parent run.
    """
    rows = []
    for name, direction in better.items():
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
        ties = sum(1 for a, b in zip(parent, change) if a == b)
        p_q, c_q = quartiles(parent), quartiles(change)
        gain, spread = sign * (c_q[1] - p_q[1]), p_q[2] - p_q[0]
        rows.append({
            "metric": name,
            "parent": p_q,
            "change": c_q,
            "ratio": statistics.median([ratio(b, a) for a, b in zip(parent, change)]),
            "wins": wins,
            "ties": ties,
            "gain": gain,
            "gain_over_iqr": gain / spread if spread else (0.0 if gain == 0 else math.copysign(math.inf, gain)),
            "apart": min(sign * b for b in change) > max(sign * a for a in parent),
        })
    return rows


def verdict(row: dict, pairs: int, bound: float) -> str:
    """One word for a :func:`summarize` row over ``pairs`` pairs, ``bound`` a fraction of the parent's median.

    ``gain`` when at least ten pairs ran, the change wins at least nine
    tenths of them and its median gain exceeds the parent's interquartile
    range; ``worse`` when its median is worse than the parent's by more
    than ``bound``; ``unresolved`` when the parent's interquartile range is
    wider than ``bound`` and not every change run beats every parent run;
    ``same`` otherwise.
    """
    q1, median, q3 = row["parent"]
    if pairs >= 10 and 10 * row["wins"] >= 9 * pairs and row["gain_over_iqr"] > 1:
        return "gain"
    if -row["gain"] > bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median) and not row["apart"]:
        return "unresolved"
    return "same"


def format_summary(rows: list[dict], pairs: int) -> list[str]:
    lines = [f"{'metric':18s} {'parent q1/median/q3':>32s} {'change q1/median/q3':>32s} "
             f"{'ratio':>7s} {'wins':>5s} {'ties':>5s} {'gain/IQR':>9s}"]
    for row in rows:
        sides = ["/".join(f"{v:.4g}" for v in row[side]) for side in SIDES]
        lines.append(f"{row['metric']:18s} {sides[0]:>32s} {sides[1]:>32s} {row['ratio']:7.4f} "
                     f"{row['wins']:>2d}/{pairs:<2d} {row['ties']:>5d} {row['gain_over_iqr']:9.2f}")
    return lines


def run_bench(tree: str, workload: str, seed: int) -> dict[str, float]:
    """One ``bench/run.py`` run in ``tree``; :class:`RunFailed` with the tail of its stderr on failure."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if proc.returncode != 0:
        raise RunFailed(f"{tree}: bench/run.py exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return parse_result(proc.stdout)


def declared_metrics() -> dict[str, tuple[str, float]]:
    """``{metric: (better, bound)}`` of the end-to-end metrics ``BENCHMARK.json`` declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: (m["better"], m["bound"]) for m in json.load(handle)["end_to_end"]}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", default="verify-suite")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = declared_metrics()
    better = {name: direction for name, (direction, _) in declared.items()}
    pairs = []
    with tempfile.TemporaryDirectory(prefix="abpairs-") as scratch:
        trees = {"parent": os.path.join(scratch, "parent"), "change": ROOT}
        export(args.rev, trees["parent"])
        shutil.rmtree(os.path.join(trees["parent"], "bench"), ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(trees["parent"], "bench"),
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), trees["parent"])
        print(f"abpairs {args.rev} -> working tree: {args.workload}, {args.pairs} pairs, "
              f"seeds {args.seed}..{args.seed + args.pairs - 1}")
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {}
            try:
                for side in order:
                    pair[side] = run_bench(trees[side], args.workload, args.seed + k)
            except RunFailed as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            pairs.append(pair)
            for side in SIDES:
                shown = " ".join(f"{name}={pair[side][name]:.6g}" for name in [*better, "failed"])
                print(f"pair {k} {side:6s} {shown}", flush=True)
    rows = summarize(pairs, better)
    print("\n".join(format_summary(rows, len(pairs))))
    for row in rows:
        print(f"verdict {row['metric']} {verdict(row, len(pairs), declared[row['metric']][1])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
