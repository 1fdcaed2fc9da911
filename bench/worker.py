"""One workload run in a fresh process.

    python bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Prints one JSON object.  Untraced, it runs whole decks of requests in a
closed loop (one client, one thread) until ``--seconds`` have passed and
reports the end-to-end metrics, with times scaled by the speed kernel run
before each request (``yardstick.py``) and reported unscaled as well.
Traced, it replays a fixed prefix of the stream untraced and then traced,
round after round until ``--seconds`` have passed, and reports per-layer
metrics from the traced rounds.  Peak RSS is read before the reference
check imports mpmath.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import types
from collections import Counter
from pathlib import Path

import tracer as tracing
import workloads
import yardstick

ROOT = Path(__file__).resolve().parents[1]
#: The smallest positive normal double; smaller references are not counted.
DBL_MIN = sys.float_info.min
#: The oracle drops amplitudes below 1e-15 by design (``AMPLITUDE_TOL``), so
#: an oracle E below this floor may legitimately read 0; such values are left
#: to ``oracle_compare``'s absolute tolerance.  E >= 2 * amplitude bounds them.
ORACLE_FLOOR = 1e-12
#: The tail percentile, fixed so that a faster program, which completes more
#: requests in a run, is compared at the same percentile.  In 15 s every
#: workload completes 450-900 requests on a 2-core x86 VM, which leaves
#: 45-90 samples beyond the 90th percentile.
TAIL_PERCENTILE = 90
SPAN_CAP = 50_000


def load_package():
    """Import the package from this checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    if not (src / "dilaton_gme" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {src / 'dilaton_gme'}")
    sys.path.insert(0, str(src))
    import dilaton_gme
    import dilaton_gme.cli

    if Path(dilaton_gme.__file__).resolve().parent != (src / "dilaton_gme").resolve():
        sys.exit(f"error: imported dilaton_gme from {dilaton_gme.__file__}, not {src}")
    return types.SimpleNamespace(
        root=dilaton_gme, cli=dilaton_gme.cli, verify=dilaton_gme.verify,
        ScenarioSpec=dilaton_gme.ScenarioSpec, BlackHoleParams=dilaton_gme.BlackHoleParams,
        bogoliubov=dilaton_gme.bogoliubov, scenario_density=dilaton_gme.scenario_density,
        extract_xstate=dilaton_gme.extract_xstate, gme_xstate=dilaton_gme.gme_xstate,
    )


def tail(values: list[float]) -> tuple[float, int]:
    """(value, samples beyond) of the ``TAIL_PERCENTILE``-th percentile, by
    the nearest-rank rule."""
    ordered = sorted(values)
    index = math.ceil(TAIL_PERCENTILE / 100 * len(ordered)) - 1
    return ordered[index], len(ordered) - 1 - index


@functools.lru_cache(maxsize=None)
def reference_e(theta: float, mass: float, dilaton: float, omega: float, p: int, q: int):
    """sin(2 theta) alpha**p beta**q at 50 digits from the exact float inputs."""
    import mpmath
    from mpmath import mp, mpf

    with mp.workdps(50):
        x = 8 * mp.pi * (mpf(mass) - mpf(dilaton)) * mpf(omega)
        alpha = 1 / mp.sqrt(1 + mp.exp(-x))
        beta = mp.exp(-x / 2) * alpha
        return mpmath.sin(2 * mpf(theta)) * alpha**p * beta**q


def oracle_e(pkg, point: tuple) -> float:
    """The oracle's E at one point, through the package's public pipeline."""
    n_parties, n_horizon, n_out, theta, dilaton = point
    spec = pkg.ScenarioSpec(n_parties, n_horizon, n_out, n_horizon - n_out, theta)
    pair = pkg.bogoliubov(pkg.BlackHoleParams(1.0, dilaton, 1.0))
    return pkg.gme_xstate(pkg.extract_xstate(pkg.scenario_density(spec, pair)))


def judge(pkg, outcomes: list) -> tuple[float, int]:
    """Hold every collected E against the reference; return (max rel err, count)
    and set each outcome's ``rel_err`` and ``judged``.

    A value off by more than ``workloads.REL_TOL``, or well above a reference
    too small to count, fails its request."""
    from mpmath import mp, mpf

    worst, counted = 0.0, 0
    with mp.workdps(50):
        for outcome in outcomes:
            values = [(*v, DBL_MIN) for v in outcome.e_values]
            for point in outcome.oracle_points:
                n_parties, n_horizon, n_out, theta, dilaton = point
                values.append((theta, 1.0, dilaton, 1.0, n_out, n_horizon - n_out,
                               oracle_e(pkg, point), ORACLE_FLOOR))
            for theta, mass, dilaton, omega, p, q, value, floor in values:
                ref = reference_e(theta, mass, dilaton, omega, p, q)
                if abs(ref) < floor:
                    if not abs(value) <= 2 * floor and outcome.failure is None:
                        outcome.failure = f"E = {value!r} where the reference is below {floor:g}"
                    continue
                rel = float(abs(mpf(value) - ref) / abs(ref))
                if not math.isfinite(rel):  # a NaN or infinite E
                    rel = math.inf
                outcome.judged += 1
                outcome.rel_err = max(outcome.rel_err, rel)
                if rel > workloads.REL_TOL and outcome.failure is None:
                    outcome.failure = f"E off by {rel:.3g} relative"
            counted += outcome.judged
            worst = max(worst, outcome.rel_err)
    return worst, counted


def failure_summary(outcomes: list) -> dict:
    """Request counts.  ``failed`` counts the requests that failed other than
    by the known `monotonicity_scan` defect, which ``known_defect`` counts;
    ``failures`` and ``known_defects`` name the checks behind each."""
    flagged = [o for o in outcomes if o.failure is not None]
    return {
        "attempted": len(outcomes),
        "failed": sum(1 for o in flagged if not o.known_defect),
        "known_defect": sum(1 for o in flagged if o.known_defect),
        "failures": dict(Counter(o.failure for o in flagged if not o.known_defect)),
        "known_defects": dict(Counter(o.failure for o in flagged if o.known_defect)),
    }


def timed_run(pkg, workload: str, seed: int, seconds: float, workdir: str) -> dict:
    requests = workloads.stream(workload, seed)
    outcomes, kernel = [], []
    # The values to check are spooled to a file, so that the process does not
    # grow with the number of requests and peak RSS is the program's own.
    spool_path = os.path.join(workdir, "values.jsonl")
    with open(spool_path, "w") as spool:
        start = time.perf_counter()
        while not outcomes or time.perf_counter() - start < seconds:
            for _ in range(workloads.DECK_SIZE[workload]):
                kernel.append(yardstick.seconds())
                outcome = workloads.execute(pkg, next(requests), workdir)
                spool.write(json.dumps([outcome.e_values, outcome.oracle_points]) + "\n")
                outcome.output, outcome.e_values, outcome.oracle_points = b"", (), ()
                outcomes.append(outcome)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(spool_path) as spool:
        for outcome, line in zip(outcomes, spool):
            outcome.e_values, outcome.oracle_points = json.loads(line)
    _, checked = judge(pkg, outcomes)
    judged = outcomes[: workloads.ERR_REQUESTS[workload]]
    max_rel_err = max(o.rel_err for o in judged)
    counted = sum(o.judged for o in judged)
    summary = failure_summary(outcomes)
    # Each latency is scaled by the kernel's median over the nine requests around it.
    latencies = [
        yardstick.scale(o.latency_s, statistics.median(kernel[max(0, i - 4): i + 5]))
        for i, o in enumerate(outcomes)
    ]
    completed = [i for i, o in enumerate(outcomes) if o.failure is None or o.known_defect]
    points = sum(outcomes[i].points for i in completed)
    n = len(latencies)
    tail_value, beyond = tail(latencies)
    raw = [o.latency_s for o in outcomes]
    tail_samples = f"p{TAIL_PERCENTILE} of {n} requests, {beyond} beyond" + (
        "" if beyond >= 10 else " (fewer than ten)")
    metrics = {
        "points_per_s": (points / sum(latencies[i] for i in completed), "1/s",
                         f"{points} points in {len(completed)} requests"),
        "request_ms.p50": (statistics.median(latencies) * 1e3, "ms", f"{n} requests"),
        "request_ms.tail": (tail_value * 1e3, "ms", tail_samples),
        "points_per_s.unscaled": (points / sum(raw[i] for i in completed), "1/s",
                                  f"{points} points in {len(completed)} requests"),
        "request_ms.p50.unscaled": (statistics.median(raw) * 1e3, "ms", f"{n} requests"),
        "request_ms.tail.unscaled": (tail(raw)[0] * 1e3, "ms", tail_samples),
        "peak_rss_mb": (peak_rss_mb, "MB", "1 process"),
        "max_rel_err": (max_rel_err, "1", f"{counted} E values in the first {len(judged)} requests"),
        "error_rate": ((summary["failed"] + summary["known_defect"]) / n, "1",
                       f"{summary['failed']} failed + {summary['known_defect']} known defect, "
                       f"of {n} requests"),
        "known_defect_requests": (summary["known_defect"], "count", f"{n} requests"),
        "yardstick_ms": (statistics.median(kernel) * 1e3, "ms", f"median of {n} kernel runs"),
    }
    return {"summary": summary, "correct": summary["failed"] == 0 and checked > 0,
            "metrics": metrics}


def trace_run(pkg, workload: str, seed: int, seconds: float, workdir: str, spans_path: Path) -> dict:
    requests = workloads.stream(workload, seed)
    prefix = [next(requests) for _ in range(workloads.TRACE_REQUESTS[workload])]
    rounds, executed = [], []
    identical = True
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        untraced = [workloads.execute(pkg, request, workdir) for request in prefix]
        tracer = tracing.Tracer(keep_spans=SPAN_CAP if not rounds else 0)
        uninstall = tracing.install(tracer)
        try:
            traced = []
            for index, request in enumerate(prefix):
                tracer.request = index
                traced.append(workloads.execute(pkg, request, workdir))
        finally:
            uninstall()
        identical &= all(a.output == b.output for a, b in zip(untraced, traced))
        if not rounds:
            bytes_written = sum(len(o.output) for o, r in zip(untraced, prefix)
                                if r["kind"] in ("sweep", "figures"))
            points = sum(o.points for o in untraced)
            first_tracer = tracer
        base = sum(o.latency_s for o in untraced)
        rounds.append((tracer, sum(o.latency_s for o in traced) / base - 1.0))
        for outcome in untraced + traced:
            outcome.output = b""
        executed += untraced + traced
    _, counted = judge(pkg, executed[: len(prefix)])
    summary = failure_summary(executed)

    def self_s(name: str) -> float:
        return statistics.median(t.self_s.get(name, 0.0) for t, _ in rounds)

    def layer_s(layer: str) -> float:
        return statistics.median(t.layer_totals()[0].get(layer, 0.0) for t, _ in rounds)

    _, layer_calls = first_tracer.layer_totals()
    calls, counts = first_tracer.calls, first_tracer.counts
    slots = counts["xstate.slots"]
    n_rounds = f"median of {len(rounds)} rounds of {len(prefix)} requests"
    once = f"{len(prefix)} requests"
    metrics = {f"{layer}.self_s": (layer_s(layer), "s", n_rounds) for layer in tracing.LAYERS}
    metrics.update({f"{layer}.calls": (layer_calls.get(layer, 0), "count", once) for layer in tracing.LAYERS})
    metrics.update({
        "cli.bytes_written": (bytes_written, "B", once),
        "hawking.calls_per_point": (layer_calls.get("hawking", 0) / points, "count", f"{points} points"),
        "analytic.e_general.calls": (calls["analytic.e_general"], "count", once),
        "modes_state.expand_kruskal.self_s": (self_s("modes_state.expand_kruskal"), "s", n_rounds),
        "modes_state.partial_trace.self_s": (self_s("modes_state.partial_trace"), "s", n_rounds),
        "modes_state.reduce.calls": (calls["modes_state.SparseDensity.reduce"], "count", once),
        "modes_state.reduce.self_s": (self_s("modes_state.SparseDensity.reduce"), "s", n_rounds),
        "modes_state.amplitudes": (counts["modes_state.amplitudes"], "count", once),
        "modes_state.density_entries": (counts["modes_state.density_entries"], "count", once),
        "xstate.extract_xstate.self_s": (self_s("xstate.extract_xstate"), "s", n_rounds),
        "xstate.build_block_matrix.self_s": (self_s("xstate.build_block_matrix"), "s", n_rounds),
        "xstate.slots": (slots, "count", once),
        "xstate.nonzero_blocks": (counts["xstate.nonzero_blocks"], "count", once),
        "xstate.useful_ratio": (counts["xstate.nonzero_blocks"] / slots if slots else 0.0, "1", once),
        "gme.gme_xstate.self_s": (self_s("gme.gme_xstate"), "s", n_rounds),
        "gme.pair_entanglement.calls": (calls["gme.pair_entanglement"], "count", once),
        "verify.checks": (sum(o.checks for o in executed[: len(prefix)]), "count", once),
        "verify.checks_failed": (sum(o.checks_failed for o in executed[: len(prefix)]), "count", once),
        "trace.overhead_frac": (statistics.median(f for _, f in rounds), "1", n_rounds),
        "trace.counter_failures": (counts["trace.counter_failures"], "count", once),
        "package.exports": (len(pkg.root.__all__), "count", "dilaton_gme.__all__"),
    })
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w") as handle:
        for request, span_id, parent, name, begin, end in first_tracer.spans:
            handle.write(json.dumps({"request": request, "id": span_id, "parent": parent,
                                     "name": name, "start": begin, "end": end}) + "\n")
    return {"summary": summary, "correct": identical and summary["failed"] == 0 and counted > 0,
            "identical_outputs": identical, "metrics": metrics,
            "spans": {"file": str(spans_path.relative_to(ROOT)), "kept": len(first_tracer.spans),
                      "recorded": sum(first_tracer.calls.values())}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    pkg = load_package()
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            result = trace_run(pkg, args.workload, args.seed, args.seconds, str(workdir), spans)
        else:
            result = timed_run(pkg, args.workload, args.seed, args.seconds, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["meta"] = {"python": platform.python_version(), "nproc": os.cpu_count()}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
