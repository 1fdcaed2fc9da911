"""Benchmark for dilaton-gme.

    python3 bench/run.py --workload closed-form|oracle-wide|verify-suite|all \\
        --seed N --seconds S --trace 0|1

Each workload runs in a fresh worker process (``worker.py``): one thread,
one client, a closed loop of seeded requests against the package in this
checkout's ``src``.  Every process runs with one BLAS thread.  Set-up is
timed separately in fresh interpreters (``setup_probe.py``, or
``python -X importtime`` for the traced run), half of them before the
worker and half after it.  Each set-up start is paired with a fresh
interpreter that imports numpy alone, and ``setup_s`` is reported at the
speed at which that import takes ``REFERENCE_IMPORT_S``.

The report names every metric with its unit and sample count; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
``end_to_end`` metrics declared in ``BENCHMARK.json``, with ``--trace 1``
the ``per_layer`` ones.  The line before it is one JSON object,
``{"undeclared": {...}}``, with the metrics the run measured beyond those:
``error_rate``, the unscaled request times and ``known_defect_requests``.
``failed`` counts the requests that failed; a request that only shows the
known `monotonicity_scan` defect (a false ``fail`` when the peak D* lies
within one grid step below d_max) is named and counted apart from them, in
``known_defect_requests``, and in ``error_rate`` together with them.  The exit code is 0 once a result is printed,
even if outputs were wrong (``correct`` says so), and 2 when no result can
be produced, e.g. when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Fresh starts per run, half before the worker and half after it.  One
#: more start runs first and is discarded, since it may compile the sources.
SETUP_STARTS = 16
#: The machine's speed at starting Python drifts by up to 2x within minutes
#: (other tenants share it), and set-up time with it.  So each set-up start
#: is followed by a fresh start that times ``import numpy`` alone, the bulk
#: of the package's own import and independent of this checkout, and
#: ``setup_s`` is the median ratio of the two times times the numpy import's
#: time at the reference speed (its fastest on a 2-core x86 VM running
#: CPython 3.11).  The unscaled times are reported as well.
REFERENCE_IMPORT_S = 0.06
REFERENCE_CODE = "import time; s = time.perf_counter(); import numpy; print(time.perf_counter() - s)"
IMPORTTIME_STARTS = 5
#: Seconds a worker may take, within the 180 s a run may take.
WORKER_TIMEOUT = 150
#: One thread per process: numpy's BLAS would otherwise start a thread per core.
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


class BenchError(Exception):
    """No result can be produced."""


def _python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=ENV, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args[:2])} did not finish in {timeout} s") from exc


def _checked(proc: subprocess.CompletedProcess, what: str) -> str:
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def setup_seconds(workload: str, seed: int, starts: int) -> list[tuple[float, float]]:
    """(set-up seconds, reference import seconds) of ``starts`` fresh-start pairs."""
    args = [str(BENCH / "setup_probe.py"), workload, str(seed)]
    return [(float(_checked(_python(args, 60), "setup probe").split()[-1]),
             float(_checked(_python(["-c", REFERENCE_CODE], 60), "numpy import").split()[-1]))
            for _ in range(starts)]


def importtime_seconds() -> tuple[list[float], list[float]]:
    """Cumulative import seconds of the package and of numpy, per fresh start."""
    env = dict(ENV, PYTHONPATH=str(SRC))
    code = "import dilaton_gme, dilaton_gme.cli"
    package, numpy = [], []
    for start in range(IMPORTTIME_STARTS + 1):
        try:
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                                  env=env, capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("importtime probe did not finish in 60 s") from exc
        if proc.returncode != 0:
            raise BenchError(f"importing dilaton_gme failed:\n{proc.stderr[-2000:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        if start:
            package.append(cumulative.get("dilaton_gme", 0.0) + cumulative.get("dilaton_gme.cli", 0.0))
            numpy.append(cumulative.get("numpy", 0.0))
    return package, numpy


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_lines() -> int:
    return sum(len(path.read_bytes().splitlines()) for path in SRC.rglob("*.py"))


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    if trace:
        package, numpy = importtime_seconds()
        extra = {
            "setup.import_s": (statistics.median(package), "s", f"median of {len(package)} fresh starts"),
            "setup.import_numpy_s": (statistics.median(numpy), "s", f"median of {len(numpy)} fresh starts"),
            "package.src_lines": (src_lines(), "count", "lines of src/**/*.py"),
        }
    else:
        setup_seconds(workload, seed, 1)
        starts = setup_seconds(workload, seed, SETUP_STARTS // 2)
    args = [str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = _checked(_python(args, WORKER_TIMEOUT), f"worker for {workload}")
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker for {workload} printed no result") from exc
    if not trace:
        starts += setup_seconds(workload, seed, SETUP_STARTS - SETUP_STARTS // 2)
        ratio = statistics.median(setup / reference for setup, reference in starts)
        raw = [setup for setup, _ in starts]
        extra = {
            "setup_s": (ratio * REFERENCE_IMPORT_S, "s",
                        f"median over {len(starts)} fresh starts, each over a fresh numpy import, "
                        f"x {REFERENCE_IMPORT_S} s"),
            "setup_s.unscaled": (statistics.median(raw), "s", f"median of {len(starts)} fresh starts, "
                                 f"fastest {min(raw):.4f}"),
            "setup_reference_s": (statistics.median(r for _, r in starts), "s",
                                  f"median of {len(starts)} fresh numpy imports"),
        }
    result["metrics"] = {**extra, **result["metrics"]}
    return result


def declared_metrics(trace: int) -> dict[str, str]:
    try:
        with open(ROOT / "BENCHMARK.json") as handle:
            spec = json.load(handle)
        return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read the metric list from BENCHMARK.json: {exc}") from exc


def report(workload: str, args, result: dict, sha: str) -> None:
    meta = result["meta"]
    print(f"== {workload}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    print(f"   python {meta['python']}  nproc {meta['nproc']}  git {sha}")
    for name, (value, unit, samples) in result["metrics"].items():
        print(f"   {name:36s} {value!r:>24}  {unit:6s} {samples}")
    summary = result["summary"]
    print(f"   requests: {summary['attempted']} attempted, {summary['failed']} failed, "
          f"{summary['known_defect']} with the known defect only")
    for name, count in sorted(summary["failures"].items()):
        print(f"   failed: {name} x{count}")
    for name, count in sorted(summary["known_defects"].items()):
        print(f"   known defect: {name} x{count} (peak within one grid step below d-max)")
    if "spans" in result:
        spans = result["spans"]
        print(f"   spans: {spans['kept']} of {spans['recorded']} written to {spans['file']}")
    if not result["correct"]:
        print("   OUTPUTS NOT CORRECT" + ("" if result.get("identical_outputs", True)
                                         else ": traced and untraced outputs differ"))


def main() -> int:
    parser = argparse.ArgumentParser(description="dilaton-gme benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if not (SRC / "dilaton_gme" / "__init__.py").is_file():
            raise BenchError(f"no package source under {SRC}")
        declared = declared_metrics(args.trace)
        sha = git_sha()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in names:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
            missing = set(declared) - set(result["metrics"])
            wrong = {n for n in set(declared) - missing if result["metrics"][n][1] != declared[n]}
            if missing or wrong:
                raise BenchError(f"{workload}: metrics missing {sorted(missing)}, "
                                 f"unit differs {sorted(wrong)}")
            report(workload, args, result, sha)
            results[workload] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prefix = len(results) > 1

    def named(workload: str, name: str) -> str:
        return f"{workload}.{name}" if prefix else name

    print(json.dumps({"undeclared": {
        named(workload, name): {"value": value, "unit": unit}
        for workload, r in results.items()
        for name, (value, unit, _) in r["metrics"].items() if name not in declared
    }}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["summary"]["attempted"] for r in results.values()),
        "failed": sum(r["summary"]["failed"] for r in results.values()),
        "metrics": {
            named(workload, name): {"value": r["metrics"][name][0], "unit": unit}
            for workload, r in results.items()
            for name, unit in declared.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
