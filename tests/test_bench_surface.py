"""The package surface that the benchmark harness under ``bench/`` reaches.

``bench/`` drives the package from outside: ``worker.load_package`` binds
package attributes into a namespace, the workloads call ``cli.main`` and
the ``verify`` suites and merge their reports, ``bench/test_bench.py``
patches ``cli._figure_table`` and ``verify.gme_xstate``, and the tracer
counts the results of a few named functions.  A change that removes or
renames one of these breaks the benchmark, or silently zeroes one of its
metrics, so each is pinned here.  (``cli.e_general`` and ``XState.a/.b/.c``,
which ``bench/`` also reads, were gone before this guard was added.)
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import dilaton_gme
import dilaton_gme.cli  # worker.load_package imports it too

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_package_bindings() -> dict[str, str]:
    """``{name: dotted package attribute}`` bound by ``worker.load_package``."""
    tree = ast.parse((BENCH / "worker.py").read_text())
    load = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "load_package"
    )
    namespace = next(
        node for node in ast.walk(load)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "types.SimpleNamespace"
    )
    return {keyword.arg: ast.unparse(keyword.value) for keyword in namespace.keywords}


def _resolve(dotted: str):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(module)
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_worker_namespace_bindings_exist():
    bindings = _load_package_bindings()
    assert {"root", "cli", "verify", "ScenarioSpec", "scenario_density"} <= set(bindings)
    for name, dotted in bindings.items():
        assert dotted.split(".")[0] == "dilaton_gme", name
        assert _resolve(dotted) is not None, dotted


def test_attributes_the_workloads_and_bench_tests_use_exist():
    cli, verify = dilaton_gme.cli, dilaton_gme.verify
    for owner, names in [
        (cli, ("main", "_figure_table")),
        (verify, ("oracle_compare", "relationship_suite", "monotonicity_scan", "gme_xstate")),
        (verify.VerificationReport, ("merged_with", "as_json")),
    ]:
        for name in names:
            assert callable(getattr(owner, name)), f"{owner.__name__}.{name}"


def test_the_verify_calls_of_bench_and_cli_still_bind():
    verify, points = dilaton_gme.verify, []
    for function, args, kwargs in [
        (verify.oracle_compare, (points,), {}),
        (verify.relationship_suite, (), {"grid": points}),
        (verify.monotonicity_scan, (8, 4), {"steps": 201}),
        (verify.default_oracle_grid, (), {"max_parties": 4, "max_horizon": 2}),
    ]:
        inspect.signature(function).bind(*args, **kwargs)
    # The suites run on fixed grids: these parameters are gone.
    for function, removed in [
        (verify.default_oracle_grid, {"mass", "omega", "thetas", "dilatons"}),
        (verify.relationship_suite, {"max_horizon", "mass", "omega", "dilatons", "thetas"}),
        (verify.monotonicity_scan, {"mass", "omega", "d_min", "d_max"}),
    ]:
        assert not removed & set(inspect.signature(function).parameters), function.__name__
    assert not hasattr(verify, "MAX_SUM_RULE_HORIZON")


def test_traced_layers_and_counted_functions_exist():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer in tracer.LAYERS:
        importlib.import_module(f"dilaton_gme.{layer}")
    for name in tracer.COUNTERS:
        assert inspect.isfunction(_resolve(f"dilaton_gme.{name}")), name
    # The counters read these off the results, as ``len(...)`` or a count, however the
    # containers declare them.
    spec = dilaton_gme.ScenarioSpec(4, 2, 1, 1, 0.5)
    pair = dilaton_gme.bogoliubov(dilaton_gme.BlackHoleParams(1.0, 0.3, 1.0))
    rho = dilaton_gme.scenario_density(spec, pair)
    assert len(dilaton_gme.expand_kruskal(spec, pair).amplitudes) == 2**2 + 1
    assert len(rho.entries) > 0
    assert dilaton_gme.extract_xstate(rho).half_dimension == 2**3
