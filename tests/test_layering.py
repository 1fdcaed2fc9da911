"""The exact oracle never reaches the closed forms it is checked against."""

import ast
import os

import dilaton_gme

_PACKAGE_DIR = os.path.dirname(dilaton_gme.__file__)
_ORACLE_MODULES = ("modes_state", "xstate", "gme")


def _package_imports(module):
    """Names of the package modules that ``module`` imports directly."""
    with open(os.path.join(_PACKAGE_DIR, f"{module}.py")) as handle:
        tree = ast.parse(handle.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith("dilaton_gme"):
                names.add(node.module.partition(".")[2])
            elif node.level == 1:
                names.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            names.update(
                a.name.partition(".")[2] for a in node.names if a.name.startswith("dilaton_gme.")
            )
    return names - {""}


def test_oracle_modules_never_import_analytic():
    reached = set()
    pending = list(_ORACLE_MODULES)
    while pending:
        module = pending.pop()
        if module not in reached:
            reached.add(module)
            pending.extend(_package_imports(module))
    assert {"modes_state", "xstate", "gme", "hawking", "errors"} <= reached
    assert "analytic" not in reached and "verify" not in reached and "cli" not in reached


# The package exports what the modules list in their ``__all__``; these are its 49 names.
_EXPORTS = """
BlackHoleParams BogoliubovGrid BogoliubovPair DegenerateCoefficient DilatonGmeError
InvalidDensity InvalidParams InvalidPartition InvalidSpec ModeLayout NotXState OddN
ScaleCap ScenarioSpec SparseDensity SparseState UnknownMode VerificationCheck
VerificationReport XState __version__ bogoliubov build_block_matrix build_initial_state
coeff_power default_oracle_grid e_general e_grid expand_kruskal extract_xstate
extreme_limit flat_mode gme_pure gme_xstate in_mode kruskal_mode log_power
monogamy_residual monotonicity_scan oracle_compare out_mode pair_entanglement
partial_trace peak_dilaton relationship_suite scenario_density sum_rule_linear
sum_rule_quadratic theta_derivative
""".split()


def test_package_exports_are_pinned():
    assert len(_EXPORTS) == 49
    assert sorted(dilaton_gme.__all__) == _EXPORTS
    for name in _EXPORTS:
        assert getattr(dilaton_gme, name) is not None
    for gone in ("GridPoint", "Mode", "e_accessible", "e_inaccessible"):
        assert not hasattr(dilaton_gme, gone)
