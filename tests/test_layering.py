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
