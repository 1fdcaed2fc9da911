"""Entanglement of GHZ states shared across a dilaton black-hole horizon.

The package pairs an exact sparse simulation of the horizon mode mixing
with closed-form expressions for the surviving genuine multipartite
entanglement, plus a verification suite that cross-checks the two.
The public API is listed once, in ``_EXPORTS`` below: each library module
and the names the package exports from it.

Nothing is imported until it is asked for (PEP 562): a submodule name
imports that module, and any other exported name imports the library
modules and binds the names listed for each at once.  So a closed-form
command never loads the oracle layers.
"""

import importlib

__version__ = "0.1.0"

#: Each library module and the names the package exports from it.
_EXPORTS = {
    "hawking": ("BlackHoleParams", "BogoliubovPair", "BogoliubovGrid", "bogoliubov", "coeff_power"),
    "modes_state": ("flat_mode", "ModeLayout", "ScenarioSpec", "SparseState", "SparseDensity",
                    "expand_kruskal", "partial_trace", "scenario_density"),
    "xstate": ("XState", "extract_xstate", "build_block_matrix"),
    "gme": ("gme_xstate", "gme_pure", "pair_entanglement"),
    "analytic": ("e_general", "e_grid", "theta_derivative", "peak_dilaton",
                 "sum_rule_quadratic", "sum_rule_linear", "monogamy_residual"),
    "verify": ("VerificationCheck", "VerificationReport", "default_oracle_grid", "oracle_compare",
               "relationship_suite", "monotonicity_scan"),
    "errors": ("DilatonGmeError", "InvalidParams", "InvalidSpec", "NotXState",
               "InvalidDensity", "InvalidPartition", "ScaleCap", "OddN"),
}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]


def __getattr__(name: str):
    if name in _EXPORTS or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for home, names in _EXPORTS.items():
        module = importlib.import_module(f"{__name__}.{home}")
        globals().update((export, getattr(module, export)) for export in names)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
