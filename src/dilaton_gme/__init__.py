"""Entanglement of GHZ states shared across a dilaton black-hole horizon.

The package pairs an exact sparse simulation of the horizon mode mixing
with closed-form expressions for the surviving genuine multipartite
entanglement, plus a verification suite that cross-checks the two.
"""

from .analytic import (
    e_accessible,
    e_general,
    e_grid,
    e_inaccessible,
    extreme_limit,
    monogamy_residual,
    peak_dilaton,
    sum_rule_linear,
    sum_rule_quadratic,
    theta_derivative,
)
from .errors import (
    DegenerateCoefficient,
    DilatonGmeError,
    InvalidDensity,
    InvalidParams,
    InvalidPartition,
    InvalidSpec,
    NotXState,
    OddN,
    ScaleCap,
    UnknownMode,
)
from .gme import gme_pure, gme_xstate, pair_entanglement
from .hawking import (
    BlackHoleParams,
    BogoliubovGrid,
    BogoliubovPair,
    bogoliubov,
    coeff_power,
    log_power,
)
from .modes_state import (
    Mode,
    ModeLayout,
    ScenarioSpec,
    SparseDensity,
    SparseState,
    build_initial_state,
    expand_kruskal,
    flat_mode,
    in_mode,
    kruskal_mode,
    out_mode,
    partial_trace,
    scenario_density,
)
from .verify import (
    VerificationCheck,
    VerificationReport,
    default_oracle_grid,
    monotonicity_scan,
    oracle_compare,
    relationship_suite,
)
from .xstate import XState, build_block_matrix, extract_xstate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # hawking
    "BlackHoleParams",
    "BogoliubovPair",
    "BogoliubovGrid",
    "bogoliubov",
    "log_power",
    "coeff_power",
    # modes / states
    "Mode",
    "flat_mode",
    "kruskal_mode",
    "out_mode",
    "in_mode",
    "ModeLayout",
    "ScenarioSpec",
    "SparseState",
    "SparseDensity",
    "build_initial_state",
    "expand_kruskal",
    "partial_trace",
    "scenario_density",
    # x states
    "XState",
    "extract_xstate",
    "build_block_matrix",
    # measures
    "gme_xstate",
    "gme_pure",
    "pair_entanglement",
    # closed forms
    "e_general",
    "e_grid",
    "e_accessible",
    "e_inaccessible",
    "theta_derivative",
    "extreme_limit",
    "peak_dilaton",
    "sum_rule_quadratic",
    "sum_rule_linear",
    "monogamy_residual",
    # verification
    "VerificationCheck",
    "VerificationReport",
    "default_oracle_grid",
    "oracle_compare",
    "relationship_suite",
    "monotonicity_scan",
    # errors
    "DilatonGmeError",
    "InvalidParams",
    "DegenerateCoefficient",
    "InvalidSpec",
    "UnknownMode",
    "NotXState",
    "InvalidDensity",
    "InvalidPartition",
    "ScaleCap",
    "OddN",
]
