"""Shared test plumbing.

The acceptance tests record one verdict per criterion; a terminal-summary
hook prints them as a block at the end of the run so the result of each
criterion is visible even when output capturing is on.

The library keeps states, densities and X-states sparse; the dense
builders below give tests full numpy arrays to check them against, plus
the ``(a, b, c)`` triplet view of an X-state and a scenario's traced modes.
"""

import numpy as np

from dilaton_gme import ScenarioSpec, SparseDensity, SparseState, XState, in_mode, out_mode

ACCEPTANCE_RESULTS: dict[str, tuple[bool, str]] = {}


def record_acceptance(key: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS[key] = (passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[key]
        verdict = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(f"{verdict} {key}{suffix}")


_ZERO_BLOCK = (0.0, 0.0, 0.0)


def xstate_from_triplets(a, b, c) -> XState:
    """X-state whose block ``i`` is ``(a[i], b[i], c[i])``."""
    return XState(len(a), dict(enumerate(zip(a, b, c))))


def triplets(x: XState) -> tuple[tuple[float, ...], ...]:
    """The ``(a, b, c)`` tuples over every slot, a missing block as zero."""
    slots = [x.blocks.get(i, _ZERO_BLOCK) for i in range(x.half_dimension)]
    return tuple(tuple(column) for column in zip(*slots))


def dense_state(state: SparseState) -> np.ndarray:
    vec = np.zeros(1 << len(state.layout))
    for label, amp in state.amplitudes.items():
        vec[label] = amp
    return vec


def dense_density(rho: SparseDensity) -> np.ndarray:
    dim = 1 << len(rho.layout)
    mat = np.zeros((dim, dim))
    for (row, col), value in rho.entries.items():
        mat[row, col] = value
        mat[col, row] = value
    return mat


def dense_xstate(x: XState) -> np.ndarray:
    dim = x.dimension
    mat = np.zeros((dim, dim))
    for i, (a, b, c) in x.blocks.items():
        j = dim - 1 - i
        mat[i, i] = a
        mat[j, j] = b
        mat[i, j] = c
        mat[j, i] = c
    return mat


def traced_modes(spec: ScenarioSpec) -> tuple[str, ...]:
    """The dilaton partners that fall behind (or outside) reach."""
    ins = tuple(in_mode(i) for i in range(1, spec.n_out_kept + 1))
    outs = tuple(out_mode(i) for i in range(spec.n_out_kept + 1, spec.n_horizon + 1))
    return ins + outs
