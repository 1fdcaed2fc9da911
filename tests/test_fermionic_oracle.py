"""The scenario state built from fermionic operators alone, against the oracle.

The oracle writes the expanded GHZ state straight onto basis labels
(``expand_kruskal``) and traces it by bit arithmetic, and the dual
construction writes the same blocks from the same spec, so a shared slip in
which mode pairs with which would pass both.  Here the state comes from
Jordan–Wigner operators instead, each applied to the state vector by index
and sign: the Kruskal vacuum
``Omega = prod_j (alpha + beta b_j^+ c_j^+)|0>`` over each horizon party's
out mode ``b_j`` and in mode ``c_j``, the excited branch from
``a_K^+ = alpha b^+ - beta c`` and the flat creators, and a partial trace
that is a plain reshape.  The register order fixes the Jordan–Wigner
strings and may flip the sign of a coherence (Montero and Martín-Martínez,
PRA 83, 062323 (2011)); it must not change ``E``, so every point is built
under three orders.  For odd ``N`` the GHZ state mixes fermion parities;
it is taken here as the paper writes it.
"""

import math
import random

import numpy as np
import pytest

from conftest import dense_density
from dilaton_gme import BlackHoleParams, ScenarioSpec, bogoliubov, e_general, scenario_density

_SPLITS = [(N, n, p) for N in range(2, 7) for n in (1, 2, 3) if n < N for p in range(n + 1)]
_DILATONS = (0.0, 0.3, 0.9)
_THETAS = (math.pi / 6, math.pi / 4)


def _registers(n_parties, n_horizon):
    """``(flats, outs, ins, {name: register order})``: block, out/in interleaved, one seeded shuffle."""
    n_flat = n_parties - n_horizon
    flats = [f"F{i}" for i in range(1, n_flat + 1)]
    outs = [f"O{j}" for j in range(1, n_horizon + 1)]
    ins = [f"I{j}" for j in range(1, n_horizon + 1)]
    block = flats + outs + ins
    orders = {
        "block": block,
        "interleaved": flats + [mode for pair in zip(outs, ins) for mode in pair],
        "shuffled": random.Random(100 * n_parties + n_horizon).sample(block, len(block)),
    }
    return flats, outs, ins, orders


def _operators(order):
    """``({mode: creator}, {mode: annihilator})``, each as ``(source, target, sign)`` index arrays.

    The first mode of ``order`` is the top bit of a basis index.  An operator moves the
    amplitude at each ``source`` index to ``target``, the mode's bit set or cleared, times the
    Jordan–Wigner sign: the parity of the occupied modes ahead of the mode in ``order``.
    """
    index = np.arange(1 << len(order))
    bits = (index[:, None] >> np.arange(len(order) - 1, -1, -1)) & 1  # column j: mode order[j]
    signs = 1.0 - 2.0 * ((np.cumsum(bits, axis=1) - bits) & 1)
    creators, annihilators = {}, {}
    for j, mode in enumerate(order):
        mask = 1 << (len(order) - 1 - j)
        empty, full = bits[:, j] == 0, bits[:, j] == 1
        creators[mode] = (index[empty], index[empty] | mask, signs[empty, j])
        annihilators[mode] = (index[full], index[full] ^ mask, signs[full, j])
    return creators, annihilators


def _apply(operator, psi):
    source, target, sign = operator
    out = np.zeros_like(psi)
    out[target] = sign * psi[source]
    return out


def _scenario_state(up, down, n_flat, n_horizon, theta, pair):
    """``cos(theta) Omega + sin(theta) f_1^+ .. f_F^+ a_K1^+ .. a_Kn^+ Omega`` as a dense vector."""
    omega = np.zeros(1 << len(up))  # one creator per mode
    omega[0] = 1.0  # the empty register
    for j in range(1, n_horizon + 1):
        omega = pair.alpha * omega + pair.beta * _apply(up[f"O{j}"], _apply(up[f"I{j}"], omega))
    excited = omega
    for j in range(n_horizon, 0, -1):
        excited = pair.alpha * _apply(up[f"O{j}"], excited) - pair.beta * _apply(down[f"I{j}"], excited)
    for i in range(n_flat, 0, -1):
        excited = _apply(up[f"F{i}"], excited)
    return math.cos(theta) * omega + math.sin(theta) * excited


def _reduce(psi, order, kept):
    """The density matrix of ``psi`` on ``kept`` (in that order), the other modes traced out."""
    traced = [i for i, mode in enumerate(order) if mode not in kept]
    amps = psi.reshape((2,) * len(order)).transpose([order.index(m) for m in kept] + traced)
    amps = amps.reshape(1 << len(kept), -1)
    return amps @ amps.T


def _x_state_e(rho):
    """``2 max(0, max_i(|c_i| - sum_{j != i} sqrt(a_j b_j)))`` over the X's blocks ``i``."""
    dim = len(rho)
    blocks = [(rho[i, i], rho[dim - 1 - i, dim - 1 - i], rho[i, dim - 1 - i]) for i in range(dim // 2)]
    roots = [math.sqrt(a * b) for a, b, _ in blocks]
    best = max(abs(c) - math.fsum(roots[:i] + roots[i + 1 :]) for i, (_, _, c) in enumerate(blocks))
    return 2.0 * max(0.0, best)


@pytest.mark.parametrize("order_name", ["block", "interleaved", "shuffled"])
@pytest.mark.parametrize("n_parties,n_horizon,n_out", _SPLITS)
def test_the_operator_built_state_is_the_oracle_state(n_parties, n_horizon, n_out, order_name):
    flats, outs, ins, orders = _registers(n_parties, n_horizon)
    order = orders[order_name]
    kept = flats + outs[:n_out] + ins[n_out:]
    up, down = _operators(order)
    # An n = 3 state's norm is a sum of 9 squares, each rounded: allow 9 ulps of 1.
    norm_bound = 1e-15 if n_horizon <= 2 else 9 * 2.0**-52
    dim = 1 << len(kept)
    rows, cols = np.indices((dim, dim))
    off_x = (rows != cols) & (rows + cols != dim - 1)
    for dilaton in _DILATONS:
        pair = bogoliubov(BlackHoleParams(1.0, dilaton, 1.0))
        for theta in _THETAS:
            where = (order, dilaton, theta)
            spec = ScenarioSpec(n_parties, n_horizon, n_out, n_horizon - n_out, theta)
            assert list(spec.kept_modes()) == kept
            psi = _scenario_state(up, down, len(flats), n_horizon, theta, pair)
            assert abs(psi @ psi - 1.0) <= norm_bound, where
            rho = _reduce(psi, order, kept)
            assert np.abs(rho[off_x]).max(initial=0.0) <= 1e-15, where
            expected = e_general(theta, pair, n_out, n_horizon - n_out)
            assert abs(_x_state_e(rho) - expected) <= 1e-14 * expected, where
            oracle = dense_density(scenario_density(spec, pair))
            assert np.abs(np.abs(rho) - np.abs(oracle)).max() <= 1e-15, where
