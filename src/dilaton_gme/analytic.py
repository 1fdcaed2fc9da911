"""Closed-form entanglement of GHZ states shared across the horizon.

With ``p`` kept outside modes and ``q`` kept inside modes (``p + q = n``
horizon parties), the genuine multipartite entanglement of the reduced
N-party state is

    E = sin(2 theta) * alpha**p * beta**q.

The party count drops out entirely, and theta enters only through
``sin(2 theta)``.  Everything else here follows from that one line:
derivative in theta, extreme-limit value, location of the thermal peak
in the dilaton parameter, distribution identities over mode splits, and
the monogamy deficit.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

from .errors import InvalidSpec, OddN
from .hawking import (
    BogoliubovGrid,
    BogoliubovPair,
    _check_exponents,
    _check_positive,
    _log_beta,
    _power,
    coeff_power,
)
from .modes_state import _check_theta

__all__ = [
    "e_general",
    "e_grid",
    "theta_derivative",
    "extreme_limit",
    "peak_dilaton",
    "sum_rule_quadratic",
    "sum_rule_linear",
    "monogamy_residual",
]


def _check_split(n_out: int, n_in: int) -> None:
    for name, value in (("n_out", n_out), ("n_in", n_in)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise InvalidSpec(f"{name} must be a non-negative integer, got {value!r}")
    if n_out + n_in < 1:
        raise InvalidSpec("at least one horizon mode is needed")
    _check_exponents(n_out, n_in)


def e_general(theta: float, pair: BogoliubovPair, n_out: int, n_in: int) -> float:
    """``sin(2 theta) * alpha**n_out * beta**n_in``."""
    _check_theta(theta)
    _check_split(n_out, n_in)
    return math.sin(2.0 * theta) * coeff_power(pair, n_out, n_in)


def e_grid(
    thetas: Sequence[float], grid: BogoliubovGrid, n_out: int, n_in: int
) -> list[list[float]]:
    """:func:`e_general` at every point of ``grid``, one list per theta.

    Each theta and the split are checked once; ``alpha**n_out *
    beta**n_in`` is computed once per point and shared by every theta, so
    each value is the very float ``e_general`` returns for that point.
    """
    for theta in thetas:
        _check_theta(theta)
    _check_split(n_out, n_in)
    powers = grid.powers(n_out, n_in)
    return [[s * m for m in powers] for s in [math.sin(2.0 * theta) for theta in thetas]]


def _power_row(pair: BogoliubovPair, n: int) -> list[float]:
    """``alpha**(n - k) * beta**k`` for ``k = 0 .. n``, each as :func:`coeff_power` forms it.

    Inputs are checked by the caller.  The quadratic sum rule at ``n`` reads
    the whole row, the linear one its even entries ``row[::2]``.
    """
    alpha, beta = pair.alpha, pair.beta
    log_alpha, log_beta = math.log(alpha), _log_beta(beta)
    return [_power(alpha, beta, log_alpha, log_beta, n - k, k) for k in range(n + 1)]


def _binomial_sums(sines: Sequence[float], row: Sequence[float], power: int) -> list[float]:
    """``sum_k C(m, k) * (s * row[k])**power``, ``m = len(row) - 1``, at each sine ``s``.

    With ``s = sin(2 theta)`` and a row of :func:`_power_row`, each term is
    ``C * E * E`` (or ``C * E``) from the float E.  Every ``C`` must fit a
    float, which holds while ``m < 1030``.
    """
    m = len(row) - 1
    combs = [math.comb(m, k) for k in range(m + 1)]
    if power == 2:
        return [math.fsum([c * e * e for c, e in zip(combs, map(s.__mul__, row))]) for s in sines]
    return [math.fsum([c * e for c, e in zip(combs, map(s.__mul__, row))]) for s in sines]


def _rule_sum(theta: float, pair: BogoliubovPair, n: int, step: int, power: int) -> float:
    """``sum_k C(m, k) * E(n - step*k, step*k)**power``, ``m = n // step``.

    Inputs are checked by the caller.  While every ``C`` fits a float this
    is :func:`_binomial_sums` on every ``step``-th entry of the power row.
    Past that (``m >= 1030``) ``C`` and the deepest E leave the float range,
    so the sum runs in 40-digit decimals instead.
    """
    m, s = n // step, math.sin(2.0 * theta)
    if math.comb(m, m // 2) <= sys.float_info.max:
        return _binomial_sums((s,), _power_row(pair, n)[::step], power)[0]
    from decimal import Decimal, localcontext  # only these large sums need it

    with localcontext() as ctx:
        ctx.prec = 40
        alpha = Decimal(pair.alpha)
        ratio = (Decimal(pair.beta) / alpha) ** step
        c, e, total = Decimal(1), Decimal(s) * alpha**n, Decimal(0)
        for k in range(m + 1):
            total += c * e**power
            c, e = c * (m - k) / (k + 1), e * ratio
        return float(total)


def theta_derivative(theta: float, pair: BogoliubovPair, n_out: int, n_in: int) -> float:
    """``dE/dtheta = 2 cos(2 theta) * alpha**n_out * beta**n_in``."""
    _check_theta(theta)
    _check_split(n_out, n_in)
    return 2.0 * math.cos(2.0 * theta) * coeff_power(pair, n_out, n_in)


def extreme_limit(theta: float, n_horizon: int) -> float:
    """Value of E when alpha = beta = 1/sqrt(2): ``sin(2 theta) / 2**(n/2)``."""
    _check_theta(theta)
    _check_split(n_horizon, 0)
    return math.sin(2.0 * theta) * 2.0 ** (-0.5 * n_horizon)


def peak_dilaton(mass: float, omega: float, n_out: int, n_in: int):
    """Dilaton value where E is stationary, or None.

    Solving ``dE/dD = 0`` gives ``D* = M - ln(p/q) / (8 pi omega)``.  A
    stationary point needs both mode counts positive; the result is
    returned only when it falls inside ``[0, M]`` (for ``p < q`` it lies
    above ``M``, so E is monotone over the physical range and the answer
    is None).
    """
    _check_positive("mass", mass)
    _check_positive("omega", omega)
    _check_split(n_out, n_in)
    if n_out == 0 or n_in == 0:
        return None
    d_star = mass - math.log(n_out / n_in) / (8.0 * math.pi * omega)
    return d_star if 0.0 <= d_star <= mass else None


def sum_rule_quadratic(
    theta: float, pair: BogoliubovPair, n_horizon: int
) -> tuple[float, float]:
    """Binomially weighted sum of E**2 over all splits of ``n`` modes.

    Returns ``(lhs, rhs)`` with ``lhs = sum_p C(n, p) E(p, n-p)**2`` and
    ``rhs = sin(2 theta)**2``; the two agree because
    ``(alpha**2 + beta**2)**n = 1``.
    """
    _check_theta(theta)
    _check_split(n_horizon, 0)
    return _rule_sum(theta, pair, n_horizon, 1, 2), math.sin(2.0 * theta) ** 2


def sum_rule_linear(
    theta: float, pair: BogoliubovPair, n_horizon: int
) -> tuple[float, float]:
    """Binomially weighted sum of E itself over even splits.

    For even ``n``, ``sum_k C(n/2, k) E(n - 2k, 2k) = sin(2 theta)``;
    each term trades two outside modes for two inside ones, so the sum
    telescopes through ``(alpha**2 + beta**2)**(n/2)``.  Returns
    ``(lhs, rhs)``; odd ``n`` raises :class:`OddN`.
    """
    _check_theta(theta)
    _check_split(n_horizon, 0)
    if n_horizon % 2:
        raise OddN(f"the linear sum rule needs an even mode count, got {n_horizon}")
    return _rule_sum(theta, pair, n_horizon, 2, 1), math.sin(2.0 * theta)


def monogamy_residual(
    theta: float, pair: BogoliubovPair, n_out: int, n_in: int
) -> float:
    """Multipartite remainder ``E**2 - sum of squared pair terms``.

    Every two-party reduction of the scenario state is separable, so the
    remainder is the full ``E**2 = sin(2 theta)**2 * alpha**(2p) * beta**(2q)``.
    """
    _check_theta(theta)
    _check_split(n_out, n_in)
    return math.sin(2.0 * theta) ** 2 * coeff_power(pair, 2 * n_out, 2 * n_in)
