"""Closed-form entanglement of GHZ states shared across the horizon.

With ``p`` kept outside modes and ``q`` kept inside modes (``p + q = n``
horizon parties), the genuine multipartite entanglement of the reduced
N-party state is

    E = sin(2 theta) * alpha**p * beta**q.

The party count drops out entirely, and theta enters only through
``sin(2 theta)``.  Everything else here follows from that one line:
derivative in theta, location of the thermal peak in the dilaton
parameter, distribution identities over mode splits, and the monogamy
deficit.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Sequence

from .errors import InvalidSpec, OddN, _count_text, _is_index, _sequence
from .hawking import (
    BogoliubovGrid,
    BogoliubovPair,
    _check_exponents,
    _check_positive,
    _check_theta,
    _power_rows,
    coeff_power,
)

#: Largest ``m`` whose binomials ``C(m, k)`` all fit a float: ``C(1030, 515)``
#: does not.  Past it the sum rules run in decimals, at 1-2 us per term.
#: The pair's own rounding, ``sin(2 theta)**2 * ((alpha**2 + beta**2)**n - 1)``,
#: passes ``1e-12`` near n = 5700 (M = omega = 1, D = 0 or 1) and 38000 (D = 0.9).
MAX_FLOAT_BINOMIAL = 1029


def _check_split(n_out: int, n_in: int) -> None:
    for name, value in (("n_out", n_out), ("n_in", n_in)):
        if not _is_index(value) or value < 0:
            raise InvalidSpec(f"{name} must be a non-negative integer, got {_count_text(value)}")
    if n_out + n_in < 1:
        raise InvalidSpec("at least one horizon mode is needed")
    _check_exponents(n_out, n_in)


def e_general(theta: float, pair: BogoliubovPair, n_out: int, n_in: int) -> float:
    """``sin(2 theta) * alpha**n_out * beta**n_in``."""
    theta = _check_theta(theta)
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
    thetas = [_check_theta(theta) for theta in _sequence(thetas, InvalidSpec, "thetas")]
    _check_split(n_out, n_in)
    powers = grid.powers(n_out, n_in)
    return [[s * m for m in powers] for s in [math.sin(2.0 * theta) for theta in thetas]]


def _binomial_sums(
    sines: Sequence[float], rows: Sequence[Sequence[float]], power: int
) -> list[list[float]]:
    """``sum_k C(m, k) * (s * row[k])**power``, ``m = len(row) - 1``, per row at each sine ``s``.

    The rows are laid end to end, each weighted by its own ``C(m, k)``,
    built once per distinct ``m``, so one pass per sine forms every term
    and each row's sum is ``math.fsum`` of its slice.  Each term is
    ``C * E * E`` (or ``C * E``) from the float E, and ``float(C) * E`` is
    ``C * E`` while ``m <= MAX_FLOAT_BINOMIAL``.
    """
    binomials = {m: [float(math.comb(m, k)) for k in range(m + 1)] for m in {len(row) - 1 for row in rows}}
    weights = [w for row in rows for w in binomials[len(row) - 1]]
    flat = [r for row in rows for r in row]
    ends = list(accumulate(map(len, rows)))
    if power == 2:
        terms = [[w * (e := s * r) * e for w, r in zip(weights, flat)] for s in sines]
    else:
        terms = [[w * (s * r) for w, r in zip(weights, flat)] for s in sines]
    return [[math.fsum(t[a:b]) for a, b in zip([0, *ends], ends)] for t in terms]


def _rule_sum(theta: float, pair: BogoliubovPair, n: int, step: int, power: int) -> float:
    """``sum_k C(m, k) * E(n - step*k, step*k)**power``, ``m = n // step``.

    Inputs are checked by the caller.  While every ``C`` fits a float this
    is :func:`_binomial_sums` on every ``step``-th entry of the power row,
    the kernel the verify suite runs on many rows at once.
    Past that (``m > MAX_FLOAT_BINOMIAL``) ``C`` and the deepest E leave the
    float range, so the sum runs in 40-digit decimals instead.
    """
    m, s = n // step, math.sin(2.0 * theta)
    if m <= MAX_FLOAT_BINOMIAL:
        (row,) = _power_rows(pair, (n,))
        return _binomial_sums((s,), (row[::step],), power)[0][0]
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
    theta = _check_theta(theta)
    _check_split(n_out, n_in)
    return 2.0 * math.cos(2.0 * theta) * coeff_power(pair, n_out, n_in)


def peak_dilaton(mass: float, omega: float, n_out: int, n_in: int):
    """Dilaton value where E is stationary, or None.

    Solving ``dE/dD = 0`` gives ``D* = M - ln(p/q) / (8 pi omega)``.  A
    stationary point needs both mode counts positive; the result is
    returned only when it falls inside ``[0, M]`` (for ``p < q`` it lies
    above ``M``, so E is monotone over the physical range and the answer
    is None).
    """
    mass = _check_positive("mass", mass)
    omega = _check_positive("omega", omega)
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
    ``(alpha**2 + beta**2)**n = 1`` for the exact pair.  The float pair
    misses 1 by about ``1e-16``, so they differ by
    ``sin(2 theta)**2 * ((alpha**2 + beta**2)**n - 1)`` of its floats,
    which passes ``1e-12`` near ``n = 5700`` at ``M = omega = 1``,
    ``D = 0`` or ``D = 1``.
    """
    theta = _check_theta(theta)
    _check_split(n_horizon, 0)
    return _rule_sum(theta, pair, n_horizon, 1, 2), math.sin(2.0 * theta) ** 2


def sum_rule_linear(
    theta: float, pair: BogoliubovPair, n_horizon: int
) -> tuple[float, float]:
    """Binomially weighted sum of E itself over even splits.

    For even ``n``, ``sum_k C(n/2, k) E(n - 2k, 2k) = sin(2 theta)``;
    each term trades two outside modes for two inside ones, so the sum
    telescopes through ``(alpha**2 + beta**2)**(n/2)``.  Returns
    ``(lhs, rhs)``; odd ``n`` raises :class:`OddN`.  For the float pair
    the two differ by ``sin(2 theta) * ((alpha**2 + beta**2)**(n/2) - 1)``
    of its floats, half the quadratic rule's drift at ``theta = pi/4``.
    """
    theta = _check_theta(theta)
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
    theta = _check_theta(theta)
    _check_split(n_out, n_in)
    return math.sin(2.0 * theta) ** 2 * coeff_power(pair, 2 * n_out, 2 * n_in)
