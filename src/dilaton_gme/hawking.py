"""Hawking-effect mode mixing outside a static dilaton black hole.

For a Dirac field of frequency ``omega``, the thermal character of the
horizon mixes particle and antiparticle modes.  The mixing is fixed by a
single pair of coefficients ``(alpha, beta)`` with ``alpha**2 + beta**2 = 1``:

    alpha = [exp(-8*pi*(M - D)*omega) + 1] ** (-1/2)
    beta  = [exp(+8*pi*(M - D)*omega) + 1] ** (-1/2)

where ``M`` is the black-hole mass and ``D`` the dilaton parameter.  Only the
combination ``(M - D) * omega`` matters; the extreme limit ``D -> M`` gives
``alpha = beta = 1/sqrt(2)``, while ``D -> 0`` at ``M = omega = 1`` leaves the
mixing exponentially weak (``beta ~ 3.5e-6``).

High powers of ``beta`` underflow double precision very quickly, so the
module also provides log-domain and underflow-safe evaluation of monomials
``alpha**p * beta**q``.  :class:`BogoliubovGrid` holds the coefficients
and their logs over a whole list of dilatons, checked once per list, and
evaluates a monomial at every point with the same arithmetic as the
scalar functions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable

from .errors import DegenerateCoefficient, InvalidParams, _count_text

__all__ = [
    "BlackHoleParams",
    "BogoliubovPair",
    "BogoliubovGrid",
    "bogoliubov",
    "log_power",
    "coeff_power",
]

# Direct products alpha**p * beta**q stay exactly representable while the
# log-domain value is above roughly log(DBL_MIN); past that we fall back to
# exp() so the result degrades gracefully through the subnormals.
_LOG_DIRECT_FLOOR = -700.0
# An exponent past the largest float cannot enter float arithmetic at all.
_MAX_EXPONENT = sys.float_info.max


def _check_positive(name: str, value: float) -> None:
    if not (value > 0.0) or not math.isfinite(value):
        raise InvalidParams(f"{name} must be a positive finite number, got {value}")


def _check_dilaton(mass: float, dilaton: float) -> None:
    if not math.isfinite(dilaton) or not (0.0 <= dilaton <= mass):
        raise InvalidParams(f"dilaton must lie in [0, mass] = [0, {mass}], got {dilaton}")


def _check_pair(alpha: float, beta: float) -> None:
    if not (0.0 < alpha <= 1.0):
        raise InvalidParams(f"alpha must lie in (0, 1], got {alpha}")
    if not (0.0 <= beta < 1.0):
        raise InvalidParams(f"beta must lie in [0, 1), got {beta}")
    if alpha < beta:
        raise InvalidParams(
            f"alpha must not be smaller than beta, got alpha={alpha}, beta={beta}"
        )
    norm = alpha * alpha + beta * beta
    if abs(norm - 1.0) > 1e-14:
        raise InvalidParams(f"alpha**2 + beta**2 must equal 1 within 1e-14, got {norm!r}")


@dataclass(frozen=True)
class BlackHoleParams:
    """Static dilaton black hole probed by a field mode.

    Parameters
    ----------
    mass : float
        Black-hole mass ``M``.  Must be positive.
    dilaton : float
        Dilaton parameter ``D``.  Must satisfy ``0 <= D <= M``.
    omega : float
        Frequency of the Dirac mode.  Must be positive.
    """

    mass: float
    dilaton: float
    omega: float

    def __post_init__(self):
        _check_positive("mass", self.mass)
        _check_dilaton(self.mass, self.dilaton)
        _check_positive("omega", self.omega)

    @classmethod
    def from_charge(cls, mass: float, charge: float, omega: float) -> "BlackHoleParams":
        """Build parameters from the black-hole charge ``Q``.

        The dilaton parameter is ``D = Q**2 / (2 M)``.  The charge must not
        exceed the extreme value ``|Q| = sqrt(2) * M`` (at which ``D = M``);
        squaring a charge given as ``sqrt(2) * M`` overshoots ``M`` by a few
        ulp, so a relative slack of 1e-12 is clamped back to the extreme.
        """
        _check_positive("mass", mass)
        if not math.isfinite(charge):
            raise InvalidParams(f"charge must be finite, got {charge}")
        dilaton = charge * charge / (2.0 * mass)
        if mass < dilaton <= mass * (1.0 + 1e-12):
            dilaton = mass
        if dilaton > mass:
            raise InvalidParams(
                f"charge {charge} exceeds the extreme value {math.sqrt(2.0) * mass:.6g} "
                f"for mass {mass}"
            )
        return cls(mass=mass, dilaton=dilaton, omega=omega)


@dataclass(frozen=True)
class BogoliubovPair:
    """Normalised mode-mixing coefficients ``(alpha, beta)``.

    ``alpha`` weighs the vacuum-preserving branch and ``beta`` the thermally
    excited one.  For the physical range of parameters ``alpha >= beta``,
    with equality only in the extreme limit.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        _check_pair(self.alpha, self.beta)


def _mixing(mass: float, dilaton: float, omega: float) -> tuple[float, float]:
    x = 8.0 * math.pi * (mass - dilaton) * omega
    alpha = 1.0 / math.sqrt(1.0 + math.exp(-x))
    return alpha, math.exp(-0.5 * x) * alpha


def bogoliubov(params: BlackHoleParams) -> BogoliubovPair:
    """Mode-mixing coefficients for the given black hole and frequency.

    Evaluated as ``alpha = 1/sqrt(1 + exp(-x))`` and
    ``beta = exp(-x/2) * alpha`` with ``x = 8*pi*(M - D)*omega >= 0``, which
    never overflows and keeps ``alpha**2 + beta**2 = 1`` to machine
    precision.  In the extreme limit ``x = 0`` the two coefficients are the
    identical float ``1/sqrt(2)``.
    """
    return BogoliubovPair(*_mixing(params.mass, params.dilaton, params.omega))


def _log_beta(beta: float) -> float:
    # Only ever read with beta > 0 (see _power).
    return math.log(beta) if beta > 0.0 else -math.inf


def _log_power(log_alpha: float, log_beta: float, alpha_exp: int, beta_exp: int) -> float:
    total = alpha_exp * log_alpha
    if beta_exp > 0:
        total += beta_exp * log_beta
    return total


def _power(
    alpha: float, beta: float, log_alpha: float, log_beta: float, alpha_exp: int, beta_exp: int
) -> float:
    """Unchecked body of :func:`coeff_power`, given the logs of the pair."""
    if beta == 0.0 and beta_exp > 0:
        return 0.0
    log_value = _log_power(log_alpha, log_beta, alpha_exp, beta_exp)
    if log_value > _LOG_DIRECT_FLOOR:
        return alpha**alpha_exp * beta**beta_exp
    return math.exp(log_value)


def _check_exponents(alpha_exp: int, beta_exp: int) -> None:
    if alpha_exp < 0 or beta_exp < 0:
        raise InvalidParams(
            f"exponents must be non-negative, got "
            f"({_count_text(alpha_exp)}, {_count_text(beta_exp)})"
        )
    if alpha_exp > _MAX_EXPONENT or beta_exp > _MAX_EXPONENT:
        raise InvalidParams(
            f"exponents must not exceed {_MAX_EXPONENT!r}, got "
            f"({_count_text(alpha_exp)}, {_count_text(beta_exp)})"
        )


def log_power(pair: BogoliubovPair, alpha_exp: int, beta_exp: int) -> float:
    """Natural log of ``alpha**alpha_exp * beta**beta_exp``.

    Raises
    ------
    DegenerateCoefficient
        If ``beta == 0`` while ``beta_exp > 0`` (the log would be ``-inf``).
    InvalidParams
        If either exponent is negative or above the largest float.
    """
    _check_exponents(alpha_exp, beta_exp)
    if pair.beta == 0.0 and beta_exp > 0:
        raise DegenerateCoefficient(
            f"log of beta**{beta_exp} is undefined for beta = 0"
        )
    return _log_power(math.log(pair.alpha), _log_beta(pair.beta), alpha_exp, beta_exp)


def coeff_power(pair: BogoliubovPair, alpha_exp: int, beta_exp: int) -> float:
    """Underflow-safe value of ``alpha**alpha_exp * beta**beta_exp``.

    A vanishing ``beta`` raised to a positive power gives an exact ``0.0``.
    Otherwise the product is formed directly while it stays comfortably
    inside the normal double range and through ``exp`` of the log-domain
    value once it would underflow.
    """
    _check_exponents(alpha_exp, beta_exp)
    alpha, beta = pair.alpha, pair.beta
    return _power(alpha, beta, math.log(alpha), _log_beta(beta), alpha_exp, beta_exp)


class BogoliubovGrid:
    """Mixing coefficients at every dilaton of a list, for one mass and frequency.

    ``mass`` and ``omega`` are checked once, every dilaton must lie in
    ``[0, mass]``, and each point passes the checks of
    :class:`BogoliubovPair`.  Point ``i`` holds exactly the floats
    ``bogoliubov(BlackHoleParams(mass, dilatons[i], omega))`` would, kept as
    parallel lists together with their logs.
    """

    # A plain class: defining a frozen dataclass this size adds about 1 ms to every import.
    __slots__ = ("mass", "omega", "dilatons", "alphas", "betas", "log_alphas", "log_betas")

    def __init__(self, mass: float, omega: float, dilatons: Iterable[float]):
        dilatons = tuple(dilatons)
        _check_positive("mass", mass)
        if dilatons:
            # min() and max() skip a NaN that is not first, so a NaN is checked first.
            _check_dilaton(mass, next(filter(math.isnan, dilatons), min(dilatons)))
            _check_dilaton(mass, max(dilatons))
        _check_positive("omega", omega)
        pairs = [_mixing(mass, dilaton, omega) for dilaton in dilatons]
        for alpha, beta in pairs:
            _check_pair(alpha, beta)
        self.mass = mass
        self.omega = omega
        self.dilatons = dilatons
        self.alphas = [alpha for alpha, _ in pairs]
        self.betas = [beta for _, beta in pairs]
        self.log_alphas = list(map(math.log, self.alphas))
        self.log_betas = list(map(_log_beta, self.betas))

    def powers(self, alpha_exp: int, beta_exp: int) -> list[float]:
        """:func:`coeff_power` at every point, the exponents checked once."""
        _check_exponents(alpha_exp, beta_exp)
        return [
            _power(alpha, beta, log_alpha, log_beta, alpha_exp, beta_exp)
            for alpha, beta, log_alpha, log_beta in zip(
                self.alphas, self.betas, self.log_alphas, self.log_betas
            )
        ]
