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

A monomial ``alpha**p * beta**q`` is the plain product of two float powers,
in three shapes that give the same floats: :func:`coeff_power` for one pair;
:meth:`BogoliubovGrid.powers` for one monomial at every dilaton of a list,
checked once per list; and ``_power_rows`` for the rows
``alpha**(n - k) * beta**k`` of one pair.  Both factors lie in ``[0, 1]``,
so neither overflows and the product underflows only where the exact one
does: high powers of ``beta`` fall through the subnormals to ``0.0``.

:class:`BlackHoleParams` and :class:`BogoliubovPair` are frozen values on plain
``__slots__`` classes on ``_Value``, as are the oracle's containers and the
verify reports, so the package never loads ``dataclasses`` or the
``inspect`` it imports.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Sequence

from .errors import InvalidParams, InvalidSpec, _check_count, _count_text
from .errors import _is_index, _is_real, _real, _sequence

# An exponent past the largest float cannot enter float arithmetic at all.
_MAX_EXPONENT = sys.float_info.max

#: Most points :func:`dilaton_grid` may build; a :class:`BogoliubovGrid` takes a list of any length.
MAX_GRID_STEPS = 10**6


def _check_positive(name: str, value: float) -> float:
    value = _real(value, InvalidParams, name)
    if not 0.0 < value < math.inf:
        raise InvalidParams(f"{name} must be a positive finite number, got {value}")
    return value


def _check_dilaton(mass: float, dilaton: float) -> None:
    if not 0.0 <= dilaton <= mass:  # both are floats, and a NaN fails
        raise InvalidParams(f"dilaton must lie in [0, mass] = [0, {mass}], got {dilaton}")


def _check_theta(theta: float) -> float:
    theta = _real(theta, InvalidSpec, "theta")
    if not 0.0 <= theta <= math.pi / 2:
        raise InvalidSpec(f"theta must lie in [0, pi/2], got {theta}")
    return theta


class _Value:
    """A frozen value: compared (within its own class), hashed, printed, pickled and copied as
    its ``_fields()``, its ``__slots__`` in order but a last ``"__dict__"`` of caches, and never
    rebound or deleted.  A subclass with a check has its ``__init__`` pass its arguments to
    ``__post_init__``, which checks them, then writes each slot once; a copy or a pickle does too."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__ if name != "__dict__"])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class BlackHoleParams(_Value):
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

    __slots__ = ("mass", "dilaton", "omega")

    def __init__(self, mass: float, dilaton: float, omega: float):
        self.__post_init__(mass, dilaton, omega)

    def __post_init__(self, mass, dilaton, omega):
        if not type(mass) is type(dilaton) is type(omega) is float:
            mass = _real(mass, InvalidParams, "mass")
            dilaton = _real(dilaton, InvalidParams, "dilaton")
            omega = _real(omega, InvalidParams, "omega")
        _check_positive("mass", mass)
        _check_dilaton(mass, dilaton)
        _check_positive("omega", omega)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "dilaton", dilaton)
        object.__setattr__(self, "omega", omega)


class BogoliubovPair(_Value):
    """Normalised mode-mixing coefficients ``(alpha, beta)``.

    ``alpha`` weighs the vacuum-preserving branch and ``beta`` the thermally
    excited one.  For the physical range of parameters ``alpha >= beta``,
    with equality only in the extreme limit.
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: float, beta: float):
        self.__post_init__(alpha, beta)

    def __post_init__(self, alpha, beta):
        if not type(alpha) is type(beta) is float:
            alpha, beta = _real(alpha, InvalidParams, "alpha"), _real(beta, InvalidParams, "beta")
        if not (0.0 < alpha <= 1.0):
            raise InvalidParams(f"alpha must lie in (0, 1], got {alpha}")
        if not (0.0 <= beta < 1.0):
            raise InvalidParams(f"beta must lie in [0, 1), got {beta}")
        if alpha < beta:
            raise InvalidParams(f"alpha must not be smaller than beta, got alpha={alpha}, beta={beta}")
        norm = alpha * alpha + beta * beta
        if abs(norm - 1.0) > 1e-14:
            raise InvalidParams(f"alpha**2 + beta**2 must equal 1 within 1e-14, got {norm!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


def _mixing(mass: float, dilatons: Iterable[float], omega: float) -> tuple[list[float], list[float]]:
    """``(alphas, betas)`` at each dilaton, built in one loop."""
    alphas: list[float] = []
    betas: list[float] = []
    scale, exp, sqrt = 8.0 * math.pi, math.exp, math.sqrt
    for dilaton in dilatons:
        x = scale * (mass - dilaton) * omega  # 8*pi*(M - D)*omega, multiplied in that order
        alpha = 1.0 / sqrt(1.0 + exp(-x))
        alphas.append(alpha)
        betas.append(exp(-0.5 * x) * alpha)
    return alphas, betas


def bogoliubov(params: BlackHoleParams) -> BogoliubovPair:
    """Mode-mixing coefficients for the given black hole and frequency.

    Evaluated as ``alpha = 1/sqrt(1 + exp(-x))`` and
    ``beta = exp(-x/2) * alpha`` with ``x = 8*pi*(M - D)*omega >= 0``, which
    never overflows and keeps ``alpha**2 + beta**2 = 1`` to machine
    precision.  In the extreme limit ``x = 0`` the two coefficients are the
    identical float ``1/sqrt(2)``.
    """
    (alpha,), (beta,) = _mixing(params.mass, (params.dilaton,), params.omega)
    return BogoliubovPair(alpha, beta)


def _check_exponents(alpha_exp: int, beta_exp: int) -> None:
    counts = type(alpha_exp) is type(beta_exp) is int or (_is_index(alpha_exp) and _is_index(beta_exp))
    if not counts or alpha_exp < 0 or beta_exp < 0:
        raise InvalidParams(
            f"exponents must be non-negative integers, got "
            f"({_count_text(alpha_exp)}, {_count_text(beta_exp)})"
        )
    if alpha_exp > _MAX_EXPONENT or beta_exp > _MAX_EXPONENT:
        raise InvalidParams(
            f"exponents must not exceed {_MAX_EXPONENT!r}, got "
            f"({_count_text(alpha_exp)}, {_count_text(beta_exp)})"
        )


def coeff_power(pair: BogoliubovPair, alpha_exp: int, beta_exp: int) -> float:
    """``alpha**alpha_exp * beta**beta_exp``, the plain product of two float powers.

    Neither factor exceeds 1, so the product underflows only where the exact
    value does, through the subnormals to ``0.0``; a vanishing ``beta`` raised
    to a positive power gives an exact ``0.0``.
    """
    _check_exponents(alpha_exp, beta_exp)
    return pair.alpha**alpha_exp * pair.beta**beta_exp


def _power_rows(pair: BogoliubovPair, horizons: Sequence[int]) -> list[list[float]]:
    """Rows ``alpha**(n - k) * beta**k``, ``k = 0 .. n``, one per ``n``, as :func:`coeff_power` forms them.

    Entry ``(n, k)`` is ``alphas[n - k] * betas[k]`` off one table of powers
    each, up to the longest ``n``.
    """
    alpha, beta, top = pair.alpha, pair.beta, max(horizons)
    alphas, betas = [alpha**j for j in range(top + 1)], [beta**j for j in range(top + 1)]
    return [[alphas[n - k] * betas[k] for k in range(n + 1)] for n in horizons]


class BogoliubovGrid:
    """Mixing coefficients at every dilaton of a list, for one mass and frequency.

    The inputs are checked once: ``mass`` and ``omega``, and every dilaton
    must lie in ``[0, mass]``; all are kept as floats.  Point ``i`` holds
    exactly the floats ``bogoliubov(BlackHoleParams(mass, dilatons[i], omega))``
    would, kept as two parallel lists, so each meets the conditions of
    :class:`BogoliubovPair` by construction (``tests/test_grid.py`` checks
    this out to the float range's edges) and is not checked again.
    """

    # Slots, as every value type here has, but not a ``_Value``: a grid compares and hashes by identity.
    __slots__ = ("mass", "omega", "dilatons", "alphas", "betas")

    def __init__(self, mass: float, omega: float, dilatons: Iterable[float]):
        dilatons = _sequence(dilatons, InvalidParams, "dilatons")
        mass = _check_positive("mass", mass)
        kinds = set(map(type, dilatons))
        if not all(map(_is_real, kinds)):
            names = ", ".join(sorted(kind.__name__ for kind in kinds))
            raise InvalidParams(f"every dilaton must be a real number, got {names}")
        if kinds - {float}:
            try:
                dilatons = tuple(map(float, dilatons))
            except OverflowError:  # some dilaton has no float: let the rule name it
                dilatons = tuple([_real(dilaton, InvalidParams, "dilaton") for dilaton in dilatons])
        if dilatons:
            # min() and max() skip a NaN that is not first, so a NaN is checked first.
            _check_dilaton(mass, next(filter(math.isnan, dilatons), min(dilatons)))
            _check_dilaton(mass, max(dilatons))
        omega = _check_positive("omega", omega)
        alphas, betas = _mixing(mass, dilatons, omega)
        self.mass = mass
        self.omega = omega
        self.dilatons = dilatons
        self.alphas = alphas
        self.betas = betas

    def powers(self, alpha_exp: int, beta_exp: int) -> list[float]:
        """:func:`coeff_power` at every point, the exponents checked once."""
        _check_exponents(alpha_exp, beta_exp)
        return [alpha**alpha_exp * beta**beta_exp for alpha, beta in zip(self.alphas, self.betas)]


def dilaton_grid(d_min: float, d_max: float, steps: int) -> list[float]:
    """``steps`` evenly spaced dilatons from ``d_min`` to exactly ``d_max``."""
    _check_count("steps", steps, InvalidParams)
    if steps < 2:
        raise InvalidParams(f"a dilaton grid needs at least 2 steps, got {_count_text(steps)}")
    if steps > MAX_GRID_STEPS:
        raise InvalidParams(
            f"a dilaton grid takes at most {MAX_GRID_STEPS} steps, got {_count_text(steps)}"
        )
    step = (d_max - d_min) / (steps - 1)
    return [d_min + i * step for i in range(steps - 1)] + [d_max]
