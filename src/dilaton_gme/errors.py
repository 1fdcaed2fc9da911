"""Exception types raised across the package, and how their messages show a count."""


def _count_text(value: int) -> str:
    """``str(value)``, or its bit length once the digits pass Python's int-to-str limit."""
    try:
        return str(value)
    except ValueError:
        return f"<{'negative ' * (value < 0)}{value.bit_length()}-bit integer>"


class DilatonGmeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(DilatonGmeError):
    """Black-hole or field parameters are out of their physical domain."""


class DegenerateCoefficient(DilatonGmeError):
    """A coefficient power is ill-defined, e.g. log of a vanishing beta."""


class InvalidSpec(DilatonGmeError):
    """A scenario description violates its own consistency constraints."""


class UnknownMode(DilatonGmeError):
    """A mode was looked up in a layout that does not contain it."""


class NotXState(DilatonGmeError):
    """A density matrix has weight outside the diagonal/anti-diagonal.

    Carries the offending (row, col) position.
    """

    def __init__(self, row, col, message=None):
        self.row = row
        self.col = col
        if message is None:
            message = f"nonzero entry at ({row}, {col}) is neither diagonal nor anti-diagonal"
        super().__init__(message)


class InvalidDensity(DilatonGmeError):
    """A density matrix fails trace, symmetry, or positivity checks."""


class InvalidPartition(DilatonGmeError):
    """A bipartition or party grouping does not match the state's layout."""


class ScaleCap(DilatonGmeError):
    """The requested construction exceeds the supported exact-simulation size."""


class OddN(DilatonGmeError):
    """An identity that requires an even mode count was asked for an odd one."""
