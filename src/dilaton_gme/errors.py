"""Exception types raised across the package, and its one rule each for a count, a real number,
a mapping and a sequence."""


def _count_text(value: object) -> str:
    """``str`` of an int, ``repr`` of anything else; once the digits pass Python's int-to-str
    limit, an int's bit length or any other value's type."""
    try:
        return str(value) if isinstance(value, int) else repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"<{'negative ' * (value < 0)}{value.bit_length()}-bit integer>"
        return f"<{type(value).__name__} with too many digits to print>"


def _is_index(value: object) -> bool:
    """The rule for a count (an index, a label, an exponent, a size): an ``int``, not a ``bool``."""
    return type(value) is int or (isinstance(value, int) and not isinstance(value, bool))


def _check_count(name: str, value: object, error: type) -> None:
    """Raise ``error`` for a ``value`` that is not a count."""
    if type(value) is not int and not _is_index(value):
        raise error(f"{name} must be an integer, got {_count_text(value)}")


def _is_real(kind: type) -> bool:
    """The rule for a real number's type: ``numbers.Real``, not ``bool`` (which compares as 0 or 1).

    A ``float`` is answered at once, so a closed-form start never imports ``numbers``."""
    if kind is float:
        return True
    import numbers

    return issubclass(kind, numbers.Real) and kind is not bool


def _real(value: object, error: type, where: str) -> float:
    """``value`` as a ``float`` if it is a real number, else ``error`` naming ``where``."""
    if type(value) is float or _is_real(type(value)):
        try:
            return float(value)
        except OverflowError:  # an int or a Fraction past the largest float
            raise error(
                f"{where} must lie within the float range, got {type(value).__name__} beyond it"
            ) from None
    raise error(f"{where} must be a real number, got {value!r}")


def _items(mapping: object, error: type, what: str):
    """``mapping.items()``, or ``error`` naming ``what`` for a value that is not a mapping."""
    try:
        return mapping.items()
    except AttributeError:
        raise error(f"{what} must be a mapping, got {type(mapping).__name__}") from None


def _sequence(values: object, error: type, what: str) -> tuple:
    """``tuple(values)``, or ``error`` naming ``what`` for a value that cannot be iterated or is a
    ``str`` (whose items are its letters, not the labels it spells)."""
    try:
        iter(values)
    except TypeError:
        pass
    else:  # outside the try, so a TypeError raised while iterating is not renamed
        if not isinstance(values, str):
            return tuple(values)
    raise error(f"{what} must be a sequence, got {type(values).__name__}")


class DilatonGmeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(DilatonGmeError):
    """Black-hole or field parameters are out of their physical domain."""


class InvalidSpec(DilatonGmeError):
    """A scenario description violates its own consistency constraints."""


class NotXState(DilatonGmeError):
    """A density matrix has weight outside the diagonal/anti-diagonal.

    Carries the offending (row, col) position.
    """

    def __init__(self, row, col):
        self.row = row
        self.col = col
        super().__init__(f"nonzero entry at ({row}, {col}) is neither diagonal nor anti-diagonal")


class InvalidDensity(DilatonGmeError):
    """A density matrix fails trace, symmetry, or positivity checks."""


class InvalidPartition(DilatonGmeError):
    """A bipartition or party grouping does not match the state's layout."""


class ScaleCap(DilatonGmeError):
    """The requested construction exceeds the supported exact-simulation size."""


class OddN(DilatonGmeError):
    """An identity that requires an even mode count was asked for an odd one."""
