"""Exception types shared across the package.

The command-line front end maps these onto stable exit codes: usage and
configuration problems exit 1, malformed or insufficient data exits 2,
and numerical failures (overflow, NaN, singular scaling) exit 3.
"""

from numbers import Integral


def _check_count(name: str, value, low: int = 1):
    """Raise ValueError unless value is an integer (numpy's included) >= low;
    a bool or a float with an integer value is not a count."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


class TomographyError(Exception):
    """Base class for errors raised by this package."""


class UsageError(TomographyError):
    """Invalid arguments, flags, or configuration (CLI exit code 1)."""


class DataError(TomographyError):
    """Malformed, inconsistent, or insufficient input data (CLI exit code 2)."""


class NumericalError(TomographyError):
    """Overflow, non-finite intermediate, or singular scaling (CLI exit code 3)."""


class PatternOverflowError(NumericalError):
    """A pattern recursion overflowed the floating-point range."""


class PhaseAliasingWarning(UserWarning):
    """The estimated band reaches diagonals that the phase grid aliases."""
