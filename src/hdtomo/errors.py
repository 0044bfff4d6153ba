"""Exception and warning types shared across the package.

The command-line front end maps these onto stable exit codes: usage and
configuration problems exit 1, malformed or insufficient data exits 2,
and numerical failures (overflow, NaN, singular scaling) exit 3.  Library
warnings go through _warn, which names the caller's line.
"""

import os
import sys
import warnings
from numbers import Integral

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _check_count(name: str, value, low: int = 1):
    """Raise ValueError unless value is an integer (numpy's included) >= low;
    a bool or a float with an integer value is not a count."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _warn(message: str, category=UserWarning):
    """warnings.warn attributed to the first caller outside this package,
    however deep inside it the warning is raised, so a library user sees
    their own call and the once-per-location filter tells call sites apart."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


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
