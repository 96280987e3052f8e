"""Exception types shared across the package, and the check every size
argument passes."""

import operator

__all__ = ["PreconditionError", "NumericError", "CoefficientFileError", "check_integer"]


class PreconditionError(ValueError):
    """A mathematical hypothesis required by an identity is violated.

    Raised when an operation is asked to run outside the class of
    coefficients for which its defining identity holds (non-zero mean,
    missing periodicity, non-constant coefficient, untrusted eigenvalue
    index, ...).  The CLI maps this to exit status 2.
    """


class NumericError(ArithmeticError):
    """An iterative numeric routine failed to converge or met bad data."""


class CoefficientFileError(ValueError):
    """A coefficient JSON file is malformed; message carries diagnostics."""


def check_integer(name: str, value) -> None:
    """Refuse a size that is not an integer (a float such as 64.0 too);
    Python and numpy integers pass."""
    try:
        operator.index(value)
    except TypeError:
        raise PreconditionError(f"{name}={value!r} must be an integer") from None
