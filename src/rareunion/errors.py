"""Exception types shared across the package, and the input checks that raise them."""

import math
import numbers

import numpy as np


class RareUnionError(Exception):
    """Base class for all package-specific errors."""


class ModelSpecError(RareUnionError, ValueError):
    """A model description or configuration is invalid."""


class CapabilityError(RareUnionError, RuntimeError):
    """An operation was requested that the model does not support."""


class QuadratureError(RareUnionError, RuntimeError):
    """Numerical integration failed to reach the requested accuracy."""


def _dimension(d, what: str = "dimension", least=1) -> int:
    """``d`` as an int of at least ``least`` (None: any int); a non-integral
    value or a boolean is an error, not a truncation."""
    try:
        n = int(d)
        integral = n == d and not isinstance(d, (bool, np.bool_))
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ModelSpecError(f"{what} must be an integer, got {d!r}")
    if least is not None and n < least:
        raise ModelSpecError(f"{what} must be at least {least}")
    return n


def _real(x, what: str) -> float:
    """``x`` as a finite float; a string, a boolean or a non-finite value
    is an error, not a conversion."""
    try:
        value = float(x) if isinstance(x, numbers.Real) and not isinstance(x, bool) else math.nan
    except OverflowError:  # an int beyond the float range
        value = math.nan
    if not math.isfinite(value):
        raise ModelSpecError(f"{what} must be a finite number, got {x!r}")
    return value
