"""Exception types shared across the package, and the checks on input numbers.

Two failure families matter to callers: bad inputs (rejected before any numerics
run; each rule on a number, and its one wording, is below) and numerical breakdowns
(singular systems, undefined correlations, failed integrations). The CLI maps them to exit codes 1 and 2.
"""

from __future__ import annotations

import math


class ParameterError(ValueError):
    """Invalid or inconsistent user input (parameters, config, grid spec)."""


class NumericalError(RuntimeError):
    """A computation could not produce a trustworthy result."""


def finite_real(name: str, value) -> float:
    """`value` as a float; ParameterError unless it is a finite int or float (bools excluded)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ParameterError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def nonnegative(name: str, value: float) -> float:
    """`value`, a finite real; ParameterError if it is below 0."""
    if value < 0:
        raise ParameterError(f"{name} must be >= 0, got {value!r}")
    return value


def positive(name: str, value: float) -> float:
    """`value`, a finite real; ParameterError unless it is above 0."""
    if value <= 0:
        raise ParameterError(f"{name} must be > 0, got {value!r}")
    return value


def integer(name: str, value, minimum: int) -> int:
    """`value`; ParameterError unless it is an int (bools excluded) of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value
