"""Exceptions raised by the time steppers."""

import math


class SolverError(RuntimeError):
    """A step failed: a singular or non-finite solve, or a diverging iteration."""


def require_positive(value: float, what: str) -> float:
    """Return value when it is finite and positive; raise SolverError otherwise."""
    if not math.isfinite(value):
        raise SolverError(f"{what} is non-finite ({value:g})")
    if value <= 0.0:
        raise SolverError(f"{what} = {value:g} is not positive")
    return value
