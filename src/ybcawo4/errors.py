"""Exception types shared across the package, and the scalar domain checks.

Each check fails NaN (`not value > 0`, never `value <= 0`) and raises
ValidationError("<name> must be ..."), one name for all values given.
"""

import math


class ValidationError(ValueError):
    """Malformed input: bad shapes, labels, headers, non-Hermitian matrices."""


class DomainError(ValueError):
    """Arguments outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (non-convergence, step underflow)."""


def check_finite(name: str, *values) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(f"{name} must be finite")


def check_positive(name: str, *values) -> None:
    """Finite and > 0: NaN is "not positive", +inf "not finite"."""
    if not all(v > 0 for v in values):
        raise ValidationError(f"{name} must be positive")
    check_finite(name, *values)


def check_non_negative(name: str, *values) -> None:
    if not all(v >= 0 for v in values):
        raise ValidationError(f"{name} must be non-negative")
    check_finite(name, *values)


def check_count(name: str, value: int, minimum: int) -> None:
    if not value >= minimum:
        raise ValidationError(f"{name} must be at least {minimum}")
