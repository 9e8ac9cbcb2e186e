"""Exception types and the integer-argument rule shared across the package."""

import numbers


def check_integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an ``int``; ``ValueError`` unless an integer, not a bool, >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return int(value)


class InvalidProbabilityError(ValueError):
    """Selection probabilities are negative or do not sum to one."""


class NumericalBlowupError(RuntimeError):
    """A state or map output left the finite, bounded regime."""


class ParameterDomainError(ValueError):
    """A sampled parameter fell outside the declared parameter space."""


class SingularNormalMatrixError(RuntimeError):
    """The control normal matrix R + B'QB is singular or near-singular."""


class InvalidDensityError(ValueError):
    """A supplied probability density is negative or malformed."""


class IncompatibleMeasureError(ValueError):
    """Empirical measures do not share bin edges."""


class EvaluationError(RuntimeError):
    """A user-supplied function returned a non-finite value."""
