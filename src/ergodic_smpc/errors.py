"""Exception types and the integer and real-number argument rules shared across the package."""

import math
import numbers


def check_integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an ``int``; ``ValueError`` unless an integer, not a bool, >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return int(value)


def check_real(name: str, value, above=None, at_least=None, below=None,
               finite: bool = True) -> float:
    """``value`` as a ``float``; ``ValueError`` unless a real number, not a bool or NaN.

    It must be finite unless ``finite`` is false, and > ``above``, >=
    ``at_least`` and < ``below`` for each bound given.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Real) or math.isnan(value)
            or (finite and math.isinf(value))
            or (above is not None and not value > above)
            or (at_least is not None and not value >= at_least)
            or (below is not None and not value < below)):
        rule = " and ".join(f"{op} {bound}" for op, bound in
                            ((">", above), (">=", at_least), ("<", below)) if bound is not None)
        kind = "finite number" if finite else "number"
        raise ValueError(f"{name} must be a {kind} {rule}".rstrip() + f", got {value!r}")
    return float(value)


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
