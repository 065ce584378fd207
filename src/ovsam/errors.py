"""Exception types, the integer rule and the settings rule shared across the package."""

import math
from dataclasses import fields
from numbers import Integral, Real


def is_integer(value):
    """Whether value is an integer (numpy integers included) and not a bool.

    A plain int is answered first: the ABC check against Integral is slow.
    """
    return type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))


class Settings:
    """Base of the settings dataclasses.  On construction each field must fit
    its annotation, then each (name, ok, requirement) row of the subclass's
    requirements() must hold; the first failure raises a ValueError."""

    def _annotation_rows(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float:
                real = isinstance(value, Real) and not isinstance(value, bool)
                try:
                    finite = real and math.isfinite(value)
                except OverflowError:  # an int too large for a float
                    finite = False
                yield f.name, finite, "finite"
            elif f.type is int:
                yield f.name, is_integer(value), "an integer"
            else:
                yield f.name, isinstance(value, f.type), f"a {f.type.__name__}"

    def __post_init__(self):
        for rows in (self._annotation_rows, self.requirements):
            for name, ok, requirement in rows():
                if not ok:
                    raise ValueError(f"{name} must be {requirement}, got {getattr(self, name)!r}")


class OvsamError(Exception):
    """Base class for all errors raised by this package; index is the batch
    position of the offending record when a batched check raised."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class DegenerateVectorError(OvsamError, ValueError):
    """A vector that must be normalized has (numerically) zero length."""


class InvalidCovarianceError(OvsamError, ValueError):
    """A covariance matrix is not symmetric positive definite."""


class GraphFormatError(OvsamError, ValueError):
    """A graph file could not be parsed."""


class GraphValidationError(OvsamError, ValueError):
    """A parsed graph violates a structural invariant."""


class PreconditionError(OvsamError, ValueError):
    """An operation was called with inputs outside its contract."""


class OracleError(OvsamError, RuntimeError):
    """The finite-difference oracle hit a non-finite function value."""


class NumericalFailure(OvsamError, RuntimeError):
    """A linear system could not be solved even at maximum regularization."""
