"""Exception types shared across the package."""


class OvsamError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateVectorError(OvsamError, ValueError):
    """A vector that must be normalized has (numerically) zero length.

    index is the batch position of the offending record when a batched
    cost kernel raised, else None.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


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
