"""Exception types shared across the package."""


class HypothesisViolationError(ValueError):
    """A bound was requested outside the regime where it holds.

    The message names the violated inequality so callers can report it.
    """


class QuadratureError(RuntimeError):
    """The integrand evaluated to a non-finite value at a quadrature node."""


class InfeasibleTargetError(RuntimeError):
    """No sample size within the search range meets the requested target.

    Attributes
    ----------
    best_precision : float
        The smallest precision bound on the search grid, for diagnostics.
    """

    def __init__(self, message, best_precision=None):
        super().__init__(message)
        self.best_precision = best_precision


class UnsupportedOracleError(ValueError):
    """Closed-form ground truth is not available for this input law."""
