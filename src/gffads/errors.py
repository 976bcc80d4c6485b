"""Exception types shared across the library."""


class GffadsError(Exception):
    pass


class DomainError(GffadsError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class RangeError(GffadsError, OverflowError):
    """Result not representable (overflow of an entire-function series, etc.)."""


class DimensionMismatchError(GffadsError, ValueError):
    """Vectors of different space-time dimension combined."""


class ChartExitError(GffadsError, ValueError):
    """A coordinate transformation leaves the Poincare chart."""


class DivergenceError(GffadsError, ArithmeticError):
    """A regularized integral fails to extrapolate to a finite limit."""


class LightConeProximityError(GffadsError, ArithmeticError):
    """Evaluation requested too close to a light cone for the regulator."""


class ResolutionError(GffadsError, ArithmeticError):
    """Grid too coarse for the requested derivative accuracy."""


class BudgetExceededError(GffadsError, ArithmeticError):
    """Quadrature budget exhausted before reaching tolerance.

    Carries the best estimate obtained so far.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
