"""Exception types shared across the library, and the check that raises
DomainError for a malformed sequence argument."""


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


def checked_sequence(values, name, increasing, least=2):
    """values as a tuple of floats: at least `least` entries, all positive
    and strictly increasing (or decreasing); DomainError otherwise."""
    seq = tuple(float(v) for v in values)
    steps = zip(seq, seq[1:]) if increasing else zip(seq[1:], seq)
    if len(seq) < least or not all(v > 0 for v in seq) or \
            not all(b > a for a, b in steps):
        order = "increasing" if increasing else "decreasing"
        raise DomainError(f"{name} must hold at least {least} positive, "
                          f"strictly {order} values")
    return seq
