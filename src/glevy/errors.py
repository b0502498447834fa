"""Exception types shared across the library."""


class GlevyError(Exception):
    """Base class for all library errors."""


class ParamOutOfRange(GlevyError):
    """A model parameter violates its constraint."""

    def __init__(self, name: str, value, constraint: str):
        self.name = name
        self.value = value
        self.constraint = constraint
        try:  # one line, though numpy prints a long or 2-d array on several
            shown = " ".join(line.strip() for line in repr(value).splitlines())
        except ValueError:  # holds an int beyond sys.get_int_max_str_digits()
            shown = f"<{type(value).__name__} too long to print>"
        super().__init__(f"parameter {name}={shown} violates: {constraint}")


class DomainViolation(GlevyError):
    """An exponent argument lies outside the admissible interval."""

    def __init__(self, alpha: float, interval):
        self.alpha = alpha
        self.interval = interval
        super().__init__(f"alpha={alpha} outside admissible interval {interval}")


class Unsupported(GlevyError):
    """The requested operation is not available for this family."""

    def __init__(self, family: str, what: str = "operation"):
        self.family = family
        super().__init__(f"{what} not supported for family {family}")


class QuadratureFailure(GlevyError):
    """Numerical integration did not reach the requested tolerance."""


class MissingForeignRate(GlevyError):
    """FX valuation requires the foreign rate f on the spec."""


class NonpositiveDividendYield(GlevyError):
    """Gordon valuation requires r + R - gamma > 0."""


class GridMismatch(GlevyError):
    """Schedule breakpoints are not contained in the simulation grid."""
