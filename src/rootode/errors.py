"""Exception types shared across the package."""

__all__ = [
    "RootodeError",
    "VariableMismatchError",
    "NonExactDivisionError",
    "DomainError",
    "SingularIntegrandError",
    "QuadratureError",
    "ParseError",
]


class RootodeError(Exception):
    """Base class for errors raised by this package."""


class VariableMismatchError(RootodeError):
    """Polynomials in different variables were combined."""


class NonExactDivisionError(RootodeError):
    """An exact polynomial division left a remainder.

    Raised where divisibility is a mathematical certainty, so hitting this
    signals an implementation bug rather than bad input.
    """


class DomainError(RootodeError):
    """Input lies outside the validity domain of a formula or method."""


class SingularIntegrandError(RootodeError):
    """An integrand evaluated to a non-finite value inside the interval."""


class QuadratureError(RootodeError):
    """Tanh-sinh quadrature did not converge by its finest step, or the
    integrand carries weight nearer an end than its nodes reach."""


class ParseError(RootodeError):
    """Polynomial text could not be parsed.

    The offset of the offending character is kept in ``position``.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
