"""Exception types shared across the package."""


class ParseError(ValueError):
    """Syntax error in an input text, with a character position when known."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class RingMismatchError(ValueError):
    """Operands live over different rings or modules."""


class InhomogeneousError(ValueError):
    """A graded operation received an inhomogeneous input."""


class DegreeCapError(RuntimeError):
    """A computation exceeded the configured internal-degree cap."""


class NotInConeError(ValueError):
    """A diagram is not a positive combination of admissible pure diagrams."""


class NotInSpanError(ValueError):
    """An element is not in the span of the columns it should be lifted along."""


class DomainError(ValueError):
    """Arguments violate the stated hypotheses of a formula."""


class ValidationError(ValueError):
    """Structured input parsed but failed a semantic invariant (d^2 != 0 etc.)."""
