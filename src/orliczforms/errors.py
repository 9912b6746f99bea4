"""Exception types shared across the package."""


class OrliczFormsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(OrliczFormsError, ValueError):
    """Malformed or inconsistent arguments (dimension/degree mismatches etc.)."""


class DegreeError(InvalidInputError):
    """Operation applied to a form of inadmissible degree."""


class OutOfDomainError(OrliczFormsError, ValueError):
    """Evaluation point lies outside the closure of the domain."""


class EmptyBallFamilyError(OrliczFormsError, RuntimeError):
    """No admissible ball exists for the requested dilation factor."""


class DivergedIntegralError(OrliczFormsError, ArithmeticError):
    """A quadrature produced a non-finite value."""


class NoConvergenceError(OrliczFormsError, RuntimeError):
    """An iterative solve found no finite bracket: ``luxemburg_norm`` raises
    it when I(max|f|) is so large or so small that the bracket end it gives
    overflows or underflows."""


class RejectedPairError(OrliczFormsError, ValueError):
    """A claimed conjugate pair failed its structural residual check."""


class ExpressionError(OrliczFormsError, ValueError):
    """A formula string could not be parsed or differentiated."""


class ConfigError(OrliczFormsError, ValueError):
    """Invalid run configuration.  Carries the full list of violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
